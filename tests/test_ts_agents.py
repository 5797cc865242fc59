"""Agent-family tests: hand-computed updates, replay oracles, chain
diagnostics and degeneracy traces."""

import ast
import inspect
from contextlib import contextmanager

import numpy as np
import pytest

from stabletrade import ts_agents
from stabletrade.bandit_envs import (
    EnvSpec,
    MdpTables,
    RoundContext,
    make_env,
    play,
    regret,
    true_q,
)
from stabletrade.errors import ConfigError
from stabletrade.stable_core import PdfTable, StableParams, _tan_half, cdf, sample
from stabletrade.ts_agents import (
    ActsAgent,
    AgentConfig,
    ArmBelief,
    CtsAgent,
    MdpActsAgent,
    PlainAtsAgent,
    SactsAgent,
    SctsAgent,
    _Location,
    _moment_beliefs,
    _pi_estimate,
    _weighted_update,
    belief_from_history,
    make_agent,
    mh_location_kernel,
    replay_information,
    tail_weights,
)

TOY = MdpTables(
    n_states=2,
    n_actions=2,
    horizon=2,
    transitions=np.array([[0, 1], [0, 1]]),
    reward_means=np.array([[0.3, 0.1], [0.0, 1.0]]),
    start_states=[0],
)

NOISE = StableParams(1.8, 0.0, 0.3, 0.0)


class ScriptedEnv:
    """Returns rewards from a fixed list, whatever arm is pulled."""

    def __init__(self, rewards):
        self.rewards = list(rewards)
        self.seed = 0
        self._i = 0

    def pull(self, t, arm):
        r = self.rewards[self._i % len(self.rewards)]
        self._i += 1
        return float(r)


@contextmanager
def recorded_updates():
    """Record every information update the agents make while the block runs,
    as (b, (thetas, weights, arm, reward)) with the arrays copied; b is the
    precision matrix updated in place, so `b is slot.B` picks one user's
    updates. The update function is restored when the block exits."""
    calls = []
    update = ts_agents._weighted_update

    def recording(b, y, thetas, weights, arm, reward):
        calls.append((b, (thetas.copy(), weights.copy(), arm, reward)))
        return update(b, y, thetas, weights, arm, reward)

    ts_agents._weighted_update = recording
    try:
        yield calls
    finally:
        ts_agents._weighted_update = update


# ---------------------------------------------------------------------------
# config


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ConfigError):
        AgentConfig(algorithm="uct")


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        AgentConfig.from_dict({"algorithm": "cts", "explore": 1.0})


@pytest.mark.parametrize("algorithm, key", [
    ("cts", "lam"), ("acts", "lam"), ("plain_ats", "lam"), ("mdp_acts", "lam"),
    ("acts", "mc_probs"), ("sacts", "mc_probs"), ("plain_ats", "mc_probs"),
    ("mdp_acts", "mc_probs"),
    ("cts", "refresh_every"), ("scts", "refresh_every"),
    ("cts", "warmup"), ("scts", "warmup"),
    ("cts", "mh_step_scale"), ("scts", "mh_step_scale"),
    ("mdp_acts", "v"), ("plain_ats", "v"),
])
def test_config_from_dict_rejects_keys_the_algorithm_never_reads(algorithm, key):
    with pytest.raises(ConfigError) as err:
        AgentConfig.from_dict({"algorithm": algorithm, key: 1})
    assert f"agent.{key}" in str(err.value) and repr(algorithm) in str(err.value)


_READ_VALUES = {"v": 0.5, "lam": 0.7, "refresh_every": 10, "mc_probs": 50,
                "mh_step_scale": 0.2, "warmup": 4}


@pytest.mark.parametrize("algorithm, keys", [
    ("cts", ("v", "mc_probs")),
    ("scts", ("v", "lam", "mc_probs")),
    ("acts", ("v", "refresh_every", "mh_step_scale", "warmup")),
    ("sacts", ("v", "lam", "refresh_every", "mh_step_scale", "warmup")),
    ("plain_ats", ("refresh_every", "mh_step_scale", "warmup")),
    ("mdp_acts", ("refresh_every", "mh_step_scale", "warmup")),
])
def test_config_from_dict_takes_every_key_the_algorithm_reads(algorithm, keys):
    cfg = AgentConfig.from_dict({"algorithm": algorithm,
                                 **{k: _READ_VALUES[k] for k in keys}})
    assert all(getattr(cfg, k) == _READ_VALUES[k] for k in keys)


def test_config_lineage_defaults():
    assert AgentConfig(algorithm="cts").resolved_v() == 0.25
    assert AgentConfig(algorithm="acts").resolved_v() == 0.0
    assert AgentConfig(algorithm="cts", v=0.5).resolved_v() == 0.5
    assert AgentConfig(algorithm="acts").resolved_warmup(10) == 10
    assert AgentConfig(algorithm="acts").resolved_warmup(2) == 3


# ---------------------------------------------------------------------------
# the shared weighted update, against hand arithmetic


def test_weighted_update_hand_case():
    b = np.eye(2)
    y = np.zeros(2)
    thetas = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = np.array([0.3, 0.7])
    _weighted_update(b, y, thetas, w, arm=1, reward=2.0)
    # theta_bar = (0.3, 0.7); xa = (-0.3, 0.3)
    # spread = 0.3*outer(0.7,-0.7) + 0.7*outer(-0.3,0.3) -> 0.21 on the diagonal
    expect_b = np.eye(2) + np.array([[0.30, -0.30], [-0.30, 0.30]])
    expect_y = np.array([-1.2, 1.2])
    np.testing.assert_allclose(b, expect_b, atol=1e-12)
    np.testing.assert_allclose(y, expect_y, atol=1e-12)


def test_weighted_update_onehot_is_rank_one():
    b = np.eye(3)
    y = np.zeros(3)
    thetas = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [2.0, 0.0, 1.0]])
    w = np.array([0.0, 1.0, 0.0])
    _weighted_update(b, y, thetas, w, arm=1, reward=1.5)
    # with a point mass at the chosen arm theta_bar = theta_arm, so nothing moves
    np.testing.assert_allclose(b, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(y, np.zeros(3), atol=1e-12)


def test_pi_estimate_zero_v_is_one_hot():
    thetas = np.array([[1.0, 0.0], [0.0, 2.0]])
    center = np.array([0.5, 1.0])
    pi = _pi_estimate(thetas, center, None, 0.0, 100, np.random.default_rng(0))
    np.testing.assert_allclose(pi, [0.0, 1.0])


def test_pi_estimate_is_a_probability_vector():
    rng = np.random.default_rng(4)
    thetas = rng.normal(size=(4, 3))
    pi = _pi_estimate(thetas, np.zeros(3), np.eye(3), 0.5, 400, rng)
    assert pi.shape == (4,)
    assert np.all(pi >= 0.0)
    assert abs(pi.sum() - 1.0) < 1e-12


def test_pi_estimate_finds_a_dominant_arm():
    thetas = np.array([[5.0, 5.0], [-5.0, -5.0]])
    center = np.array([1.0, 1.0])
    chol = np.linalg.cholesky(100.0 * np.eye(2))
    pi = _pi_estimate(thetas, center, chol, 0.3, 300, np.random.default_rng(1))
    assert pi[0] > 0.99


# ---------------------------------------------------------------------------
# cts behavior


def test_cts_zero_v_first_step_leaves_information_unchanged():
    # mu starts at zero, the one-hot weights collapse the spread terms
    agent = CtsAgent(2, 2, AgentConfig(algorithm="cts", v=0.0), seed=0)
    env = ScriptedEnv([1.0])
    ctx = RoundContext(t=0, contexts=np.array([[1.0, 0.0], [0.0, 1.0]]))
    arm, reward = agent.step(ctx, env)
    assert arm == 0 and reward == 1.0
    np.testing.assert_allclose(agent.slots[0].B, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(agent.slots[0].y, np.zeros(2), atol=1e-12)


def test_cts_replay_oracle_matches_incremental_state():
    spec = EnvSpec(kind="linear", n_arms=4, dim=6, horizon=80,
                   mu=np.linspace(-1, 1, 6))
    env = make_env(spec, seed=2)
    agent = CtsAgent(4, 6, AgentConfig(algorithm="cts"), seed=2)
    with recorded_updates() as calls:
        play(env, agent, 80)
    assert len(calls) == 80
    b, y = replay_information([u for _, u in calls], 6)
    np.testing.assert_allclose(b, agent.slots[0].B, atol=1e-10)
    np.testing.assert_allclose(y, agent.slots[0].y, atol=1e-10)


def test_cts_learns_on_the_linear_env():
    spec = EnvSpec(kind="linear", n_arms=5, dim=10, horizon=800,
                   mu=np.linspace(-0.5, 0.5, 10))
    env = make_env(spec, seed=2)
    agent = make_agent(AgentConfig(algorithm="cts"), n_arms=5, dim=10, seed=2)
    tr = play(env, agent, 800)
    rng = np.random.default_rng(2)
    env2 = make_env(spec, seed=2)
    total_u = 0.0
    for t in range(800):
        arm = int(rng.integers(5))
        env2.pull(t, arm)
        means = env2.true_means(t)
        total_u += float(means.max() - means[arm])
    assert regret(tr).total < 0.5 * total_u


# ---------------------------------------------------------------------------
# stable beliefs and the chain


def test_moment_beliefs_take_median_and_iqr():
    r = [1.0, 2.0, 3.0, 4.0, 100.0]
    b = _moment_beliefs(r)
    assert b.prior_mu == 3.0
    assert b.alpha == 1.8 and b.beta == 0.0
    assert b.sigma == pytest.approx((np.percentile(r, 75) - np.percentile(r, 25)) / 2.0)


def test_belief_from_history_widens_short_priors():
    r = [0.5, 1.5]
    base = _moment_beliefs(r)
    b = belief_from_history(r)
    assert b.prior_var == pytest.approx(4.0 * base.prior_var)


def test_belief_from_history_uses_ecf_at_fifty():
    rng = np.random.default_rng(8)
    from stabletrade.stable_core import sample
    r = sample(StableParams(1.5, 0.4, 1.0, 2.0), 4000, rng)
    b = belief_from_history(list(r))
    assert abs(b.alpha - 1.5) < 0.15
    assert abs(b.prior_mu - 2.0) < 0.3


def test_belief_shift_is_the_written_out_formula_after_a_refit_and_for_surrogates():
    # log_terms and mean_given_delta read a shift cached when the belief is
    # built or refit; a stale cache would keep the surrogate's beta = 0
    rewards = sample(StableParams(1.4, 0.8, 0.6, 0.2), 120, np.random.default_rng(31))
    surrogate = belief_from_history(rewards[:20])
    refit = belief_from_history(rewards[:20])
    refit.refit(rewards)
    assert surrogate.beta == 0.0 and refit.beta != 0.0 and refit.alpha != surrogate.alpha
    deltas = np.array([-0.3, 0.0, 0.9])
    for belief in (surrogate, refit):
        shift = belief.beta * belief.sigma * _tan_half(belief.alpha)
        assert belief.mean_given_delta(0.7) == 0.7 - shift
        np.testing.assert_array_equal(
            belief.log_terms(rewards, deltas),
            belief.table.logpdf(rewards[None, :] - (deltas - shift)[:, None]))


def test_tail_weights_match_quadrature():
    beliefs = [ArmBelief(1.8, 0.3, 1.0, 0.0, 1.0), ArmBelief(1.6, -0.2, 0.5, 0.0, 1.0)]
    deltas = np.array([0.4, 1.1])
    cutoff = 0.9
    w = tail_weights(beliefs, deltas, cutoff)
    raw = []
    for b, d in zip(beliefs, deltas):
        params = StableParams(b.alpha, b.beta, b.sigma, d)
        raw.append(1.0 - cdf(params, cutoff))
    expect = np.array(raw) / np.sum(raw)
    np.testing.assert_allclose(w, expect, atol=2e-4)
    assert abs(w.sum() - 1.0) < 1e-12


def test_tail_weights_single_arm_is_certain():
    w = tail_weights([ArmBelief(1.8, 0.0, 1.0, 0.0, 1.0)], np.array([0.0]), 5.0)
    np.testing.assert_allclose(w, [1.0])


def test_tail_weights_degenerate_total_falls_back_to_uniform():
    beliefs = [ArmBelief(2.0, 0.0, 0.01, 0.0, 1.0)] * 3
    w = tail_weights(beliefs, np.zeros(3), 1e6)
    np.testing.assert_allclose(w, np.full(3, 1.0 / 3.0))


def test_gaussian_belief_tails_match_the_normal_cdf():
    # alpha = 2 collapses the machinery onto the usual Gaussian arm model
    from math import erf, sqrt
    b = ArmBelief(2.0, 0.0, 1.0, 0.0, 1.0)
    for c in [-1.0, 0.0, 0.7, 2.5]:
        expect = 0.5 * (1.0 - erf(c / (sqrt(2) * sqrt(2.0))))
        assert b.table.tail_beyond(c, b.mean_given_delta(0.0)) == pytest.approx(expect, abs=1e-3)


def test_mh_chain_tracks_the_grid_posterior():
    rng = np.random.default_rng(12)
    from stabletrade.stable_core import sample
    true = StableParams(1.8, 0.0, 1.0, 1.5)
    rewards = sample(true, 40, rng)
    belief = ArmBelief(1.8, 0.0, 1.0, prior_mu=0.0, prior_var=4.0)
    path = mh_location_kernel(belief, rewards, 0.0, 20000, 0.4, rng)
    path = path[4000:]
    grid = np.linspace(path.min() - 1.0, path.max() + 1.0, 400)
    logp = belief.log_posterior(rewards, grid)
    dens = np.exp(logp - logp.max())
    dens /= np.trapezoid(dens, grid)
    hist, edges = np.histogram(path, bins=60, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    on_grid = np.interp(centers, grid, dens)
    width = edges[1] - edges[0]
    tv = 0.5 * np.sum(np.abs(hist - on_grid)) * width
    assert tv < 0.1


def _per_delta_log_posterior(belief, rewards, deltas):
    """ArmBelief.log_posterior as one density call per candidate delta: the
    reference the single reward-major pass must match bit for bit."""
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    out = np.empty(deltas.shape[0])
    shift = belief.beta * belief.sigma * _tan_half(belief.alpha)
    for i, d in enumerate(deltas):
        out[i] = float(np.sum(belief.table.logpdf(np.asarray(rewards, dtype=float)
                                                  - (d - shift))))
    out -= 0.5 * (deltas - belief.prior_mu) ** 2 / belief.prior_var
    return out


@pytest.mark.parametrize("beta", [0.0, 0.7, -0.4])
@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("dim", [1, 2, 10])
def test_log_posterior_matches_per_delta_loop_bit_for_bit(dim, n, beta):
    rng = np.random.default_rng(1000 * dim + n)
    belief = ArmBelief(1.6, beta, 0.5, prior_mu=0.2, prior_var=3.0)
    rewards = sample(StableParams(1.6, beta, 0.5, 0.3), n, rng)
    # rewards past the tabulated edge on both sides take the tail extension
    edge = belief.table.edge
    rewards[0] = 3.0 * edge
    rewards[n // 2] = -5.0 * edge
    deltas = rng.normal(0.3, 0.5, size=dim)
    np.testing.assert_array_equal(belief.log_posterior(rewards, deltas),
                                  _per_delta_log_posterior(belief, rewards, deltas))
    # far candidates put the whole history in one tail, then in the other
    far = np.concatenate([deltas, [40.0 * edge, -40.0 * edge]])
    np.testing.assert_array_equal(belief.log_posterior(rewards, far),
                                  _per_delta_log_posterior(belief, rewards, far))


def _recomputing_sweep(agent, slot):
    """The MH sweep without the per-reward cache: the current location's log
    posterior is recomputed over the whole history whenever a pull or a refit
    has invalidated it. The reference the cached sweep must match bit for bit."""
    for loc in slot.arms:
        belief, cur = loc.belief, loc.theta
        props = cur + agent.config.mh_step_scale * belief.sigma * agent.rng.normal(size=agent.dim)
        if loc._lp is None:
            loc._lp = belief.log_posterior(loc.rewards, cur)
        lp_cur = loc._lp
        lp_prop = belief.log_posterior(loc.rewards, props)
        accept = np.log(agent.rng.uniform(size=agent.dim)) < lp_prop - lp_cur
        loc.theta[:] = np.where(accept, props, cur)
        loc._lp = np.where(accept, lp_prop, lp_cur)


_SWEEP_CASES = {
    "acts": (EnvSpec(kind="linear", n_arms=3, dim=3, horizon=700),
             lambda cfg: ActsAgent(3, 3, cfg, seed=3)),
    "sacts": (EnvSpec(kind="plain", n_arms=3, horizon=700, arm_means=[0.0, 0.3, 0.5],
                      n_users=2),
              lambda cfg: SactsAgent(3, 1, cfg, seed=4, n_users=2)),
    "plain_ats": (EnvSpec(kind="plain", n_arms=3, horizon=700, arm_means=[0.0, 0.2, 0.3]),
                  lambda cfg: PlainAtsAgent(3, cfg, seed=5)),
}


@pytest.mark.parametrize("algorithm", sorted(_SWEEP_CASES))
def test_cached_sweep_matches_recomputing_sweep_bit_for_bit(algorithm):
    spec, build = _SWEEP_CASES[algorithm]
    cfg = AgentConfig(algorithm=algorithm, refresh_every=5)
    cached, ref = build(cfg), build(cfg)
    ref._mh_sweep = lambda slot: _recomputing_sweep(ref, slot)
    e1, e2 = make_env(spec, 11), make_env(spec, 11)
    refits = 0
    for t in range(700):
        ctx1, ctx2 = e1.context(t), e2.context(t)
        assert cached.step(ctx1, e1) == ref.step(ctx2, e2)
        for a, b in zip(cached.slots, ref.slots):
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.B, b.B)
            np.testing.assert_array_equal(a.y, b.y)
            for loc_a, loc_b in zip(a.arms, b.arms):
                assert (loc_a._lp is None) == (loc_b._lp is None)
                if loc_a._lp is not None:
                    np.testing.assert_array_equal(loc_a._lp, loc_b._lp)
        # a refit (50 rewards on) leaves an arm's term buffer empty until its next sweep
        refits += sum(loc._filled == 0 and len(loc) >= 50 for s in cached.slots
                      for loc in s.arms)
    # the run refits often and grows the term buffers past their first size
    assert refits >= 10
    assert max(loc._terms.shape[1] for s in cached.slots for loc in s.arms) > 64


def _recomputing_sampled_means(agent):
    """mdp_acts' sampled means with one uncached MH step per visited pair:
    the log posterior at the current location and at the proposal from one
    density pass over the whole history. The reference the cached pairs must
    match bit for bit."""
    m = np.empty((agent.n_states, agent.n_actions))
    for s, row in enumerate(agent.pairs):
        for a, loc in enumerate(row):
            if loc.belief is None:
                draw = ts_agents._PRIOR_MU + ts_agents._PRIOR_SD * agent.rng.normal()
                agent.theta[s, a] = draw
                m[s, a] = draw
            else:
                belief = loc.belief
                prop = agent.theta[s, a] + agent.config.mh_step_scale * belief.sigma * agent.rng.normal()
                lp = belief.log_posterior(loc.rewards, [agent.theta[s, a], prop])
                if np.log(agent.rng.uniform()) < lp[1] - lp[0]:
                    agent.theta[s, a] = prop
                m[s, a] = belief.mean_given_delta(agent.theta[s, a])
    return m


@pytest.mark.parametrize("seed", [1, 2])
def test_cached_mdp_pairs_match_recomputing_pairs_bit_for_bit(seed):
    spec = EnvSpec(kind="adversarial_mdp", mdp=TOY, noise=NOISE, adversary="greedy")
    cfg = AgentConfig(algorithm="mdp_acts", refresh_every=5)
    cached = MdpActsAgent(2, 2, 2, cfg, seed=seed)
    ref = MdpActsAgent(2, 2, 2, cfg, seed=seed)
    ref._sampled_means = lambda: _recomputing_sampled_means(ref)
    e1, e2 = make_env(spec, seed), make_env(spec, seed)
    for _ in range(300):
        (t1, reg1), (t2, reg2) = cached.run_episode(e1), ref.run_episode(e2)
        assert t1.actions == t2.actions
        assert reg1 == reg2
        np.testing.assert_array_equal(cached.theta, ref.theta)
        np.testing.assert_array_equal(cached.point_q, ref.point_q)
    # the pairs crossed the every-5 rebuilds, the refits from 50 rewards on
    # and a term buffer's first growth
    assert max(len(loc) for row in cached.pairs for loc in row) > 64


def _scalar_kernel(belief, rewards, theta0, n_iter, step, rng):
    """The location chain as one scalar log_posterior call per proposal: the
    reference the agents' cached step must match bit for bit."""
    rewards = np.asarray(rewards, dtype=float)
    theta = float(theta0)
    cur = float(belief.log_posterior(rewards, [theta])[0])
    path = np.empty(n_iter)
    for i in range(n_iter):
        prop = theta + step * rng.normal()
        cand = float(belief.log_posterior(rewards, [prop])[0])
        if np.log(rng.uniform()) < cand - cur:
            theta, cur = prop, cand
        path[i] = theta
    return path


def test_location_kernel_matches_scalar_kernel_bit_for_bit():
    rewards = sample(StableParams(1.5, 0.3, 1.0, 0.8), 200, np.random.default_rng(7))
    belief = belief_from_history(rewards)
    args = (belief, rewards, belief.prior_mu, 5000, 0.1)
    path = mh_location_kernel(*args, np.random.default_rng(8))
    np.testing.assert_array_equal(path, _scalar_kernel(*args, np.random.default_rng(8)))
    assert 0.0 < np.mean(path[1:] != path[:-1]) < 1.0


def test_only_the_location_step_draws_an_acceptance_uniform():
    # the MH accept rule lives in one place; a second copy would call
    # rng.uniform somewhere else in the module
    tree = ast.parse(inspect.getsource(ts_agents))
    callers = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "uniform"):
                callers.append(owner)
            visit(child, name)

    visit(tree, "")
    assert callers == ["_Location.step"]


# ---------------------------------------------------------------------------
# acts behavior


def test_acts_warmup_is_round_robin():
    spec = EnvSpec(kind="plain", n_arms=3, horizon=40,
                   arm_means=[0.0, 0.5, 1.0])
    env = make_env(spec, seed=0)
    agent = ActsAgent(3, 1, AgentConfig(algorithm="acts"), seed=0)
    tr = play(env, agent, 12)
    assert tr.arms[:9] == [0, 1, 2] * 3
    slot = agent.slots[0]
    assert all(loc.belief is not None for loc in slot.arms)


def test_acts_replay_oracle_matches_incremental_state():
    spec = EnvSpec(kind="plain", n_arms=3, horizon=120,
                   arm_means=[0.0, 0.5, 1.0])
    env = make_env(spec, seed=6)
    agent = ActsAgent(3, 1, AgentConfig(algorithm="acts"), seed=6)
    with recorded_updates() as calls:
        play(env, agent, 120)
    # the 9 round-robin warm-up pulls make no update
    assert len(calls) == 120 - 9
    slot = agent.slots[0]
    b, y = replay_information([u for _, u in calls], 1)
    np.testing.assert_allclose(b, slot.B, atol=1e-10)
    np.testing.assert_allclose(y, slot.y, atol=1e-10)


def test_acts_beats_uniform_on_heavy_tails():
    spec = EnvSpec(kind="plain", n_arms=4, horizon=600,
                   arm_means=[0.0, 0.2, 0.5, 1.0])
    env = make_env(spec, seed=1)
    agent = ActsAgent(4, 1, AgentConfig(algorithm="acts"), seed=1)
    tr = play(env, agent, 600)
    env2 = make_env(spec, seed=1)
    rng = np.random.default_rng(1)
    total_u = 0.0
    for t in range(600):
        arm = int(rng.integers(4))
        env2.pull(t, arm)
        total_u += 1.0 - spec.arm_means[arm]
    assert regret(tr).total < 0.5 * total_u


def test_acts_refreshes_beliefs_from_the_ecf():
    spec = EnvSpec(kind="plain", n_arms=2, horizon=300,
                   arm_means=[0.0, 1.0])
    env = make_env(spec, seed=4)
    agent = ActsAgent(2, 1, AgentConfig(algorithm="acts"), seed=4)
    play(env, agent, 300)
    slot = agent.slots[0]
    favorite = int(np.argmax([len(loc) for loc in slot.arms]))
    assert len(slot.arms[favorite]) >= 50
    # the moment fallback pins alpha at 1.8 exactly; a refit moves it
    assert slot.arms[favorite].belief.alpha != 1.8


# ---------------------------------------------------------------------------
# degeneracy chains


def test_scts_at_lambda_zero_replays_cts_exactly():
    spec = EnvSpec(kind="linear", n_arms=4, dim=6, horizon=150,
                   mu=np.linspace(0.0, 1.0, 6))
    e1, e2 = make_env(spec, 7), make_env(spec, 7)
    c1 = CtsAgent(4, 6, AgentConfig(algorithm="cts", v=0.25), seed=11)
    c2 = SctsAgent(4, 6, AgentConfig(algorithm="scts", v=0.25, lam=0.0), seed=11, n_users=1)
    t1 = play(e1, c1, 150)
    t2 = play(e2, c2, 150)
    assert t1.arms == t2.arms
    np.testing.assert_array_equal(t1.rewards, t2.rewards)
    np.testing.assert_allclose(c1.slots[0].B, c2.slots[0].B, atol=0)
    np.testing.assert_allclose(c1.slots[0].y, c2.slots[0].y, atol=0)


def test_sacts_at_lambda_zero_replays_acts_exactly():
    spec = EnvSpec(kind="plain", n_arms=3, horizon=120,
                   arm_means=[0.0, 0.4, 1.0])
    e1, e2 = make_env(spec, 9), make_env(spec, 9)
    a1 = ActsAgent(3, 1, AgentConfig(algorithm="acts"), seed=2)
    a2 = SactsAgent(3, 1, AgentConfig(algorithm="sacts", lam=0.0), seed=2, n_users=1)
    t1 = play(e1, a1, 120)
    t2 = play(e2, a2, 120)
    assert t1.arms == t2.arms
    np.testing.assert_array_equal(t1.rewards, t2.rewards)
    np.testing.assert_allclose(a1.slots[0].B, a2.slots[0].B, atol=0)


def test_scts_single_user_replays_cts_at_any_lambda():
    spec = EnvSpec(kind="linear", n_arms=3, dim=4, horizon=120,
                   mu=np.linspace(0.0, 1.0, 4))
    e1, e2 = make_env(spec, 13), make_env(spec, 13)
    c1 = CtsAgent(3, 4, AgentConfig(algorithm="cts"), seed=6)
    c2 = SctsAgent(3, 4, AgentConfig(algorithm="scts", lam=0.7), seed=6, n_users=1)
    t1 = play(e1, c1, 120)
    t2 = play(e2, c2, 120)
    assert t1.arms == t2.arms
    np.testing.assert_array_equal(t1.rewards, t2.rewards)


def test_sacts_single_user_replays_acts_at_any_lambda():
    spec = EnvSpec(kind="plain", n_arms=3, horizon=100,
                   arm_means=[0.0, 0.4, 1.0])
    e1, e2 = make_env(spec, 4), make_env(spec, 4)
    a1 = ActsAgent(3, 1, AgentConfig(algorithm="acts"), seed=5)
    a2 = SactsAgent(3, 1, AgentConfig(algorithm="sacts", lam=0.7), seed=5, n_users=1)
    t1 = play(e1, a1, 100)
    t2 = play(e2, a2, 100)
    assert t1.arms == t2.arms
    np.testing.assert_array_equal(t1.rewards, t2.rewards)


def test_sacts_multiuser_replay_oracle_matches_slot_state():
    spec = EnvSpec(kind="plain", n_arms=2, horizon=160,
                   arm_means=[0.0, 1.0], n_users=2)
    env = make_env(spec, seed=10)
    agent = SactsAgent(2, 1, AgentConfig(algorithm="sacts", lam=0.3), seed=10,
                       n_users=2)
    with recorded_updates() as calls:
        play(env, agent, 160)
    for slot in agent.slots:
        own = [u for b, u in calls if b is slot.B]
        assert len(own) > 0
        b, y = replay_information(own, 1, b0=0.3 * np.eye(1))
        np.testing.assert_allclose(b, slot.B, atol=1e-8)
        np.testing.assert_allclose(y, slot.y, atol=1e-8)


def test_scts_multiuser_replay_oracle_matches_slot_state():
    # each user's (B, y) is the replay of that user's own updates from lam * I
    spec = EnvSpec(kind="linear", n_arms=3, dim=4, horizon=150,
                   mu=np.linspace(-1.0, 1.0, 4), n_users=3)
    env = make_env(spec, seed=5)
    agent = SctsAgent(3, 4, AgentConfig(algorithm="scts", lam=0.4), seed=5, n_users=3)
    with recorded_updates() as calls:
        tr = play(env, agent, 150)
    assert len(calls) == 150
    for j, slot in enumerate(agent.slots):
        own = [u for b, u in calls if b is slot.B]
        assert len(own) == tr.users.count(j) == 50
        b, y = replay_information(own, 4, b0=0.4 * np.eye(4))
        np.testing.assert_allclose(b, slot.B, atol=1e-8)
        np.testing.assert_allclose(y, slot.y, atol=1e-8)
        np.testing.assert_allclose(slot.mu_bar, np.linalg.solve(b, y), atol=1e-8)


def test_coupled_agents_reject_unknown_users():
    ctx = RoundContext(t=0, contexts=np.zeros((2, 1)), user=5)
    scts = SctsAgent(2, 1, AgentConfig(algorithm="scts"), seed=0, n_users=2)
    sacts = SactsAgent(2, 1, AgentConfig(algorithm="sacts"), seed=0, n_users=2)
    from stabletrade.errors import ParamError
    with pytest.raises(ParamError):
        scts.step(ctx, ScriptedEnv([0.0]))
    with pytest.raises(ParamError):
        sacts.step(ctx, ScriptedEnv([0.0]))
    # a single slot serves every round, whatever its user
    one = SctsAgent(2, 1, AgentConfig(algorithm="scts"), seed=0, n_users=1)
    ctx = RoundContext(t=0, contexts=np.array([[1.0], [0.0]]), user=3)
    assert one.step(ctx, ScriptedEnv([2.0]))[1] == 2.0
    assert one.slots[0].B[0, 0] > 1.0


def test_sacts_keeps_one_slot_per_user():
    spec = EnvSpec(kind="plain", n_arms=2, horizon=100,
                   arm_means=[0.0, 1.0], n_users=2)
    env = make_env(spec, seed=3)
    agent = SactsAgent(2, 1, AgentConfig(algorithm="sacts", lam=0.2), seed=3, n_users=2)
    tr = play(env, agent, 100)
    assert set(tr.users) == {0, 1}
    for slot in agent.slots:
        assert sum(len(loc) for loc in slot.arms) == 50


# ---------------------------------------------------------------------------
# episodic control


def test_mdp_acts_point_q_exact_after_coverage():
    spec = EnvSpec(kind="adversarial_mdp", mdp=TOY, noise=None)
    env = make_env(spec, seed=0)
    agent = MdpActsAgent(2, 2, 2, AgentConfig(algorithm="mdp_acts"), seed=0)
    for _ in range(60):
        agent.run_episode(env)
    assert (agent.visits > 0).all()
    np.testing.assert_allclose(agent.point_q, true_q(TOY), atol=1e-12)
    np.testing.assert_array_equal(agent.known_next, TOY.transitions)


def test_mdp_acts_recovers_the_toy_policy():
    q = true_q(TOY)
    for seed in [1, 2]:
        spec = EnvSpec(kind="adversarial_mdp", mdp=TOY, noise=NOISE, adversary="greedy")
        env = make_env(spec, seed=seed)
        agent = MdpActsAgent(2, 2, 2, AgentConfig(algorithm="mdp_acts"), seed=seed)
        for _ in range(500):
            agent.run_episode(env)
        np.testing.assert_array_equal(agent.greedy_policy(), q.argmax(axis=2))


def test_mdp_acts_episode_regret_shrinks():
    spec = EnvSpec(kind="adversarial_mdp", mdp=TOY, noise=NOISE)
    env = make_env(spec, seed=5)
    agent = MdpActsAgent(2, 2, 2, AgentConfig(algorithm="mdp_acts"), seed=5)
    regs = [agent.run_episode(env)[1] for _ in range(400)]
    assert np.mean(regs[-100:]) < 0.5 * np.mean(regs[:100]) + 1e-9


def test_mdp_acts_horizon_one_reduces_to_arm_selection():
    tables = MdpTables(
        n_states=1, n_actions=2, horizon=1,
        transitions=np.array([[0, 0]]),
        reward_means=np.array([[0.0, 1.0]]),
        start_states=[0],
    )
    spec = EnvSpec(kind="adversarial_mdp", mdp=tables, noise=None)
    env = make_env(spec, seed=0)
    agent = MdpActsAgent(1, 2, 1, AgentConfig(algorithm="mdp_acts", warmup=3), seed=0)
    actions = []
    for _ in range(30):
        trace, _ = agent.run_episode(env)
        actions.extend(trace.actions)
    # after the coverage sweep the sampled means decide alone, no continuation
    assert all(a == 1 for a in actions[10:])
    np.testing.assert_allclose(agent.point_q[0][0], [0.0, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# plain arms


def test_mh_acceptance_rate_is_interior():
    rng = np.random.default_rng(3)
    from stabletrade.stable_core import sample
    rewards = sample(StableParams(1.8, 0.0, 1.0, 1.0), 50, rng)
    belief = ArmBelief(1.8, 0.0, 1.0, prior_mu=0.0, prior_var=4.0)
    path = mh_location_kernel(belief, rewards, 0.0, 3000, 0.3, rng)
    moves = np.mean(path[1:] != path[:-1])
    assert 0.0 < moves < 1.0


def test_plain_ats_always_picks_a_dominant_arm():
    spec = EnvSpec(kind="plain", n_arms=2, horizon=80,
                   arm_means=[0.0, 100.0],
                   noise=StableParams(2.0, 0.0, 1e-3, 0.0))
    env = make_env(spec, seed=0)
    agent = PlainAtsAgent(2, AgentConfig(algorithm="plain_ats"), seed=0)
    tr = play(env, agent, 80)
    # round-robin warm-up first, then the separated posteriors leave no doubt
    assert all(a == 1 for a in tr.arms[6:])


def test_plain_ats_symmetric_arms_split_evenly():
    rng = np.random.default_rng(21)
    from stabletrade.stable_core import sample
    hist = list(sample(StableParams(1.8, 0.0, 1.0, 0.0), 60, rng))
    agent = PlainAtsAgent(2, AgentConfig(algorithm="plain_ats"), seed=21)
    slot = agent.slots[0]
    for loc in slot.arms:
        for r in hist:
            loc.append(r)
    agent._init_slot(slot)
    ctx, env = RoundContext(t=0, contexts=np.ones((2, 1))), ScriptedEnv([0.0])
    picks = 0
    n = 10000
    for _ in range(n):
        agent._mh_sweep(slot)
        picks += int(agent._round(slot, ctx, env)[0] == 0)
    assert abs(picks / n - 0.5) < 0.05


def test_plain_ats_does_no_linear_work_after_warmup(monkeypatch):
    # its pick reads the drawn locations alone, so no round weights the
    # tails, updates (B, y) or solves for mu_bar, and none enters the linear
    # round, where the only mu draw is
    calls = []
    for name in ("tail_weights", "_weighted_update", "_solve_spd"):
        def recording(*args, _name=name, _real=getattr(ts_agents, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(ts_agents, name, recording)
    spec = EnvSpec(kind="plain", n_arms=3, horizon=200, arm_means=[0.0, 0.2, 0.5])
    agent = PlainAtsAgent(3, AgentConfig(algorithm="plain_ats"), seed=2)
    tr = play(make_env(spec, seed=2), agent, 200)
    slot = agent.slots[0]
    assert all(loc.belief is not None for loc in slot.arms)
    assert sum(len(loc) for loc in slot.arms) == len(tr.arms) == 200
    assert calls == []
    np.testing.assert_array_equal(slot.B, np.eye(1))


def test_plain_ats_converges_to_the_best_arm():
    spec = EnvSpec(kind="plain", n_arms=4, horizon=600,
                   arm_means=[0.0, 0.3, 0.6, 1.0])
    env = make_env(spec, seed=1)
    agent = PlainAtsAgent(4, AgentConfig(algorithm="plain_ats"), seed=1)
    tr = play(env, agent, 600)
    late = tr.arms[-200:]
    assert late.count(3) >= 180


def test_plain_ats_beats_uniform_across_seeds():
    # 2-arm heavy-tail instance, full horizon; uniform pseudo-regret needs no pulls
    spec = EnvSpec(kind="plain", n_arms=2, horizon=2000, arm_means=[0.0, 0.5])
    wins = 0
    for seed in range(40):
        env = make_env(spec, seed=seed)
        agent = PlainAtsAgent(2, AgentConfig(algorithm="plain_ats"), seed=seed)
        r_agent = regret(play(env, agent, 2000)).total
        rng = np.random.default_rng(seed + 1000)
        gaps = 0.5 - np.asarray(spec.arm_means)
        r_uniform = float(gaps[rng.integers(2, size=2000)].sum())
        wins += r_agent < r_uniform
    assert wins >= 38


def test_stable_slot_history_grows_past_its_capacity_like_a_list():
    agent = ActsAgent(2, 1, AgentConfig(algorithm="acts"), seed=0)
    slot = agent.slots[0]
    capacity = _Location(np.zeros(1))._rewards.size
    rewards = np.random.default_rng(4).standard_cauchy(3 * capacity + 5).tolist()
    as_list = [[], []]
    for i, r in enumerate(rewards):
        arm = int(i % 5 == 0)
        agent._after_reward(slot, arm, r)
        as_list[arm].append(r)
    assert len(slot.arms[0]) > capacity
    for arm in range(2):
        assert len(slot.arms[arm]) == len(as_list[arm])
        assert slot.arms[arm].rewards.tolist() == as_list[arm]
        assert slot.arms[arm].rewards.dtype == np.float64


def test_make_agent_requires_mdp_tables():
    with pytest.raises(ConfigError):
        make_agent(AgentConfig(algorithm="mdp_acts"), n_arms=2)
