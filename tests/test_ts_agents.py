"""Agent-family tests: hand-computed updates, replay oracles, chain
diagnostics, degeneracy traces and persistence."""

import json

import numpy as np
import pytest

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
from stabletrade.stable_core import PdfTable, StableParams, _tan_half, sample, tail_prob
from stabletrade.ts_agents import (
    ActsAgent,
    AgentConfig,
    ArmBelief,
    CtsAgent,
    MdpActsAgent,
    PlainAtsAgent,
    SactsAgent,
    SctsAgent,
    _moment_beliefs,
    _pi_estimate,
    _RewardHistory,
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


# ---------------------------------------------------------------------------
# config


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ConfigError):
        AgentConfig(algorithm="uct").validate()


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        AgentConfig.from_dict({"algorithm": "cts", "explore": 1.0})


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
    pi = _pi_estimate(thetas, center, np.eye(2), 0.0, 100, np.random.default_rng(0))
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
    pi = _pi_estimate(thetas, center, 100.0 * np.eye(2), 0.3, 300, np.random.default_rng(1))
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
    np.testing.assert_allclose(agent.B, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(agent.y, np.zeros(2), atol=1e-12)


def test_cts_replay_oracle_matches_incremental_state():
    spec = EnvSpec(kind="linear", n_arms=4, dim=6, horizon=80,
                   mu=np.linspace(-1, 1, 6))
    env = make_env(spec, seed=2)
    agent = CtsAgent(4, 6, AgentConfig(algorithm="cts"), seed=2)
    play(env, agent, 80)
    b, y = replay_information(agent.history, 6)
    np.testing.assert_allclose(b, agent.B, atol=1e-10)
    np.testing.assert_allclose(y, agent.y, atol=1e-10)


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


def test_tail_weights_match_quadrature():
    beliefs = [ArmBelief(1.8, 0.3, 1.0, 0.0, 1.0), ArmBelief(1.6, -0.2, 0.5, 0.0, 1.0)]
    deltas = np.array([0.4, 1.1])
    cutoff = 0.9
    w = tail_weights(beliefs, deltas, cutoff)
    raw = []
    for b, d in zip(beliefs, deltas):
        params = StableParams(b.alpha, b.beta, b.sigma, d)
        raw.append(tail_prob(params, cutoff))
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
        out[i] = float(np.sum(belief.table.logpdf(rewards, d - shift)))
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
    assert slot.ready
    assert all(b is not None for b in slot.beliefs)


def test_acts_replay_oracle_matches_incremental_state():
    spec = EnvSpec(kind="plain", n_arms=3, horizon=120,
                   arm_means=[0.0, 0.5, 1.0])
    env = make_env(spec, seed=6)
    agent = ActsAgent(3, 1, AgentConfig(algorithm="acts"), seed=6)
    play(env, agent, 120)
    slot = agent.slots[0]
    b, y = replay_information(agent.history, 1)
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
    favorite = int(np.argmax(slot.pulls))
    assert slot.pulls[favorite] >= 50
    # the moment fallback pins alpha at 1.8 exactly; a refit moves it
    assert slot.beliefs[favorite].alpha != 1.8


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
    np.testing.assert_allclose(c1.B, c2.B[0], atol=0)
    np.testing.assert_allclose(c1.y, c2.y[0], atol=0)


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
    aff = np.array([[1.0, 0.6], [0.6, 1.0]])
    spec = EnvSpec(kind="plain", n_arms=2, horizon=160,
                   arm_means=[0.0, 1.0], n_users=2)
    env = make_env(spec, seed=10)
    agent = SactsAgent(2, 1, AgentConfig(algorithm="sacts", lam=0.3), seed=10,
                       n_users=2, affinity=aff)
    play(env, agent, 160)
    for j in range(2):
        b, y = replay_information(agent.history, 1, user=j, b0=0.3 * np.eye(1))
        np.testing.assert_allclose(b, agent.slots[j].B, atol=1e-8)
        np.testing.assert_allclose(y, agent.slots[j].y, atol=1e-8)


def test_coupled_agents_reject_unknown_users():
    ctx = RoundContext(t=0, contexts=np.zeros((2, 1)), user=5)
    scts = SctsAgent(2, 1, AgentConfig(algorithm="scts"), seed=0, n_users=2)
    sacts = SactsAgent(2, 1, AgentConfig(algorithm="sacts"), seed=0, n_users=2)
    from stabletrade.errors import ParamError
    with pytest.raises(ParamError):
        scts.step(ctx, ScriptedEnv([0.0]))
    with pytest.raises(ParamError):
        sacts.step(ctx, ScriptedEnv([0.0]))


def _check_coupled_estimate(cls, algorithm, mu_bars, bs, estimate):
    spec = EnvSpec(kind="linear", n_arms=3, dim=4, horizon=90,
                   mu=np.linspace(-1.0, 1.0, 4), n_users=3)
    env = make_env(spec, seed=5)
    aff = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.0]])
    agent = cls(3, 4, AgentConfig(algorithm=algorithm, lam=0.4), seed=5,
                n_users=3, affinity=aff)
    play(env, agent, 90)
    lam = 0.4
    mu_bar, b = mu_bars(agent), bs(agent)
    for j in range(3):
        coupling = sum(
            lam * aff[j, k] * mu_bar[k] for k in range(3) if k != j
        )
        center_expect = mu_bar[j] - np.linalg.solve(b[j], coupling)
        gamma_expect = b[j] + sum(
            (lam * aff[j, k]) ** 2 * np.linalg.inv(b[k])
            for k in range(3) if k != j
        )
        center, gamma = estimate(agent, j)
        np.testing.assert_allclose(center, center_expect, atol=1e-10)
        np.testing.assert_allclose(gamma, gamma_expect, atol=1e-10)


def test_scts_coupled_estimate_matches_hand_formula():
    _check_coupled_estimate(SctsAgent, "scts", lambda a: a.mu_bar, lambda a: a.B,
                            lambda a, j: a.local_estimate(j))


def test_sacts_coupled_estimate_matches_hand_formula():
    _check_coupled_estimate(SactsAgent, "sacts",
                            lambda a: [slot.mu_bar for slot in a.slots],
                            lambda a: [slot.B for slot in a.slots],
                            lambda a, j: a._estimate(j))


def test_sacts_keeps_one_slot_per_user():
    spec = EnvSpec(kind="plain", n_arms=2, horizon=100,
                   arm_means=[0.0, 1.0], n_users=2)
    env = make_env(spec, seed=3)
    agent = SactsAgent(2, 1, AgentConfig(algorithm="sacts", lam=0.2), seed=3, n_users=2)
    tr = play(env, agent, 100)
    assert set(tr.users) == {0, 1}
    for slot in agent.slots:
        assert slot.visits == 50


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
    slot.rewards = [list(hist), list(hist)]
    slot.pulls = np.array([60, 60])
    slot.visits = 120
    agent._init_slot(slot)
    picks = 0
    n = 10000
    for _ in range(n):
        agent._mh_sweep(slot)
        picks += int(np.argmax(agent._scores(slot, None)) == 0)
    assert abs(picks / n - 0.5) < 0.05


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


# ---------------------------------------------------------------------------
# persistence


def test_acts_snapshot_round_trip_continues_identically():
    spec = EnvSpec(kind="plain", n_arms=3, horizon=200,
                   arm_means=[0.0, 0.5, 1.0])
    env = make_env(spec, seed=8)
    agent = ActsAgent(3, 1, AgentConfig(algorithm="acts"), seed=8)
    play(env, agent, 60)
    snap = json.loads(json.dumps(agent.snapshot()))
    twin = ActsAgent.restore(snap)
    # drive both forward on identical environments
    e1, e2 = make_env(spec, seed=8), make_env(spec, seed=8)
    for t in range(60):
        e1.pull(t, 0)
        e2.pull(t, 0)
    arms1, arms2 = [], []
    for t in range(60, 110):
        ctx = e1.context(t)
        a1, _ = agent.step(ctx, e1)
        a2, _ = twin.step(e2.context(t), e2)
        arms1.append(a1)
        arms2.append(a2)
    assert arms1 == arms2
    # run on until a reward history outgrows its first buffer, then
    # round-trip the twin again and keep both going
    for t in range(110, 170):
        agent.step(e1.context(t), e1)
        twin.step(e2.context(t), e2)
    assert max(len(r) for r in twin.slots[0].rewards) > _RewardHistory()._buf.size
    snap = json.loads(json.dumps(twin.snapshot()))
    assert snap == json.loads(json.dumps(agent.snapshot()))
    twin = ActsAgent.restore(snap)
    for t in range(170, 200):
        a1, _ = agent.step(e1.context(t), e1)
        a2, _ = twin.step(e2.context(t), e2)
        assert a1 == a2
    assert twin.snapshot() == agent.snapshot()


def test_stable_slot_history_grows_past_its_capacity_like_a_list():
    agent = ActsAgent(2, 1, AgentConfig(algorithm="acts"), seed=0)
    slot = agent.slots[0]
    capacity = _RewardHistory()._buf.size
    rewards = np.random.default_rng(4).standard_cauchy(3 * capacity + 5).tolist()
    as_list = [[], []]
    for i, r in enumerate(rewards):
        arm = int(i % 5 == 0)
        agent._after_reward(slot, arm, r)
        as_list[arm].append(r)
    assert len(slot.rewards[0]) > capacity
    for arm in range(2):
        assert len(slot.rewards[arm]) == len(as_list[arm])
        assert slot.rewards[arm].values.tolist() == as_list[arm]
        assert slot.rewards[arm].values.dtype == np.float64
    # assigning plain lists converts them, as the snapshot restore does
    slot.rewards = as_list
    assert [r.values.tolist() for r in slot.rewards] == as_list


def test_cts_snapshot_survives_json():
    agent = CtsAgent(3, 4, AgentConfig(algorithm="cts"), seed=1)
    spec = EnvSpec(kind="linear", n_arms=3, dim=4, horizon=50,
                   mu=np.linspace(0, 1, 4))
    env = make_env(spec, seed=1)
    play(env, agent, 50)
    snap = json.loads(json.dumps(agent.snapshot()))
    twin = CtsAgent.restore(snap)
    np.testing.assert_allclose(twin.B, agent.B)
    np.testing.assert_allclose(twin.y, agent.y)
    assert twin.rng.bit_generator.state == agent.rng.bit_generator.state


def test_make_agent_requires_mdp_tables():
    with pytest.raises(ConfigError):
        make_agent(AgentConfig(algorithm="mdp_acts"), n_arms=2)
