import numpy as np
import pytest

from stabletrade.bandit_envs import (
    EnvSpec,
    MdpTables,
    make_env,
    mdp_episode,
    play,
    regret,
    true_q,
)
from stabletrade.errors import ConfigError, DataError
from stabletrade.stable_core import StableParams

ZERO_NOISE = StableParams(2.0, 0.0, 1e-9, 0.0)


def linear_spec(**kw):
    base = dict(kind="linear", n_arms=5, dim=10, horizon=2000)
    base.update(kw)
    return EnvSpec(**base)


class FixedAgent:
    def __init__(self, arms):
        self.arms = list(arms)
        self.i = 0

    def step(self, ctx, env):
        arm = self.arms[self.i % len(self.arms)]
        self.i += 1
        return arm, env.pull(ctx.t, arm)


class UniformAgent:
    def __init__(self, env, seed):
        self.rng = np.random.default_rng(seed)
        self.n = env.spec.n_arms

    def step(self, ctx, env):
        arm = int(self.rng.integers(self.n))
        return arm, env.pull(ctx.t, arm)


class OracleAgent:
    def __init__(self, env, seed):
        pass

    def step(self, ctx, env):
        arm = int(np.argmax(env.true_means(ctx.t)))
        return arm, env.pull(ctx.t, arm)


# ------------------------------------------------------------------ make_env


def test_spec_validation():
    with pytest.raises(ConfigError):
        EnvSpec(kind="bogus").validate()
    with pytest.raises(ConfigError):
        EnvSpec(kind="plain").validate()               # no arm_means
    with pytest.raises(ConfigError):
        EnvSpec(kind="linear", dim=3, mu=np.ones(4)).validate()
    with pytest.raises(ConfigError):
        EnvSpec(kind="adversarial_mdp").validate()     # no tables


def test_plain_zero_noise_constant_reward():
    spec = EnvSpec(kind="plain", n_arms=1, arm_means=[0.7], noise=ZERO_NOISE)
    env = make_env(spec, 0)
    rewards = [env.pull(t, 0) for t in range(20)]
    assert np.allclose(rewards, 0.7, atol=1e-6)


def test_linear_frozen_context_means():
    # empirical arm means over many pulls against b_i' mu, CLT-band oracle
    spec = linear_spec(noise=StableParams(2.0, 0.0, 0.25, 0.0))
    env = make_env(spec, 3)
    means = env.true_means(0)
    assert means == pytest.approx(env._contexts_at(0) @ env.mu)
    n = 10 ** 4
    draws = np.array([env.pull(0, 2) for _ in range(n)])
    band = 4 * np.sqrt(2) * 0.25 / np.sqrt(n)
    assert abs(draws.mean() - means[2]) < band


def test_noise_is_mean_centered():
    skewed = StableParams(1.7, 0.8, 0.5, 1.0)   # raw mean is far from zero
    spec = EnvSpec(kind="plain", n_arms=1, arm_means=[0.0], noise=skewed)
    env = make_env(spec, 5)
    draws = np.array([env.pull(t, 0) for t in range(200000)])
    assert abs(draws.mean()) < 0.05


def test_contexts_fixed_by_default_and_resample_flag():
    env = make_env(linear_spec(), 11)
    assert np.array_equal(env.context(0).contexts, env.context(500).contexts)
    env2 = make_env(linear_spec(resample_contexts=True), 11)
    assert not np.array_equal(env2.context(0).contexts, env2.context(1).contexts)


def test_context_stream_independent_of_pulls():
    a = make_env(linear_spec(resample_contexts=True), 17)
    b = make_env(linear_spec(resample_contexts=True), 17)
    for t in range(5):
        b.pull(t, t % 5)
    for t in range(8):
        np.testing.assert_array_equal(a.context(t).contexts, b.context(t).contexts)


def test_determinism_same_seed():
    a = make_env(linear_spec(), 23)
    b = make_env(linear_spec(), 23)
    for t in range(50):
        assert a.pull(t, t % 5) == b.pull(t, t % 5)


def test_semiparam_nuisance_bounded_and_arm_independent():
    spec = linear_spec(kind="semiparam", noise=ZERO_NOISE, v_max=1.0, v_step=0.1)
    env = make_env(spec, 9)
    base = env._contexts_at(0) @ env.mu
    for t in range(300):
        m = env.true_means(t)
        v = m - base
        assert np.ptp(v) < 1e-12               # same shift on every arm
        assert abs(v[0]) <= 1.0 + 1e-12
    # the walk moves by at most v_step per round
    vs = [env._v_at(t) for t in range(300)]
    assert np.max(np.abs(np.diff(vs))) <= 0.1 + 1e-12
    assert np.std(vs) > 0.0


def test_users_round_robin():
    spec = linear_spec(n_users=3)
    env = make_env(spec, 2)
    assert [env.context(t).user for t in range(6)] == [0, 1, 2, 0, 1, 2]


# -------------------------------------------------------------------- regret


def test_regret_alternating_two_arms():
    spec = EnvSpec(kind="plain", n_arms=2, arm_means=[1.0, 0.5], noise=ZERO_NOISE)
    env = make_env(spec, 0)
    trace = play(env, FixedAgent([0, 1]), 100)
    res = regret(trace)
    assert res.total == pytest.approx(25.0)
    assert res.prefix.shape == (100,)
    assert np.all(np.diff(res.prefix) >= -1e-12)


def test_regret_uniform_matches_expectation():
    # oracle: sum_t (mu*_t - mean_i mu_i,t), aggregated over 50 seeds
    realized, expected = [], []
    for seed in range(50):
        env = make_env(linear_spec(horizon=1000), seed)
        trace = play(env, UniformAgent(env, 10_000 + seed), 1000)
        realized.append(regret(trace).total)
        m = env.true_means(0)
        expected.append(1000 * (m.max() - m.mean()))
    assert np.mean(realized) == pytest.approx(np.mean(expected), rel=0.05)


def test_regret_shift_invariance():
    # adding a constant to every arm mean leaves any fixed sequence's regret alone
    arms = [0, 1, 1, 0, 1] * 20
    totals = []
    for shift in (0.0, 5.0, -3.25):
        spec = EnvSpec(
            kind="plain", n_arms=2, arm_means=[0.3 + shift, 0.9 + shift], noise=ZERO_NOISE
        )
        trace = play(make_env(spec, 1), FixedAgent(arms), 100)
        totals.append(regret(trace).total)
    assert totals[0] == pytest.approx(totals[1], abs=1e-9)
    assert totals[0] == pytest.approx(totals[2], abs=1e-9)


def per_seed_regret(spec_of, agent_cls, seeds, rounds):
    """Total regret per seed on an environment drawn from that seed, the loop
    the bayes-regret kind runs."""
    totals = []
    for seed in seeds:
        env = make_env(spec_of(seed), seed)
        totals.append(regret(play(env, agent_cls(env, seed), rounds)).total)
    return np.array(totals)


def test_bayes_regret_oracle_agent_zero():
    spec = linear_spec(horizon=200, noise=ZERO_NOISE)
    totals = per_seed_regret(lambda seed: spec, OracleAgent, range(10), 200)
    assert np.mean(totals) == pytest.approx(0.0, abs=1e-9)


def test_bayes_regret_uniform_on_uniform_prior():
    # two arms with means drawn U[0,1]: E regret of uniform play = T E|gap| / 2 = T/6
    def spec_of(seed):
        r = np.random.default_rng(seed + 77)
        return EnvSpec(
            kind="plain", n_arms=2, arm_means=list(r.uniform(0, 1, 2)), noise=ZERO_NOISE
        )

    rounds = 300
    totals = per_seed_regret(spec_of, UniformAgent, range(5, 305), rounds)
    assert np.mean(totals) == pytest.approx(rounds / 6.0, rel=0.10)
    assert np.std(totals) > 0.0


# ----------------------------------------------------------------------- MDP


def toy_tables():
    # 2 states, 2 actions, H=2; action 1 from state 0 looks worse now, pays later
    return MdpTables(
        n_states=2,
        n_actions=2,
        horizon=2,
        transitions=np.array([[0, 1], [0, 1]]),
        reward_means=np.array([[0.3, 0.1], [0.0, 1.0]]),
        start_states=[0],
    )


def brute_force_q(tables):
    """Enumerate every action sequence; independent of the recursion."""
    h_, s_, a_ = tables.horizon, tables.n_states, tables.n_actions
    q = np.zeros((h_, s_, a_))
    for h in range(h_):
        for s in range(s_):
            for a in range(a_):
                best = -np.inf
                seqs = np.array(np.meshgrid(*[range(a_)] * (h_ - h - 1))).reshape(
                    h_ - h - 1, -1
                ).T if h_ - h - 1 > 0 else [[]]
                for seq in seqs:
                    cur, tot = s, 0.0
                    for step, act in enumerate([a, *seq]):
                        tot += tables.reward_means[cur, act]
                        cur = int(tables.transitions[cur, act])
                    best = max(best, tot)
                q[h, s, a] = best
    return q


def test_true_q_matches_enumeration():
    tables = toy_tables()
    np.testing.assert_allclose(true_q(tables), brute_force_q(tables), atol=1e-12)


def test_true_q_random_tables_match_enumeration():
    rng = np.random.default_rng(4)
    tables = MdpTables(
        n_states=3,
        n_actions=2,
        horizon=3,
        transitions=rng.integers(0, 3, size=(3, 2)),
        reward_means=rng.normal(size=(3, 2)),
        start_states=[0, 1, 2],
    )
    np.testing.assert_allclose(true_q(tables), brute_force_q(tables), atol=1e-12)


def test_mdp_episode_regret():
    spec = EnvSpec(kind="adversarial_mdp", mdp=toy_tables(), noise=None)
    env = make_env(spec, 0)
    q = true_q(toy_tables())
    optimal = lambda h, s: int(np.argmax(q[h][s]))
    trace, reg = mdp_episode(env, optimal)
    assert reg == pytest.approx(0.0, abs=1e-12)
    assert trace.actions == [1, 1]              # delayed-payoff route
    # the myopic policy forfeits exactly the known gap
    myopic = lambda h, s: int(np.argmax(toy_tables().reward_means[s]))
    _, reg2 = mdp_episode(env, myopic)
    assert reg2 == pytest.approx(1.1 - 0.6, abs=1e-12)


def test_mdp_greedy_adversary():
    tables = MdpTables(
        n_states=2,
        n_actions=1,
        horizon=1,
        transitions=np.array([[0], [1]]),
        reward_means=np.array([[1.0], [0.2]]),
        start_states=[0, 1],
    )
    spec = EnvSpec(kind="adversarial_mdp", mdp=tables, noise=None, adversary="greedy")
    env = make_env(spec, 0)
    picks = [env.start_state(values=lambda s: tables.reward_means[s, 0]) for _ in range(4)]
    assert picks == [1, 1, 1, 1]                # always the low-value start
    env2 = make_env(EnvSpec(kind="adversarial_mdp", mdp=tables, noise=None), 0)
    assert [env2.start_state() for _ in range(4)] == [0, 1, 0, 1]


def test_mdp_tables_validation():
    raw = dict(
        n_states=2,
        n_actions=1,
        horizon=1,
        transitions=[[5], [0]],
        rewards=[[0.0], [0.0]],
        start_states=[0],
    )
    with pytest.raises(DataError, match="state 0"):
        MdpTables.from_dict(raw)
    raw["transitions"] = [[1], [0]]
    tables = MdpTables.from_dict(raw)
    assert tables.n_states == 2
    assert tables.transitions.dtype.kind == "i"
    assert tables.reward_means.dtype == np.float64
    with pytest.raises(ConfigError, match="exactly the keys"):
        MdpTables.from_dict({k: v for k, v in raw.items() if k != "horizon"})
    with pytest.raises(DataError, match="mdp.start_states"):
        MdpTables.from_dict({**raw, "start_states": 0})
