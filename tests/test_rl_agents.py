import numpy as np
import pytest

from stabletrade.errors import ConfigError, NumericError, ParamError
from stabletrade.market_sim import CppiConfig, TradingEnv, run_policy, synth_market
from stabletrade.rl_agents import (
    BacktestConfig,
    DdpgAgent,
    Batch,
    DiscreteTradingEnv,
    ReplayBuffer,
    TOURNAMENT_AGENTS,
    TournamentResult,
    TrainConfig,
    VectorMarketEnv,
    _candidate_set,
    _median,
    actor_loss_grads,
    actor_update,
    alternating_series,
    backtest,
    bandit_trade,
    cppi_margin_loss,
    critic_loss,
    critic_update,
    ddpg_update,
    dqn_lite,
    format_table2,
    format_table3,
    perfect_foresight_curve,
    run_trader,
    sarsa,
    tabular_q,
    tournament,
    train,
    up_run,
)
from stabletrade.tinynet import Mlp, clip_global_norm, opt_step


def _zero(net):
    for p in net.params():
        p[...] = 0.0
    return net


def _tiny_agent(gamma=0.5, **kw):
    cfg = TrainConfig(hidden=(), gamma=gamma, **kw)
    agent = DdpgAgent(1, 1, config=cfg, seed=0)
    for net in (agent.actor, agent.critic, agent.t_actor, agent.t_critic):
        _zero(net)
    return agent


def _exp(s, a, r, s2, done=False, a_exp=None):
    return (np.atleast_1d(np.asarray(s, float)),
            np.atleast_1d(np.asarray(a, float)),
            float(r),
            np.atleast_1d(np.asarray(s2, float)),
            done,
            None if a_exp is None else np.atleast_1d(np.asarray(a_exp, float)))


def _batch(*exps):
    """The transitions as one minibatch, rows in the order given."""
    s, a, r, s2, done, ae = zip(*exps)
    return Batch(np.stack(s), np.stack(a), np.array(r, dtype=float), np.stack(s2),
                 np.array(done, dtype=float),
                 None if any(e is None for e in ae) else np.stack(ae))


# ---------------------------------------------------------------------------
# replay buffer


def test_buffer_ring_capacity():
    buf = ReplayBuffer(5)
    for i in range(12):
        buf.add(*_exp(i, 0, 0, 0))
    assert len(buf) == 5
    kept = sorted(buf.sample(5, np.random.default_rng(0)).s[:, 0])
    assert kept == [7.0, 8.0, 9.0, 10.0, 11.0]


def test_buffer_sample_distinct():
    buf = ReplayBuffer(50)
    for i in range(50):
        buf.add(*_exp(i, 0, 0, 0))
    rng = np.random.default_rng(0)
    batch = buf.sample(20, rng)
    ids = set(batch.s[:, 0])
    assert len(ids) == 20


def test_buffer_sample_too_large():
    buf = ReplayBuffer(10)
    buf.add(*_exp(0, 0, 0, 0))
    with pytest.raises(ParamError):
        buf.sample(2, np.random.default_rng(0))


class _ListReplay:
    """The list-of-transitions ring buffer the column arrays replaced, with
    its per-field stacking; the reference for the array-backed buffer."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = []
        self.head = 0

    def add(self, s, a, r, s_next, done, a_exp=None):
        exp = (s, a, r, s_next, done, a_exp)
        if len(self.data) < self.capacity:
            self.data.append(exp)
        else:
            self.data[self.head] = exp
            self.head = (self.head + 1) % self.capacity

    def sample(self, n, rng):
        idx = rng.choice(len(self.data), size=n, replace=False)
        return _batch(*[self.data[i] for i in idx])


@pytest.mark.parametrize("capacity, adds, expert", [
    (37, 100, True), (37, 100, False), (64, 200, True), (100_000, 300, True),
    (5, 12, False)])
def test_buffer_matches_list_reference_past_wraparound(capacity, adds, expert):
    data = np.random.default_rng(capacity + adds)
    buf, ref = ReplayBuffer(capacity), _ListReplay(capacity)
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    for k in range(adds):
        exp = (data.normal(size=5), np.clip(data.normal(size=2), -1, 1),
               data.normal(), data.normal(size=5), bool(k % 7 == 6),
               data.uniform(-1, 1, size=2) if expert else None)
        buf.add(*exp)
        ref.add(*exp)
        n = min(len(ref.data), 4)
        got, want = buf.sample(n, rng), ref.sample(n, ref_rng)
        assert len(buf) == len(ref.data)
        for g, w in zip(got, want):
            assert (g is None and w is None) or (g.dtype == w.dtype and np.array_equal(g, w))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_buffer_keeps_integer_states_and_actions():
    buf, ref = ReplayBuffer(50), _ListReplay(50)
    for k in range(80):
        buf.add(k % 9, k % 3, 0.5 * k, (k + 1) % 9, k % 10 == 9)
        ref.add(k % 9, k % 3, 0.5 * k, (k + 1) % 9, k % 10 == 9)
    got = buf.sample(32, np.random.default_rng(2))
    want = ref.sample(32, np.random.default_rng(2))
    assert got.s.dtype.kind == got.a.dtype.kind == got.s_next.dtype.kind == "i"
    assert got.r.dtype == got.done.dtype == np.float64
    for g, w in zip(got[:5], want[:5]):
        assert np.array_equal(g, w)
    assert got.a_exp is None


@pytest.mark.parametrize("k", [1, 10, 63, 64, 65, 129, 1000, 5000])
def test_buffer_storage_grows_by_doubling_not_to_capacity(k):
    buf = ReplayBuffer(100_000)
    for i in range(k):
        buf.add(np.full(15, float(i)), np.zeros(2), 0.0, np.zeros(15), False,
                a_exp=np.zeros(2))
    for col in buf._cols:
        assert k <= len(col) < max(2 * k, 65)


def test_buffer_rejects_mixed_expert_actions():
    buf = ReplayBuffer(10)
    buf.add(*_exp(0, 0, 0, 0, a_exp=0.5))
    with pytest.raises(ParamError, match="expert actions"):
        buf.add(*_exp(1, 0, 0, 0))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(gamma=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(tau=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"gamme": 0.9})
    cfg = TrainConfig.from_dict({"gamma": 0.9, "hidden": [8, 8]})
    assert cfg.hidden == (8, 8)


# ---------------------------------------------------------------------------
# critic loss


def test_critic_loss_zero_when_q_matches_reward():
    agent = _tiny_agent(gamma=0.0)
    agent.critic.biases[-1][0] = 0.7
    batch = _batch(_exp(1.0, 0.3, 0.7, 2.0), _exp(-1.0, 0.1, 0.7, 0.0))
    loss, _ = critic_loss(agent, batch)
    assert loss == pytest.approx(0.0, abs=1e-15)


def test_critic_loss_hand_arithmetic():
    agent = _tiny_agent(gamma=0.5)
    agent.critic.weights[0][:, 0] = [1.0, 2.0]
    agent.t_critic.weights[0][:, 0] = [0.5, 0.5]
    agent.t_critic.biases[0][0] = 0.1
    agent.t_actor.weights[0][0, 0] = 0.3
    batch = _batch(_exp(2.0, 0.5, 1.0, 1.0))
    loss, _ = critic_loss(agent, batch)
    a2 = np.tanh(0.3)
    y = 1.0 + 0.5 * (0.5 * 1.0 + 0.5 * a2 + 0.1)
    assert loss == pytest.approx((3.0 - y) ** 2, abs=1e-12)


def test_critic_loss_terminal_drops_bootstrap():
    agent = _tiny_agent(gamma=0.5)
    agent.critic.weights[0][:, 0] = [1.0, 2.0]
    agent.t_critic.biases[0][0] = 99.0
    batch = _batch(_exp(2.0, 0.5, 1.0, 1.0, done=True))
    loss, _ = critic_loss(agent, batch)
    assert loss == pytest.approx((3.0 - 1.0) ** 2, abs=1e-12)


def test_critic_update_reduces_loss():
    rng = np.random.default_rng(3)
    agent = DdpgAgent(2, 1, config=TrainConfig(hidden=(8,)), seed=1)
    batch = _batch(*[_exp(rng.normal(size=2), rng.normal(size=1), rng.normal(),
                          rng.normal(size=2)) for _ in range(16)])
    before, _ = critic_loss(agent, batch)
    for _ in range(50):
        critic_update(agent, batch)
    after, _ = critic_loss(agent, batch)
    assert after < before


def test_critic_divergence_guard():
    agent = _tiny_agent()
    agent.config.divergence_limit = 1e-12
    agent.critic.biases[-1][0] = 1.0
    with pytest.raises(NumericError, match="diverged"):
        critic_loss(agent, _batch(_exp(0.0, 0.0, 0.0, 0.0)))


# ---------------------------------------------------------------------------
# actor update


def test_actor_gradient_zero_when_critic_ignores_action():
    agent = DdpgAgent(2, 1, config=TrainConfig(hidden=()), seed=0)
    _zero(agent.critic)
    agent.critic.weights[0][0, 0] = 1.0   # depends on state only
    before = [p.copy() for p in agent.actor.params()]
    batch = _batch(_exp([0.5, -0.2], [0.1], 0.0, [0.0, 0.0]))
    actor_update(agent, batch)
    for b, p in zip(before, agent.actor.params()):
        assert np.array_equal(b, p)


class _QuadCritic:
    """Stub critic Q(s, a) = -|a - a*|^2 with exact input gradients."""

    def __init__(self, a_star, state_dim):
        self.a_star = np.asarray(a_star, dtype=float)
        self.state_dim = state_dim

    def forward(self, x):
        a = x[:, self.state_dim:]
        q = -np.sum((a - self.a_star) ** 2, axis=1, keepdims=True)
        return q, {"a": a}

    def backward(self, cache, gy, want_gx=False):
        if not want_gx:
            return [], None
        a = cache["a"]
        ga = gy * (-2.0 * (a - self.a_star))
        gx = np.hstack([np.zeros((a.shape[0], self.state_dim)), ga])
        return [], gx


def test_actor_climbs_quadratic_bowl():
    cfg = TrainConfig(hidden=(8,), actor_lr=0.05)
    agent = DdpgAgent(2, 2, config=cfg, seed=4)
    agent.critic = _QuadCritic([0.4, -0.3], state_dim=2)
    batch = _batch(*[_exp([1.0, 0.5], [0.0, 0.0], 0.0, [1.0, 0.5])] * 4)
    for _ in range(200):
        actor_update(agent, batch)
    a = agent.act(np.array([1.0, 0.5]))
    assert np.max(np.abs(a - np.array([0.4, -0.3]))) < 1e-2


def test_actor_gradient_matches_finite_differences():
    agent = DdpgAgent(3, 2, config=TrainConfig(hidden=(4,)), seed=7)
    rng = np.random.default_rng(1)
    states = rng.normal(size=(5, 3))
    loss, grads = actor_loss_grads(agent, states)
    h = 1e-6
    worst = 0.0
    flat_p, flat_g = agent.actor.flat, grads
    for k in range(flat_p.size):
        keep = flat_p[k]
        flat_p[k] = keep + h
        up, _ = actor_loss_grads(agent, states)
        flat_p[k] = keep - h
        dn, _ = actor_loss_grads(agent, states)
        flat_p[k] = keep
        num = (up - dn) / (2 * h)
        worst = max(worst, abs(num - flat_g[k]) / max(abs(num) + abs(flat_g[k]), 1e-8))
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# margin loss


def test_margin_loss_identity_candidates():
    agent = DdpgAgent(1, 2, config=TrainConfig(hidden=(4,)), seed=0)
    s = np.array([[0.3]])
    ae = np.array([[0.2, -0.1]])
    cands = ae[:, None, :]
    value, _ = cppi_margin_loss(agent, s, ae, candidates=cands)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_margin_loss_saturates_for_constant_critic():
    agent = DdpgAgent(1, 2, config=TrainConfig(hidden=()), seed=0)
    _zero(agent.critic)
    agent.critic.biases[-1][0] = 3.0
    s = np.array([[0.3]])
    ae = np.array([[0.0, 0.0]])
    far = np.array([[1.0, 1.0]])
    cands = np.stack([ae, far], axis=1)
    value, _ = cppi_margin_loss(agent, s, ae, candidates=cands)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_margin_loss_hand_arithmetic():
    agent = DdpgAgent(1, 2, config=TrainConfig(hidden=()), seed=0)
    _zero(agent.critic)
    agent.critic.weights[0][:, 0] = [1.0, 2.0, -1.0]
    agent.critic.biases[0][0] = 0.5
    s = np.array([[1.0]])
    ae = np.array([[0.2, 0.1]])
    cands = np.stack([ae, np.array([[0.5, 0.5]]), np.array([[-1.0, 0.3]])], axis=1)

    def q(a):
        return 1.0 + 2.0 * a[0] - a[1] + 0.5

    scores = [q(ae[0]) + 0.0,
              q([0.5, 0.5]) + min(1.0, np.hypot(0.3, 0.4)),
              q([-1.0, 0.3]) + min(1.0, np.hypot(1.2, 0.2))]
    expect = max(scores) - q(ae[0])
    got, _ = cppi_margin_loss(agent, s, ae, candidates=cands)
    assert got == pytest.approx(expect, abs=1e-8)


def test_margin_loss_nonnegative_with_random_candidates():
    agent = DdpgAgent(2, 2, config=TrainConfig(hidden=(4,)), seed=3)
    rng = np.random.default_rng(5)
    s = rng.normal(size=(8, 2))
    ae = np.clip(rng.normal(size=(8, 2)), -1, 1)
    for _ in range(10):
        value, _ = cppi_margin_loss(agent, s, ae, rng=rng)
        assert value >= -1e-12


# The references below are the candidate loop and the three-pass margin loss
# that one perturbation draw and one cached [best; expert] pass replaced; the
# new code must match them bit for bit.


def _ref_candidate_set(agent, states, expert_actions, rng):
    pi, _ = agent.actor.forward(states)
    cands = [pi, expert_actions]
    for _ in range(agent.config.n_candidates):
        perturbed = expert_actions + 0.5 * agent.config.margin_rho \
            * rng.standard_normal(expert_actions.shape)
        cands.append(np.clip(perturbed, -1.0, 1.0))
    return np.stack(cands, axis=1)


def _ref_margin_loss(agent, states, expert_actions, candidates=None, rng=None):
    cfg = agent.config
    n = states.shape[0]
    if candidates is None:
        candidates = _ref_candidate_set(agent, states, expert_actions, rng)
    n_cand = candidates.shape[1]
    flat_s = np.repeat(states, n_cand, axis=0)
    flat_a = candidates.reshape(n * n_cand, -1)
    q_flat, _ = agent.critic.forward(np.hstack([flat_s, flat_a]))
    q = q_flat[:, 0].reshape(n, n_cand)
    dist = np.linalg.norm(candidates - expert_actions[:, None, :], axis=2)
    scores = q + cfg.margin_m * np.minimum(1.0, dist / cfg.margin_rho)
    best = np.argmax(scores, axis=1)
    rows = np.arange(n)
    q_exp, cache_e = agent.critic.forward(np.hstack([states, expert_actions]))
    value = float(np.mean(scores[rows, best] - q_exp[:, 0]))
    _, cache_b = agent.critic.forward(np.hstack([states, candidates[rows, best]]))
    up = np.full((n, 1), 1.0 / n)
    g_best, _ = agent.critic.backward(cache_b, up)
    g_exp, _ = agent.critic.backward(cache_e, -up)
    return value, g_best + g_exp


def _margin_batch(seed, n=64, state_dim=13, action_dim=2):
    """A default-config agent and a batch at the backtest's shapes."""
    agent = DdpgAgent(state_dim, action_dim, seed=seed)
    rng = np.random.default_rng(seed + 100)
    return (agent, rng.normal(size=(n, state_dim)),
            np.clip(rng.normal(scale=0.6, size=(n, action_dim)), -1.0, 1.0))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_candidate_set_matches_per_draw_loop(seed):
    agent, s, ae = _margin_batch(seed)
    got = _candidate_set(agent, agent.actor.predict(s), ae, np.random.default_rng(seed))
    ref = _ref_candidate_set(agent, s, ae, np.random.default_rng(seed))
    assert got.shape == ref.shape == (64, agent.config.n_candidates + 2, 2)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_margin_loss_matches_three_pass_reference(seed):
    agent, s, ae = _margin_batch(seed)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        value, grads = cppi_margin_loss(agent, s, ae, rng=rng)
        ref_value, ref_grads = _ref_margin_loss(agent, s, ae, rng=ref_rng)
        assert value == ref_value
        assert np.array_equal(grads, ref_grads)
    assert rng.random() == ref_rng.random()     # the streams stayed in step
    # explicit candidates without the expert action
    cands = np.random.default_rng(seed + 7).uniform(-1.0, 1.0, size=(64, 5, 2))
    value, grads = cppi_margin_loss(agent, s, ae, candidates=cands)
    ref_value, ref_grads = _ref_margin_loss(agent, s, ae, candidates=cands)
    assert value == ref_value and np.array_equal(grads, ref_grads)


def test_margin_loss_makes_one_cache_free_critic_pass(monkeypatch):
    # the best and expert rows' activations come from the candidate pass;
    # candidates without the expert's action get one more column for it
    agent, s, ae = _margin_batch(0)
    calls = []
    for name in ("forward", "predict"):
        def counted(net, x, _name=name, _orig=getattr(Mlp, name)):
            if net is agent.critic:
                calls.append((_name, np.shape(x)[0]))
            return _orig(net, x)
        monkeypatch.setattr(Mlp, name, counted)
    cppi_margin_loss(agent, s, ae)
    cands = np.random.default_rng(7).uniform(-1.0, 1.0, size=(64, 5, 2))
    cppi_margin_loss(agent, s, ae, candidates=cands)
    assert calls == [("predict", 640), ("predict", 384)]


# The reference below is the update sequence that ddpg_update replaced:
# critic_update (with the margin loss's own actor and critic passes), then
# actor_update, then soft_updates. The new update must match it bit for bit.


def _ref_update(agent, batch, expert):
    cfg = agent.config
    td, grads = critic_loss(agent, batch)
    j_e = 0.0
    if expert:
        j_e, mg = _ref_margin_loss(agent, batch.s, batch.a_exp, rng=agent.rng)
        grads = grads + cfg.lam_e * mg
    clip_global_norm(agent.critic, grads, cfg.grad_clip)
    opt_step(agent.critic, grads, agent.opt_critic, lr=cfg.critic_lr)
    la = actor_update(agent, batch)
    agent.soft_updates()
    return td, j_e, la


def _agent_state(agent):
    nets = (agent.actor, agent.critic, agent.t_actor, agent.t_critic)
    return ([net.flat for net in nets]
            + [opt[key] for opt in (agent.opt_actor, agent.opt_critic)
               for key in ("m", "v")])


@pytest.mark.parametrize("expert", [True, False], ids=["expert", "plain"])
def test_ddpg_update_matches_three_step_reference(expert):
    rng = np.random.default_rng(11)
    buffer = ReplayBuffer(500)
    for _ in range(300):
        buffer.add(rng.normal(size=13), np.clip(rng.normal(size=2), -1.0, 1.0),
                   rng.normal(), rng.normal(size=13), rng.random() < 0.05,
                   a_exp=np.clip(rng.normal(scale=0.6, size=2), -1.0, 1.0))
    agent, ref = DdpgAgent(13, 2, seed=4), DdpgAgent(13, 2, seed=4)
    for _ in range(50):
        got = ddpg_update(agent, buffer.sample(64, agent.rng), expert)
        want = _ref_update(ref, buffer.sample(64, ref.rng), expert)
        assert got == want
    for mine, theirs in zip(_agent_state(agent), _agent_state(ref)):
        assert np.array_equal(mine, theirs)
    assert agent.opt_actor["step"] == ref.opt_actor["step"] == 50
    assert agent.opt_critic["step"] == ref.opt_critic["step"] == 50
    assert agent.rng.random() == ref.rng.random()     # the streams stayed in step


def test_critic_median_matches_numpy_median():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 64, 65):
        for _ in range(20):
            x = np.abs(rng.standard_cauchy(size=n))
            assert _median(x) == float(np.median(x))
        x[rng.integers(n)] = np.nan
        assert np.isnan(_median(x)) and np.isnan(np.median(x))
    x = np.array([1.0, np.inf, np.inf, 2.0])
    assert _median(x) == float(np.median(x))


# ---------------------------------------------------------------------------
# environments


def test_vector_env_initial_features():
    series = synth_market(1, 20, seed=0)
    env = VectorMarketEnv(series, window=3)
    f = env.reset()
    assert f.shape == (5,)
    assert np.allclose(f[:4], 0.0)
    assert f[4] == pytest.approx(1.0)


def test_vector_env_weights_sum_with_cash():
    series = synth_market(2, 20, vol=0.3, seed=1)
    env = VectorMarketEnv(series, window=2)
    f = env.reset()
    while not env.done:
        f, _, _ = env.step(np.array([0.4, 0.2]))
        weights, cash = f[-3:-1], f[-1]
        assert np.sum(weights) + cash == pytest.approx(1.0)
        assert np.all(weights >= -1e-12) and cash >= -1e-12


def test_vector_env_expert_requires_config():
    env = VectorMarketEnv(synth_market(1, 10, seed=0))
    env.reset()
    with pytest.raises(ConfigError):
        env.expert_action()


def test_discrete_env_buy_sell_cycle():
    series = synth_market(1, 10, vol=0.0, seed=0, drift=0.0)
    env = DiscreteTradingEnv(series, initial_cash=100.0, cost_bps=10.0)
    sid = env.reset()
    assert sid == 1 * 3 + 0          # flat trend, all-cash bucket
    sid, _, _ = env.step(2)          # all-in
    st = env.state
    assert st.b == pytest.approx(0.0, abs=1e-9)
    assert st.h[0] > 0.0
    assert sid % 3 == 2              # full-position bucket
    sid, _, _ = env.step(0)          # sell all
    assert env.state.h[0] == 0.0


@pytest.mark.parametrize("make, policy", [
    (lambda s: TradingEnv(s, initial_cash=100.0),
     lambda st: np.array([0.4, -0.3]) * (1.0 if st.t % 3 else -1.0)),
    (lambda s: VectorMarketEnv(s, reward_scale=0.1), lambda f: np.tanh(f[:2] + 0.3)),
    (lambda s: DiscreteTradingEnv(s), lambda sid: sid % 9),
], ids=["TradingEnv", "VectorMarketEnv", "DiscreteTradingEnv"])
def test_run_policy_curve_is_each_reached_total_asset(make, policy):
    series = synth_market(2, 15, vol=0.3, seed=4)
    env = make(series)
    reached = []
    env_step = env.step

    def recording(action):
        out = env_step(action)
        reached.append(env.state.total_asset)
        return out

    env.step = recording
    curve = run_policy(env, policy)
    assert curve.shape == (series.n_days,)
    assert curve[0] == env.initial_cash
    assert list(curve[1:]) == reached
    # a second episode starts a fresh curve; train reads its return from it
    env.reset()
    assert env.curve == [env.initial_cash]
    assert np.array_equal(run_policy(env, policy), curve)


def test_discrete_env_action_bounds():
    env = DiscreteTradingEnv(synth_market(1, 10, seed=0))
    env.reset()
    with pytest.raises(ParamError):
        env.step(3)


def test_alternating_series_shape():
    s = alternating_series(6)
    assert list(s.close[:, 0]) == [10.0, 11.0, 10.0, 11.0, 10.0, 11.0]


def test_perfect_foresight_hand_curve():
    s = alternating_series(5)
    curve = perfect_foresight_curve(s)
    assert np.allclose(curve, [100.0, 110.0, 110.0, 121.0, 121.0])


# ---------------------------------------------------------------------------
# training behavior


def test_train_same_seed_same_curves():
    series = synth_market(1, 30, vol=0.3, seed=2)

    def run():
        env = VectorMarketEnv(series, reward_scale=0.1)
        agent = DdpgAgent(env.state_dim, env.action_dim,
                          config=TrainConfig(warmup_steps=32, lam_e=0.0),
                          seed=11)
        res = train(agent, env, 8)
        return ([log["return"] for log in res.logs],
                run_policy(VectorMarketEnv(series, reward_scale=0.1), agent.act))

    r1, c1 = run()
    r2, c2 = run()
    assert r1 == r2
    assert np.array_equal(c1, c2)


def test_train_log_columns():
    series = synth_market(1, 20, vol=0.2, seed=3)
    env = VectorMarketEnv(series, reward_scale=0.1)
    agent = DdpgAgent(env.state_dim, env.action_dim,
                      config=TrainConfig(warmup_steps=16, lam_e=0.0), seed=0)
    res = train(agent, env, 3)
    assert len(res.logs) == 3
    for row in res.logs:
        assert set(row) == {"episode", "return", "loss_critic", "loss_actor",
                            "j_e"}


def test_train_divergence_aborts_with_context():
    series = synth_market(1, 20, vol=0.2, seed=3)
    env = VectorMarketEnv(series, reward_scale=0.1)
    cfg = TrainConfig(warmup_steps=16, batch=8, lam_e=0.0,
                      divergence_limit=1e-12)
    agent = DdpgAgent(env.state_dim, env.action_dim, config=cfg, seed=0)
    with pytest.raises(NumericError, match="episode"):
        train(agent, env, 3)


def test_ddpg_learns_alternating_toy():
    series = alternating_series(25)
    omn = perfect_foresight_curve(series)
    env = VectorMarketEnv(series, cost_bps=0.0, reward_scale=0.05)
    cfg = TrainConfig(lam_e=0.0, warmup_steps=64, noise_scale=0.3)
    agent = DdpgAgent(env.state_dim, env.action_dim, config=cfg, seed=0)
    train(agent, env, 300)
    curve = run_policy(VectorMarketEnv(series, cost_bps=0.0, reward_scale=0.05), agent.act)
    ratio = (curve[-1] - curve[0]) / (omn[-1] - omn[0])
    assert ratio >= 0.9


def test_ddpg_learns_not_to_trade_flat_market():
    # every trade loses the cost; convergence is seed-dependent, this one lands
    series = synth_market(1, 40, drift=0.0, vol=0.0, seed=0)
    env = VectorMarketEnv(series, cost_bps=25.0, reward_scale=10.0)
    cfg = TrainConfig(lam_e=0.0, warmup_steps=64, noise_scale=0.3,
                      actor_lr=1e-3)
    agent = DdpgAgent(env.state_dim, env.action_dim, config=cfg, seed=0)
    train(agent, env, 300)
    s = env.reset()
    notional = []
    while not env.done:
        a = agent.act(s)
        notional.append(abs(float(a[0])) * env.state.total_asset)
        s, _, _ = env.step(a)
    assert np.mean(notional) < 5.0


def test_supervised_ddpg_stays_near_floor_strategy():
    series = synth_market(2, 120, vol=0.4, seed=5, max_loss=0.2)
    expert = CppiConfig(floor=85.0, multiplier=2.0)

    def make_env():
        return VectorMarketEnv(series, cost_bps=10.0, reward_scale=0.1, expert=expert)

    cfg = TrainConfig(warmup_steps=64, pretrain_steps=200, pretrain_episodes=2)
    agent = DdpgAgent(make_env().state_dim, 2, config=cfg, seed=0)
    res = train(agent, make_env(), 10)
    assert res.pretrained == 200
    curve = run_policy(make_env(), agent.act)
    assert curve.min() >= 85.0 * 0.95


# ---------------------------------------------------------------------------
# discrete baselines


class ChainEnv:
    """Two states; advancing from 0 is free, sitting at 1 pays 1 per step."""

    n_states = 2
    n_actions = 2
    horizon = 6

    def __init__(self):
        self.s = 0
        self.steps = 0

    def reset(self):
        self.s = 0
        self.steps = 0
        return self.s

    def step(self, a):
        self.steps += 1
        if self.s == 0:
            if a == 1:
                self.s = 1
                r = 0.0
            else:
                r = 0.1
        else:
            r = 1.0
        return self.s, r, self.steps >= self.horizon


def _chain_optimal_action(gamma=0.99):
    # finite-horizon DP over the two-state chain
    h = ChainEnv.horizon
    v = np.zeros((h + 1, 2))
    q0 = None
    for t in range(h - 1, -1, -1):
        q_s0 = [0.1 + gamma * v[t + 1][0], 0.0 + gamma * v[t + 1][1]]
        q_s1 = [1.0 + gamma * v[t + 1][1]] * 2
        v[t] = [max(q_s0), max(q_s1)]
        if t == 0:
            q0 = q_s0
    return int(np.argmax(q0))


def test_tabular_q_recovers_chain_optimum():
    res = tabular_q(ChainEnv(), 1000, seed=0)
    assert res.greedy_policy()(0) == _chain_optimal_action()


def test_sarsa_runs_and_learns_chain():
    res = sarsa(ChainEnv(), 1000, seed=0)
    assert res.greedy_policy()(0) == 1


class RiskToyEnv:
    """One state; the risky arm alternates +3/-1 (mean 1), the safe arm pays 0.8."""

    n_states = 1
    n_actions = 2

    def __init__(self):
        self.steps = 0
        self.risky_pulls = 0

    def reset(self):
        self.steps = 0
        return 0

    def step(self, a):
        self.steps += 1
        if a == 1:
            r = 3.0 if self.risky_pulls % 2 == 0 else -1.0
            self.risky_pulls += 1
        else:
            r = 0.8
        return 0, r, self.steps >= 20


def test_q_learning_takes_higher_mean_arm():
    res = tabular_q(RiskToyEnv(), 500, seed=1)
    # value iteration on the means picks the risky arm (1.0 > 0.8)
    assert res.greedy_policy()(0) == 1


def test_tabular_rejects_continuous_env():
    env = VectorMarketEnv(synth_market(1, 10, seed=0))
    with pytest.raises(ConfigError):
        tabular_q(env, 10, seed=0)


def test_dqn_lite_learns_chain():
    res = dqn_lite(ChainEnv(), 150, seed=0)
    assert res.greedy_policy()(0) == 1


class _ScatterOneHot:
    """Stands in for ``np.eye(n)``: indexing it builds the one-hot rows with
    zeros plus a scatter on every call, as dqn_lite once did."""

    def __init__(self, n):
        self.n = n

    def __getitem__(self, idx):
        if np.ndim(idx) == 0:
            return self[[idx]][0]
        x = np.zeros((len(idx), self.n))
        x[np.arange(len(idx)), idx] = 1.0
        return x


def test_dqn_lite_one_hot_rows_from_eye_match_zeros_and_scatter(monkeypatch):
    series = synth_market(1, 40, vol=0.3, seed=5)
    got = dqn_lite(DiscreteTradingEnv(series), 6, seed=3).net
    built = []
    monkeypatch.setattr(np, "eye", lambda n: built.append(n) or _ScatterOneHot(n))
    ref = dqn_lite(DiscreteTradingEnv(series), 6, seed=3).net
    assert built == [9]
    assert np.array_equal(got.flat, ref.flat)


def test_up_single_stock_is_buy_and_hold():
    series = synth_market(1, 40, vol=0.3, seed=4)
    curve = up_run(series, initial_cash=100.0)
    hold = 100.0 * series.close[:, 0] / series.close[0, 0]
    assert np.allclose(curve, hold, rtol=1e-12)


def test_up_two_stocks_grid_average():
    close = np.array([[10.0, 10.0], [11.0, 9.0], [9.9, 9.9]])
    series = synth_market(2, 3, seed=0)
    series.close[:] = close
    curve = up_run(series, initial_cash=1.0)
    rel = close[1:] / close[:-1]
    # the 11 two-stock mixes in steps of 1/10
    grid = np.array([[k / 10.0, 1.0 - k / 10.0] for k in range(11)])
    wealth = np.prod(grid @ rel.T, axis=1)
    assert curve[-1] == pytest.approx(float(np.mean(wealth)))


# ---------------------------------------------------------------------------
# bandit traders, tournament, backtest


def test_bandit_trader_curves():
    series = synth_market(1, 80, seed=3)
    for kind in ("cb_ts", "ac_ts"):
        curve = bandit_trade(kind, series, seed=0)
        assert curve.shape == (80,)
        assert np.all(curve > 0)
    with pytest.raises(ConfigError):
        bandit_trade("mystery", series, seed=0)


def _rounds(names, seeds, days, episodes):
    """The win matrix over one tournament round per seed."""
    return TournamentResult.from_returns(
        names, np.column_stack([tournament(names, s, days, episodes) for s in seeds]))


def test_tournament_matrix_properties():
    res = _rounds(["ql", "ac_ts", "cb_ts"], range(1, 5), days=50, episodes=10)
    assert res.wins.shape == (3, 3)
    assert np.allclose(np.diag(res.wins), 50.0)
    for i in range(3):
        for j in range(3):
            assert res.wins[i, j] + res.wins[j, i] == pytest.approx(100.0)


def test_win_matrix_fold_on_hand_made_returns():
    # a beats b in two rounds and ties two; a and c tie every round
    rets = np.array([[0.1, 0.2, 0.0, 0.3],
                     [0.0, 0.1, 0.0, 0.3],
                     [0.1, 0.2, 0.0, 0.3]])
    res = TournamentResult.from_returns(["a", "b", "c"], rets)
    assert res.names == ["a", "b", "c"]
    assert np.array_equal(np.diag(res.wins), [50.0, 50.0, 50.0])
    assert res.wins[0, 1] == 75.0 and res.wins[1, 0] == 25.0
    assert res.wins[0, 2] == 50.0 and res.wins[2, 1] == 75.0
    assert np.array_equal(res.wins + res.wins.T, np.full((3, 3), 100.0))
    # the diagonal's 50 stays out of the average
    assert np.array_equal(res.avg_wins, [62.5, 25.0, 62.5])


def test_tournament_self_play_ties():
    res = _rounds(["ql", "ql"], range(3), days=40, episodes=8)
    assert res.wins[0, 1] == pytest.approx(50.0)


def test_format_table2_layout():
    res = _rounds(list(TOURNAMENT_AGENTS), range(2), days=40, episodes=6)
    text = format_table2(res)
    lines = text.splitlines()
    assert lines[0].split() == ["QL", "DQL", "SARSA", "CB-TS", "AC-TS", "Avg", "Wins"]
    assert len(lines) == 6
    for line in lines[1:]:
        assert ":" in line and line.rstrip().endswith("%")


def test_run_trader_unknown():
    with pytest.raises(ConfigError):
        run_trader("mystery", synth_market(1, 30, seed=0), seed=0, episodes=1)


def test_backtest_table_format():
    series = synth_market(1, 120, drift=0.05, vol=0.3, seed=7)
    cfg = BacktestConfig(episodes=6)
    names = ["up", "ad_ts"]
    text = format_table3(names, backtest(series, names, (0,), cfg))
    lines = text.splitlines()
    assert lines[0].split() == ["AR", "SR", "MaxD"]
    assert lines[1].startswith("UP")
    assert lines[2].startswith("AD-TS")
    assert all(line.rstrip().endswith("%") for line in lines[1:])


def test_backtest_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        BacktestConfig.from_dict({"episodes": 5, "floor": 0.9})
    cfg = BacktestConfig.from_dict({"episodes": 5, "train": {"gamma": 0.9}})
    assert cfg.episodes == 5 and cfg.train.gamma == 0.9


def test_partial_train_table_keeps_the_backtest_training_defaults():
    cfg = BacktestConfig.from_dict({"train": {"batch": 64, "hidden": [8]}})
    t = cfg.train
    assert (t.noise_scale, t.warmup_steps) == (0.2, 64)
    assert (t.pretrain_steps, t.pretrain_episodes) == (300, 3)
    assert t.hidden == (8,)
    assert BacktestConfig().train.hidden == (64, 64)      # the default is untouched


def test_backtest_needs_scorable_test_split():
    series = synth_market(1, 10, seed=0)
    with pytest.raises(ConfigError):
        backtest(series, ["up"], (0,), BacktestConfig(split_ratio=0.99))
