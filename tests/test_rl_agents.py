import copy
from dataclasses import replace

import numpy as np
import pytest

from stabletrade import rl_agents
from stabletrade.bandit_envs import RoundContext
from stabletrade.errors import ConfigError, NumericError, ParamError
from stabletrade.market_sim import (CppiConfig, TradingEnv, metrics, run_policy, split,
                                    synth_market)
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
    actor_loss_grads,
    actor_update,
    alternating_series,
    backtest_curve,
    cppi_margin_loss,
    critic_loss,
    critic_update,
    ddpg_update,
    dqn_lite,
    format_table2,
    format_table3,
    perfect_foresight_curve,
    sarsa,
    tabular_q,
    tournament,
    train,
    up_run,
)
from stabletrade.tinynet import Mlp, adam_init, clip_global_norm, opt_step, soft_update
from stabletrade.ts_agents import AgentConfig, CtsAgent, PlainAtsAgent


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
        TrainConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(tau=0.0)
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
    agent.config = replace(agent.config, divergence_limit=1e-12)
    agent.critic.biases[-1][0] = 1.0
    with pytest.raises(NumericError, match="diverged"):
        critic_loss(agent, _batch(_exp(0.0, 0.0, 0.0, 0.0)))


def test_nan_critic_counts_as_diverged():
    # a NaN median |Q| fails the guard here, not one step later in opt_step
    agent = _tiny_agent()
    agent.critic.biases[-1][0] = np.nan
    with pytest.raises(NumericError, match="critic diverged: median [|]Q[|] nan"):
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

    def backward(self, cache, gy, want_gx=False, want_grads=True):
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


def _pi_expert_agent(hidden):
    """A one-state, two-action agent with no perturbed candidates: the margin
    loss ranks exactly [pi, expert]."""
    return DdpgAgent(1, 2, config=TrainConfig(hidden=hidden, n_candidates=0), seed=0)


def test_margin_loss_identity_candidates():
    agent = _pi_expert_agent((4,))
    s = np.array([[0.3]])
    ae = np.array([[0.2, -0.1]])
    value, _ = cppi_margin_loss(agent, s, ae, ae)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_margin_loss_saturates_for_constant_critic():
    agent = _pi_expert_agent(())
    _zero(agent.critic)
    agent.critic.biases[-1][0] = 3.0
    s = np.array([[0.3]])
    ae = np.array([[0.0, 0.0]])
    far = np.array([[1.0, 1.0]])
    value, _ = cppi_margin_loss(agent, s, ae, far)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_margin_loss_hand_arithmetic():
    agent = _pi_expert_agent(())
    _zero(agent.critic)
    agent.critic.weights[0][:, 0] = [1.0, 2.0, -1.0]
    agent.critic.biases[0][0] = 0.5
    s = np.array([[1.0]])
    ae = np.array([[0.2, 0.1]])

    def q(a):
        return 1.0 + 2.0 * a[0] - a[1] + 0.5

    # one case per actor action, each ranked against the expert's
    for pi, dist in [([0.5, 0.5], np.hypot(0.3, 0.4)), ([-1.0, 0.3], np.hypot(1.2, 0.2))]:
        expect = max(q(pi) + min(1.0, dist), q(ae[0]) + 0.0) - q(ae[0])
        got, _ = cppi_margin_loss(agent, s, ae, np.array([pi]))
        assert got == pytest.approx(expect, abs=1e-8)


def test_margin_loss_nonnegative_with_random_candidates():
    agent = DdpgAgent(2, 2, config=TrainConfig(hidden=(4,)), seed=3)
    rng = np.random.default_rng(5)
    s = rng.normal(size=(8, 2))
    ae = np.clip(rng.normal(size=(8, 2)), -1, 1)
    for _ in range(10):
        pi = np.clip(rng.normal(size=(8, 2)), -1, 1)
        value, _ = cppi_margin_loss(agent, s, ae, pi)
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


def _ref_margin_loss(agent, states, expert_actions, rng):
    cfg = agent.config
    n = states.shape[0]
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
    ref_rng = copy.deepcopy(agent.rng)
    for _ in range(3):
        value, grads = cppi_margin_loss(agent, s, ae, agent.actor.predict(s))
        ref_value, ref_grads = _ref_margin_loss(agent, s, ae, ref_rng)
        assert value == ref_value
        assert np.array_equal(grads, ref_grads)
    assert agent.rng.random() == ref_rng.random()     # the streams stayed in step


def test_margin_loss_makes_one_cache_free_critic_pass(monkeypatch):
    # the best and expert rows' activations come from the candidate pass
    agent, s, ae = _margin_batch(0)
    pi = agent.actor.predict(s)
    calls = []
    for name in ("forward", "predict"):
        def counted(net, x, _name=name, _orig=getattr(Mlp, name)):
            if net is agent.critic:
                calls.append((_name, np.shape(x)[0]))
            return _orig(net, x)
        monkeypatch.setattr(Mlp, name, counted)
    cppi_margin_loss(agent, s, ae, pi)
    assert calls == [("predict", 640)]


# The reference below is the update sequence that ddpg_update replaced:
# the critic step (with the margin loss's own actor and critic passes), then
# the actor step, then soft_updates, each written with fresh arrays and the
# critic's full backward, as before the update buffers. The new update must
# match it bit for bit.


def _ref_critic_loss(agent, batch):
    cfg = agent.config
    s, a, r, s2, done, _ = batch
    a2 = agent.t_actor.predict(s2)
    q2 = agent.t_critic.predict(np.hstack([s2, a2]))
    y = r + cfg.gamma * (1.0 - done) * q2[:, 0]
    q, cache = agent.critic.forward(np.hstack([s, a]))
    resid = q[:, 0] - y
    grads, _ = agent.critic.backward(cache, (2.0 / len(r)) * resid[:, None])
    return float(np.mean(resid**2)), grads


def _ref_actor_loss_grads(agent, states):
    a, cache_a = agent.actor.forward(states)
    q, cache_c = agent.critic.forward(np.hstack([states, a]))
    up = np.full((states.shape[0], 1), -1.0 / states.shape[0])
    _, gx = agent.critic.backward(cache_c, up, want_gx=True)
    grads, _ = agent.actor.backward(cache_a, gx[:, agent.state_dim:])
    return float(-np.mean(q)), grads


def _ref_update(agent, batch, expert):
    cfg = agent.config
    td, grads = _ref_critic_loss(agent, batch)
    j_e = 0.0
    if expert:
        j_e, mg = _ref_margin_loss(agent, batch.s, batch.a_exp, rng=agent.rng)
        grads = grads + cfg.lam_e * mg
    clip_global_norm(agent.critic, grads, cfg.grad_clip)
    opt_step(agent.critic, grads, agent.opt_critic, lr=cfg.critic_lr)
    la, grads = _ref_actor_loss_grads(agent, batch.s)
    clip_global_norm(agent.actor, grads, cfg.grad_clip)
    opt_step(agent.actor, grads, agent.opt_actor, lr=cfg.actor_lr)
    agent.soft_updates()
    return td, j_e, la


def _agent_state(agent):
    nets = (agent.actor, agent.critic, agent.t_actor, agent.t_critic)
    return ([net.flat for net in nets]
            + [opt[key] for opt in (agent.opt_actor, agent.opt_critic)
               for key in ("m", "v")])


def _filled_buffer(seed=11):
    """300 random transitions at the backtest's shapes, with expert actions."""
    rng = np.random.default_rng(seed)
    buffer = ReplayBuffer(500)
    for _ in range(300):
        buffer.add(rng.normal(size=13), np.clip(rng.normal(size=2), -1.0, 1.0),
                   rng.normal(), rng.normal(size=13), rng.random() < 0.05,
                   a_exp=np.clip(rng.normal(scale=0.6, size=2), -1.0, 1.0))
    return buffer


@pytest.mark.parametrize("expert", [True, False], ids=["expert", "plain"])
def test_ddpg_update_matches_three_step_reference(expert):
    buffer = _filled_buffer()
    agent, ref = DdpgAgent(13, 2, seed=4), DdpgAgent(13, 2, seed=4)
    # the update buffers are rebuilt whenever the row count changes; both
    # counts are multiples of 4, so the margin loss's cached rows stay exact
    for step in range(50):
        rows = (64, 32)[step % 2]
        got = ddpg_update(agent, buffer.sample(rows, agent.rng), expert)
        want = _ref_update(ref, buffer.sample(rows, ref.rng), expert)
        assert got == want
    for mine, theirs in zip(_agent_state(agent), _agent_state(ref)):
        assert np.array_equal(mine, theirs)
    assert agent.opt_actor["step"] == ref.opt_actor["step"] == 50
    assert agent.opt_critic["step"] == ref.opt_critic["step"] == 50
    assert agent.rng.random() == ref.rng.random()     # the streams stayed in step


def test_losses_return_arrays_that_no_later_call_overwrites():
    # every array a loss returns belongs to its caller: none is a view of the
    # agent's update buffers, so a second call leaves the first's unchanged
    buffer = _filled_buffer()
    agent = DdpgAgent(13, 2, seed=4)
    first, second = (buffer.sample(64, agent.rng) for _ in range(2))
    pi = agent.actor.predict(first.s)

    def calls(batch):
        return [critic_loss(agent, batch),
                cppi_margin_loss(agent, batch.s, batch.a_exp, pi),
                actor_loss_grads(agent, batch.s)]

    got = calls(first)
    keep = copy.deepcopy(got)
    again = calls(second)
    scratch = [v for v in vars(agent.buffers(64)).values() if isinstance(v, np.ndarray)]
    for (value, grads), (kept_value, kept_grads), (_, later) in zip(got, keep, again):
        assert value == kept_value and np.array_equal(grads, kept_grads)
        assert not np.shares_memory(grads, later)
        assert not any(np.shares_memory(grads, b) for b in scratch)


def test_expert_update_calls_no_allocating_helpers_after_the_first(monkeypatch):
    buffer = _filled_buffer()
    agent = DdpgAgent(13, 2, seed=4)
    batches = [buffer.sample(64, agent.rng) for _ in range(3)]
    ddpg_update(agent, batches[0], expert=True)     # builds the update buffers
    called = []
    for owner, name in ((np, "hstack"), (np, "full"), (np, "mean"), (np, "clip"),
                        (np.linalg, "norm")):
        def spy(*args, _name=name, _orig=getattr(owner, name), **kwargs):
            called.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    for batch in batches[1:]:
        ddpg_update(agent, batch, expert=True)
    assert called == []


def test_actor_step_makes_no_critic_weight_gradient(monkeypatch):
    agent = DdpgAgent(13, 2, seed=4)
    states = np.random.default_rng(0).normal(size=(64, 13))
    seen = []
    orig = Mlp.backward

    def spy(net, cache, gy, want_gx=False, want_grads=True):
        grads, gx = orig(net, cache, gy, want_gx=want_gx, want_grads=want_grads)
        seen.append((net is agent.critic, grads is None))
        return grads, gx
    monkeypatch.setattr(Mlp, "backward", spy)
    _, grads = actor_loss_grads(agent, states)
    assert seen == [(True, True), (False, False)]    # critic gx alone, then the actor
    assert grads.shape == agent.actor.flat.shape


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
                          config=TrainConfig(warmup_steps=32, lam_e=0.0, noise_scale=0.3),
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
                      config=TrainConfig(warmup_steps=16, lam_e=0.0, noise_scale=0.3),
                      seed=0)
    res = train(agent, env, 3)
    assert len(res.logs) == 3
    for row in res.logs:
        assert set(row) == {"episode", "return", "loss_critic", "loss_actor",
                            "j_e"}


def test_train_divergence_aborts_with_context():
    series = synth_market(1, 20, vol=0.2, seed=3)
    env = VectorMarketEnv(series, reward_scale=0.1)
    cfg = TrainConfig(warmup_steps=16, batch=8, lam_e=0.0, noise_scale=0.3,
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

    cfg = TrainConfig(warmup_steps=64, pretrain_steps=200, pretrain_episodes=2,
                      noise_scale=0.3)
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


class _DecodingDiscreteEnv(DiscreteTradingEnv):
    """``DiscreteTradingEnv`` with the step that decoded the action's base-3
    digits on every call: the reference for the decode made once per env."""

    def step(self, action):
        action = int(action)
        if not 0 <= action < self.n_actions:
            raise ParamError(f"action {action} out of range")
        s = self.state
        moves = np.zeros(self.d)
        codes = []
        a = action
        for _ in range(self.d):
            codes.append(a % 3)
            a //= 3
        codes = codes[::-1]
        buyers = [j for j, c in enumerate(codes) if c == 2]
        for j, c in enumerate(codes):
            if c == 0:
                moves[j] = -s.h[j]
            elif c == 2:
                moves[j] = s.b / len(buyers) / s.p[j]
        _, reward, done = TradingEnv.step(self, moves)
        return self._state_id(), reward, done


def _dqn_lite_reference(env, episodes, seed):
    """``dqn_lite`` before the index passes: every pass feeds rows of
    ``np.eye`` through ``Mlp.forward`` and ``Mlp.predict``. Returns the net."""
    rng = np.random.default_rng(seed)
    net = Mlp([env.n_states, rl_agents._DQN_HIDDEN, env.n_actions],
              seed=int(rng.integers(2**31)))
    target = net.copy()
    opt = adam_init(net)
    buffer = ReplayBuffer(rl_agents._DQN_CAPACITY)
    onehot = np.eye(env.n_states)
    n_batch, gamma = rl_agents._DQN_BATCH, rl_agents._GAMMA
    eps0, eps1 = rl_agents._EPS_START, rl_agents._EPS_FINAL
    for ep in range(episodes):
        eps = eps0 + (ep / max(1, episodes - 1)) * (eps1 - eps0)
        s = env.reset()
        done = False
        while not done:
            if rng.random() < eps:
                a = int(rng.integers(env.n_actions))
            else:
                qv = net.predict(onehot[s])
                a = int(np.argmax(qv))
            s2, r, done = env.step(a)
            buffer.add(s, a, r, s2, done)
            s = s2
            if len(buffer) >= n_batch:
                si, ai, ri, s2i, di, _ = buffer.sample(n_batch, rng)
                q2 = target.predict(onehot[s2i])
                y = ri + gamma * (1.0 - di) * q2.max(axis=1)
                qv, cache = net.forward(onehot[si])
                gy = np.zeros_like(qv)
                rows = np.arange(n_batch)
                gy[rows, ai] = 2.0 * (qv[rows, ai] - y) / n_batch
                grads, _ = net.backward(cache, gy)
                clip_global_norm(net, grads)
                opt_step(net, grads, opt, lr=rl_agents._DQN_LR)
                soft_update(target, net, rl_agents._DQN_TAU)
    return net


def _one_hot_greedy(net):
    def policy(s):
        x = np.zeros(net.sizes[0])
        x[s] = 1.0
        return int(np.argmax(net.predict(x)))
    return policy


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_dqn_lite_matches_the_one_hot_reference_bit_for_bit(d, seed):
    series = synth_market(d, 60, vol=0.35, alpha=1.7, seed=20 + seed)
    train_series, test_series = split(series, 0.7)
    got = dqn_lite(DiscreteTradingEnv(train_series), 6, seed=seed)
    ref = _dqn_lite_reference(_DecodingDiscreteEnv(train_series), 6, seed=seed)
    assert np.array_equal(got.net.flat, ref.flat)
    curve = run_policy(DiscreteTradingEnv(test_series), got.greedy_policy())
    ref_curve = run_policy(_DecodingDiscreteEnv(test_series), _one_hot_greedy(ref))
    assert np.array_equal(curve, ref_curve)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_discrete_step_decodes_every_action_as_the_reference(d):
    series = synth_market(d, 12, vol=0.4, seed=d)
    for first in range(3 ** d):
        env, ref = DiscreteTradingEnv(series), _DecodingDiscreteEnv(series)
        env.reset(), ref.reset()
        for t in range(series.n_days - 1):
            a = (first + 5 * t) % 3 ** d
            assert env.step(a) == ref.step(a)
        assert env.curve == ref.curve


class _ScatterOneHot:
    """Stands in for ``np.eye(n)``: indexing it builds the one-hot rows with
    zeros plus a scatter on every call."""

    def __init__(self, n):
        self.n = n

    def __getitem__(self, idx):
        if np.ndim(idx) == 0:
            return self[[idx]][0]
        x = np.zeros((len(idx), self.n))
        x[np.arange(len(idx)), idx] = 1.0
        return x


def test_dqn_lite_one_hot_rows_from_eye_match_zeros_and_scatter(monkeypatch):
    # the passes gather rows of W0; one-hot rows feed only the W0 gradient,
    # from one identity that the trained net's forward_index builds
    series = synth_market(1, 40, vol=0.3, seed=5)
    got = dqn_lite(DiscreteTradingEnv(series), 6, seed=3).net
    built = []
    monkeypatch.setattr(np, "eye", lambda n: built.append(n) or _ScatterOneHot(n))
    res = dqn_lite(DiscreteTradingEnv(series), 6, seed=3)
    assert built == [9]
    assert np.array_equal(got.flat, res.net.flat)
    policy = res.greedy_policy()
    assert [policy(s) for s in range(9)] == [_one_hot_greedy(got)(s) for s in range(9)]
    assert built == [9]


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
        curve = backtest_curve(kind, series, series, 0, BacktestConfig())
        assert curve.shape == (80,)
        assert np.all(curve > 0)


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


def test_backtest_table_format():
    train_series, test_series = split(synth_market(1, 120, drift=0.05, vol=0.3, seed=7), 0.7)
    cfg = BacktestConfig(episodes=6)
    names = ["up", "ad_ts"]
    rows = {name: metrics(backtest_curve(name, train_series, test_series, 0, cfg))
            for name in names}
    text = format_table3(names, rows)
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


# ---------------------------------------------------------------------------
# the runner table against the code paths it replaced, kept as references


def _reference_bandit_trade(kind, series, seed):
    """Table 2's bandit traders as written per kind, with a constant context
    for the context-free plain_ats."""
    env = DiscreteTradingEnv(series)
    env.reset()
    shim = rl_agents._ArmPullShim(env)
    n = env.n_actions
    if kind == "cb_ts":
        agent = CtsAgent(n, n, AgentConfig(algorithm="cts"), seed=seed)
        contexts = np.eye(n)
    else:
        agent = PlainAtsAgent(n, AgentConfig(algorithm="plain_ats"), seed=seed)
        contexts = np.ones((n, 1))
    t = 0
    while not env.done:
        agent.step(RoundContext(t=t, contexts=contexts), shim)
        t += 1
    return np.asarray(env.curve)


def _reference_run_trader(name, series, seed, episodes):
    """Table 2's own trader dispatch: a discrete learner's greedy policy
    trades the env it trained on."""
    if name in ("cb_ts", "ac_ts"):
        return _reference_bandit_trade(name, series, seed)
    env = DiscreteTradingEnv(series)
    if name == "dqn":
        res = dqn_lite(env, episodes, seed=seed)
    else:
        res = (tabular_q if name == "ql" else sarsa)(env, episodes, seed)
    return run_policy(env, res.greedy_policy())


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", TOURNAMENT_AGENTS)
def test_tournament_traders_match_their_own_dispatch_bit_for_bit(name, seed):
    days, episodes = 40, 4
    series = synth_market(1, days, drift=0.05, vol=0.35, seed=seed * 7919, alpha=1.7)
    want = _reference_run_trader(name, series, seed * 104729, episodes)
    got = backtest_curve(name, series, series, seed * 104729, BacktestConfig(episodes=episodes))
    assert np.array_equal(got, want)
    assert tournament([name], seed, days, episodes) == [float(want[-1] / want[0] - 1.0)]


def _reference_ddpg_toy_curve(series, seed, episodes):
    """Criterion 8's DDPG trained and traded by hand."""
    env = VectorMarketEnv(series, cost_bps=0.0, reward_scale=0.05)
    cfg = TrainConfig(lam_e=0.0, warmup_steps=64, noise_scale=0.3)
    agent = DdpgAgent(env.state_dim, env.action_dim, config=cfg, seed=seed)
    train(agent, env, episodes)
    return run_policy(VectorMarketEnv(series, cost_bps=0.0, reward_scale=0.05), agent.act)


@pytest.mark.parametrize("seed", [0, 1])
def test_criterion_8_ddpg_matches_its_hand_trained_loop_bit_for_bit(seed):
    # 8 episodes of 24 steps make 129 updates past the 64-step warm-up
    series = alternating_series(25)
    cfg = BacktestConfig(episodes=8, cost_bps=0.0, reward_scale=0.05, train=TrainConfig(
        lam_e=0.0, warmup_steps=64, noise_scale=0.3))
    want = _reference_ddpg_toy_curve(series, seed, 8)
    assert np.array_equal(backtest_curve("ddpg", series, series, seed, cfg), want)


def test_unsupervised_ddpg_ignores_lam_e():
    # ddpg's env has no expert, which already keeps expert mode off
    train_series, test_series = split(synth_market(1, 60, vol=0.3, seed=2), 0.7)
    cfg = BacktestConfig(episodes=3, train=TrainConfig(warmup_steps=16, batch=16))
    off = replace(cfg, train=replace(cfg.train, lam_e=0.0))
    assert cfg.train.lam_e > 0.0
    assert np.array_equal(backtest_curve("ddpg", train_series, test_series, 0, cfg),
                          backtest_curve("ddpg", train_series, test_series, 0, off))
