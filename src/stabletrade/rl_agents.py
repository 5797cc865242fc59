"""Actor-critic trading with optional floor-strategy supervision, plus baselines.

The continuous learner is DDPG on a box action space: critic regression against
softly-updated targets, deterministic chain-rule actor ascent, and, when an
expert is attached, a large-margin term that ranks the floor strategy's action
above sampled alternatives. Discrete baselines (tabular Q/SARSA, a small DQN,
performance-weighted constant-rebalanced mixtures) and the bandit traders feed
the tournament and backtest tables.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .bandit_envs import RoundContext
from .errors import (ConfigError, NumericError, ParamError, _check_table, _int_at_least,
                     _is_int, _known_keys, _number, _require)
from .market_sim import (
    _TRADING_CHECKS,
    CppiConfig,
    OhlcvSeries,
    TradingEnv,
    cppi_expert_action,
    run_policy,
    synth_market,
)
from .tinynet import Mlp, adam_init, clip_global_norm, opt_step, soft_update
from .ts_agents import AgentConfig, make_agent


class Batch(NamedTuple):
    """Transitions as columns, one row per transition. ``a_exp`` is None
    when the transitions carry no expert actions."""

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    done: np.ndarray
    a_exp: np.ndarray = None


_FIRST_ROWS = 64


class ReplayBuffer:
    """Ring buffer with uniform without-replacement minibatches.

    Each column of ``Batch`` is one array whose rows double as the buffer
    fills, up to ``capacity``; the first ``add`` fixes each column's dtype
    and row shape (``r`` and ``done`` are stored as floats). Once full, each
    new transition overwrites the oldest.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise ParamError("capacity must be positive")
        self.capacity = int(capacity)
        self._cols = None
        self._n = 0
        self._head = 0

    def __len__(self):
        return self._n

    def add(self, s, a, r, s_next, done, a_exp=None):
        row = (s, a, float(r), s_next, float(done), a_exp)
        if self._cols is None:
            rows = min(_FIRST_ROWS, self.capacity)
            self._cols = Batch(*(
                None if v is None else np.empty((rows,) + np.shape(v), np.asarray(v).dtype)
                for v in row))
        elif (a_exp is None) != (self._cols.a_exp is None):
            raise ParamError("give expert actions with every transition or with none")
        if self._n < self.capacity:
            i = self._n
            if i == len(self._cols.s):
                self._grow()
            self._n += 1
        else:
            i = self._head
            self._head = (self._head + 1) % self.capacity
        for col, v in zip(self._cols, row):
            if col is not None:
                col[i] = v

    def _grow(self):
        rows = min(2 * len(self._cols.s), self.capacity)
        grown = []
        for col in self._cols:
            if col is not None:
                new = np.empty((rows,) + col.shape[1:], col.dtype)
                new[:self._n] = col[:self._n]
                col = new
            grown.append(col)
        self._cols = Batch(*grown)

    def sample(self, n, rng):
        """A Batch of n distinct stored transitions, gathered in one pass."""
        if n > self._n:
            raise ParamError(f"minibatch {n} exceeds buffer size {self._n}")
        idx = rng.choice(self._n, size=n, replace=False)
        s, a, r, s_next, done, a_exp = self._cols
        return Batch(s[idx], a[idx], r[idx], s_next[idx], done[idx],
                     None if a_exp is None else a_exp[idx])


# the check table of params.backtest.train, one entry per TrainConfig field
_TRAIN_CHECKS = {
    "gamma": _number(ge=0, lt=1), "tau": _number(gt=0, le=1),
    "buffer_capacity": _int_at_least(1), "batch": _int_at_least(1),
    "critic_lr": _number(gt=0), "actor_lr": _number(gt=0), "lam_e": _number(ge=0),
    "hidden": ((lambda v: isinstance(v, (list, tuple)) and all(_is_int(h, 1) for h in v)),
               "a list of integers >= 1"),
    "noise_scale": _number(ge=0), "noise_final": _number(ge=0),
    "margin_m": _number(ge=0), "margin_rho": _number(gt=0),
    "n_candidates": _int_at_least(0), "pretrain_steps": _int_at_least(0),
    "pretrain_episodes": _int_at_least(0), "warmup_steps": _int_at_least(0),
    "grad_clip": _number(gt=0), "divergence_limit": _number(gt=0),
}
_TRAIN_PREFIX = "params.backtest.train"


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.99
    tau: float = 0.01
    buffer_capacity: int = 100_000
    batch: int = 64
    critic_lr: float = 1e-3
    actor_lr: float = 1e-4
    lam_e: float = 0.3
    hidden: tuple = (64, 64)
    noise_scale: float = 0.2
    noise_final: float = 0.01
    margin_m: float = 1.0
    margin_rho: float = 1.0
    n_candidates: int = 8
    pretrain_steps: int = 300
    pretrain_episodes: int = 3
    warmup_steps: int = 64
    grad_clip: float = 10.0
    divergence_limit: float = 1e6

    def __post_init__(self):
        _check_table(vars(self), _TRAIN_CHECKS, _TRAIN_PREFIX)
        _require(self.buffer_capacity >= self.batch, f"{_TRAIN_PREFIX}.buffer_capacity",
                 self.buffer_capacity, f"at least {_TRAIN_PREFIX}.batch = {self.batch}")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    @classmethod
    def from_dict(cls, d):
        return cls(**_known_keys(d, _TRAIN_CHECKS, _TRAIN_PREFIX))


# ---------------------------------------------------------------------------
# environments


class VectorMarketEnv(TradingEnv):
    """Box actions in [-1, 1]^d traded as asset fractions over a price series.

    State: per-stock window of recent log returns (scaled x10), portfolio
    weights, cash fraction. Rewards reach the learner scaled; the equity curve
    stays in currency.
    """

    def __init__(self, series, window=3, initial_cash=100.0, cost_bps=10.0,
                 reward_scale=1.0, expert=None):
        super().__init__(series, initial_cash=initial_cash, cost_bps=cost_bps)
        self.window = int(window)
        self.d = series.n_stocks
        self.reward_scale = float(reward_scale)
        self.expert = expert
        self.state_dim = self.d * self.window + self.d + 1
        self.action_dim = self.d

    def reset(self):
        super().reset()
        return self._features()

    def _features(self):
        s = self.state
        close = self.series.close
        rets = np.zeros((self.window, self.d))
        for k in range(1, self.window + 1):
            if s.t - k >= 0:
                rets[k - 1] = np.log(close[s.t - k + 1] / close[s.t - k])
        a = s.total_asset
        weights = s.h * s.p / a
        return np.concatenate([10.0 * rets.ravel(), weights, [s.b / a]])

    def expert_action(self):
        """Floor strategy's trade mapped into policy units."""
        if self.expert is None:
            raise ConfigError("no expert attached to this environment")
        s = self.state
        shares = cppi_expert_action(s, self.expert)
        a = shares * s.p / s.total_asset
        return np.clip(a, -1.0, 1.0)

    def step(self, action):
        action = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
        s = self.state
        shares = action * s.total_asset / s.p
        _, reward, done = super().step(shares)
        return self._features(), reward * self.reward_scale, done


class DiscreteTradingEnv(TradingEnv):
    """Sell/hold/buy per stock over trend-and-position bucket states."""

    def __init__(self, series, initial_cash=100.0, cost_bps=10.0):
        super().__init__(series, initial_cash=initial_cash, cost_bps=cost_bps)
        self.d = series.n_stocks
        self.n_actions = 3 ** self.d
        self.n_states = 9 ** self.d
        # per action, the stocks it sells and buys: action digit j in base 3,
        # most significant first, is stock j's sell (0), hold (1) or buy (2)
        self._trades = []
        for action in range(self.n_actions):
            codes = [action // 3 ** (self.d - 1 - j) % 3 for j in range(self.d)]
            self._trades.append(([j for j, c in enumerate(codes) if c == 0],
                                 [j for j, c in enumerate(codes) if c == 2]))

    def reset(self):
        super().reset()
        return self._state_id()

    def _state_id(self):
        s = self.state
        close = self.series.close
        a = s.total_asset
        sid = 0
        for j in range(self.d):
            if s.t == 0:
                trend = 1
            else:
                r = close[s.t, j] - close[s.t - 1, j]
                trend = 0 if r < 0 else (2 if r > 0 else 1)
            w = s.h[j] * s.p[j] / a
            pos = 0 if w < 1.0 / 3.0 else (1 if w < 2.0 / 3.0 else 2)
            sid = sid * 9 + trend * 3 + pos
        return sid

    def step(self, action):
        action = int(action)
        if not 0 <= action < self.n_actions:
            raise ParamError(f"action {action} out of range")
        s = self.state
        sells, buys = self._trades[action]
        moves = np.zeros(self.d)
        for j in sells:
            moves[j] = -s.h[j]
        for j in buys:
            moves[j] = s.b / len(buys) / s.p[j]
        _, reward, done = super().step(moves)
        return self._state_id(), reward, done


def alternating_series(days):
    """Deterministic price path 10, 11, 10, 11, ... as a one-stock series."""
    close = np.where(np.arange(days) % 2 == 0, 10.0, 11.0)[:, None].astype(float)
    return OhlcvSeries(dates=[f"d{t:05d}" for t in range(days)], tickers=["S0"], close=close)


def perfect_foresight_curve(series):
    """One-stock lookahead policy: all-in before an up day, all-out otherwise,
    from 100 in cash and without costs."""
    if series.n_stocks != 1:
        raise ParamError("lookahead oracle handles one stock")
    def policy(state):
        up = series.close[state.t + 1, 0] > series.close[state.t, 0]
        return np.array([state.b / state.p[0] if up else -state.h[0]])
    return run_policy(TradingEnv(series, initial_cash=100.0, cost_bps=0.0), policy)


# ---------------------------------------------------------------------------
# DDPG


class _UpdateBuffers:
    """The arrays one DDPG update on n-row minibatches writes into, and the
    constants it reads.

    Critic inputs ``sa`` = [s|a], ``s2a2`` = [s2|a2] and ``spi`` = [s|pi];
    the TD target ``y`` (then the squared errors) and |Q| (then the error)
    ``td``, and the critic's upstream column ``gy``; the margin loss's (n, k + 2, input) candidate pass ``margin_x``,
    its perturbations ``noise`` (k, n, d), action gaps ``gap`` and
    ``scores``, and ``picked``, the pass rows of each state's best and
    expert candidates. The constants are the upstream columns ``up`` (+1/n)
    and ``down`` (-1/n) and each state's first row in the pass,
    ``block_start``. No loss returns an array that lives here.
    """

    def __init__(self, n, state_dim, action_dim, n_candidates):
        width, cols = n_candidates + 2, state_dim + action_dim
        self.n = n
        self.sa, self.s2a2, self.spi = (np.empty((n, cols)) for _ in range(3))
        self.y, self.td, self.gy = np.empty(n), np.empty(n), np.empty((n, 1))
        self.up, self.down = np.full((n, 1), 1.0 / n), np.full((n, 1), -1.0 / n)
        self.margin_x = np.empty((n, width, cols))
        self.noise = np.empty((n_candidates, n, action_dim))
        self.gap = np.empty((n, width, action_dim))
        self.scores = np.empty((n, width))
        self.block_start = np.arange(n) * width
        self.picked = np.empty(2 * n, dtype=np.intp)
        self.picked[n:] = self.block_start + 1     # column 1 is the expert's


class DdpgAgent:
    def __init__(self, state_dim, action_dim, config=None, seed=0):
        self.config = config or TrainConfig()
        self.state_dim, self.action_dim = int(state_dim), int(action_dim)
        seeder = np.random.default_rng(seed)
        hid = list(self.config.hidden)
        self.actor = Mlp([state_dim] + hid + [action_dim], out_act="tanh",
                         seed=int(seeder.integers(2**31)))
        self.critic = Mlp([state_dim + action_dim] + hid + [1],
                          seed=int(seeder.integers(2**31)))
        self.t_actor = self.actor.copy()
        self.t_critic = self.critic.copy()
        self.opt_actor = adam_init(self.actor)
        self.opt_critic = adam_init(self.critic)
        self.rng = np.random.default_rng(int(seeder.integers(2**31)))
        self._buffers = None

    def buffers(self, n):
        """The update buffers for n-row minibatches, built on first use and
        again whenever the row count changes."""
        if self._buffers is None or self._buffers.n != n:
            self._buffers = _UpdateBuffers(n, self.state_dim, self.action_dim,
                                           self.config.n_candidates)
        return self._buffers

    def act(self, state, noise_scale=0.0):
        a = self.actor.predict(state)
        if noise_scale > 0.0:
            a = a + noise_scale * self.rng.standard_normal(self.action_dim)
        return np.clip(a, -1.0, 1.0)

    def soft_updates(self):
        soft_update(self.t_actor, self.actor, self.config.tau)
        soft_update(self.t_critic, self.critic, self.config.tau)


def _median(x):
    """np.median of a 1-D array, bit for bit, from one partition: the middle
    entry, or the mean of the middle two, and NaN when any entry is NaN
    (the partition puts NaN last)."""
    n = x.size
    k = n // 2
    part = np.partition(x, (k, n - 1) if n % 2 else (k - 1, k, n - 1))
    if np.isnan(part[-1]):
        return float("nan")
    return float(part[k] if n % 2 else (part[k - 1] + part[k]) / 2.0)


def critic_loss(agent, batch):
    """Mean squared TD error against the target networks, plus critic
    gradients; terminal rows drop the bootstrap.

    It evaluates y = r + gamma * (1 - done) * Q'(s2, pi'(s2)) and
    mean((Q(s, a) - y)**2) one operation at a time in the agent's update
    buffers, with the roundings of those expressions."""
    cfg = agent.config
    s, a, r, s2, done, _ = batch
    n, sd = len(r), agent.state_dim
    buf = agent.buffers(n)
    buf.s2a2[:, :sd] = s2
    buf.s2a2[:, sd:] = agent.t_actor.predict(s2)
    q2 = agent.t_critic.predict(buf.s2a2)
    y = np.subtract(1.0, done, out=buf.y)
    y *= cfg.gamma
    y *= q2[:, 0]
    y += r
    buf.sa[:, :sd] = s
    buf.sa[:, sd:] = a
    q, cache = agent.critic.forward(buf.sa)
    med = _median(np.abs(q[:, 0], out=buf.td))
    if not med <= cfg.divergence_limit:    # a NaN median counts as diverged
        raise NumericError(
            f"critic diverged: median |Q| {med:.3g} exceeds {cfg.divergence_limit:.0e}"
        )
    resid = np.subtract(q[:, 0], y, out=buf.td)
    loss = float(np.add.reduce(np.multiply(resid, resid, out=buf.y))) / n   # y is spent
    np.multiply(resid[:, None], 2.0 / n, out=buf.gy)
    grads, _ = agent.critic.backward(cache, buf.gy)
    return loss, grads


def _candidate_set(agent, pi, expert_actions, rng):
    """(n, k + 2, d): the actor's actions pi, the expert's, then k clipped
    Gaussian perturbations of the expert's, drawn perturbation-major.

    The candidates are drawn into the action columns of the margin loss's
    input in the agent's update buffers, and returned as a view of them."""
    buf = agent.buffers(expert_actions.shape[0])
    cands = buf.margin_x[:, :, agent.state_dim:]
    cands[:, 0] = pi
    cands[:, 1] = expert_actions
    noise = rng.standard_normal(out=buf.noise)
    noise *= 0.5 * agent.config.margin_rho
    noise += expert_actions
    np.maximum(noise, -1.0, out=noise)    # np.clip's two comparisons, NaN kept
    np.minimum(noise, 1.0, out=noise)
    cands[:, 2:] = noise.transpose(1, 0, 2)
    return cands


def cppi_margin_loss(agent, states, expert_actions, pi):
    """Margin-ranking loss max_a [Q(s,a) + l(a_E,a)] - Q(s,a_E) and its
    critic gradients, as (value, grads).

    The candidates are ``_candidate_set``'s, built from pi (the actor's
    actions on the states) and the agent's rng; their column 1 is the
    expert's action, so the loss is non-negative. One critic pass covers
    every column, and the best and expert rows' activations come from it.
    The pass's input is the agent's update buffer that the candidates were
    drawn into; the distances evaluate np.linalg.norm's sqrt of summed
    squares one operation at a time.
    """
    cfg = agent.config
    states = np.atleast_2d(np.asarray(states, dtype=float))
    expert_actions = np.atleast_2d(np.asarray(expert_actions, dtype=float))
    n = states.shape[0]
    candidates = _candidate_set(agent, pi, expert_actions, agent.rng)
    buf = agent.buffers(n)
    x = buf.margin_x
    width = x.shape[1]
    x[:, :, :agent.state_dim] = states[:, None, :]    # each state beside its candidates
    q = agent.critic.predict(x.reshape(n * width, -1))[:, 0].reshape(n, width)
    gap = np.subtract(candidates, expert_actions[:, None, :], out=buf.gap)
    gap *= gap
    scores = np.add.reduce(gap, axis=2, out=buf.scores)
    np.sqrt(scores, out=scores)                   # the distances, then
    scores /= cfg.margin_rho
    np.minimum(scores, 1.0, out=scores)
    scores *= cfg.margin_m                        # the penalties, then
    scores += q                                   # the scores
    # the pass's [best rows; expert rows], which also index the flat scores
    np.add(buf.block_start, np.argmax(scores, axis=1), out=buf.picked[:n])
    value = float(np.add.reduce(scores.reshape(-1)[buf.picked[:n]] - q[:, 1])) / n
    cache = agent.critic.cache_rows(buf.picked)    # [best rows; expert rows]
    cache_b = {"acts": [h[:n] for h in cache["acts"]], "squeeze": False}
    cache_e = {"acts": [h[n:] for h in cache["acts"]], "squeeze": False}
    g_best, _ = agent.critic.backward(cache_b, buf.up)
    g_exp, _ = agent.critic.backward(cache_e, buf.down)
    g_best += g_exp
    return value, g_best


def critic_update(agent, batch, pi=None):
    """One clipped optimizer step of the critic on the TD loss and, given the
    actor's actions pi on batch.s (expert mode), lam_e times the margin loss
    over the candidate set built from them."""
    cfg = agent.config
    td, grads = critic_loss(agent, batch)
    j_e = 0.0
    if pi is not None:
        if batch.a_exp is None:
            raise ParamError("expert mode needs expert actions in the minibatch")
        j_e, mg = cppi_margin_loss(agent, batch.s, batch.a_exp, pi)
        mg *= cfg.lam_e
        grads += mg
    clip_global_norm(agent.critic, grads, cfg.grad_clip)
    opt_step(agent.critic, grads, agent.opt_critic, lr=cfg.critic_lr)
    return td, j_e


def actor_loss_grads(agent, states, actor_pass=None):
    """Loss -mean Q(s, pi(s)) and its actor gradients via the critic's input
    gradient alone; actor_pass is actor.forward(states) when the caller has
    made it."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n, sd = states.shape[0], agent.state_dim
    a, cache_a = agent.actor.forward(states) if actor_pass is None else actor_pass
    buf = agent.buffers(n)
    buf.spi[:, :sd] = states
    buf.spi[:, sd:] = a
    q, cache_c = agent.critic.forward(buf.spi)
    _, gx = agent.critic.backward(cache_c, buf.down, want_gx=True, want_grads=False)
    grads, _ = agent.actor.backward(cache_a, gx[:, sd:])
    return -float(np.add.reduce(q, axis=None)) / n, grads


def actor_update(agent, batch, actor_pass=None):
    """Chain-rule ascent on Q(s, pi(s)); the critic stays frozen."""
    loss, grads = actor_loss_grads(agent, batch.s, actor_pass)
    clip_global_norm(agent.actor, grads, agent.config.grad_clip)
    opt_step(agent.actor, grads, agent.opt_actor, lr=agent.config.actor_lr)
    return loss


def ddpg_update(agent, batch, expert):
    """One DDPG step on a minibatch: the critic's (with the margin term in
    expert mode), the actor's against the updated critic, then the soft
    target updates; returns (TD loss, margin loss, actor loss).

    One actor pass over batch.s serves both the candidate set and the actor
    loss: only the critic changes between them.
    """
    actor_pass = agent.actor.forward(batch.s)
    td, j_e = critic_update(agent, batch, actor_pass[0] if expert else None)
    la = actor_update(agent, batch, actor_pass)
    agent.soft_updates()
    return td, j_e, la


@dataclass
class TrainResult:
    logs: list
    pretrained: int = 0


def _pretrain(agent, env, buffer, cfg):
    for _ in range(cfg.pretrain_episodes):
        s = env.reset()
        done = False
        while not done:
            ae = env.expert_action()
            a = np.clip(ae + 0.05 * agent.rng.standard_normal(ae.shape), -1.0, 1.0)
            s2, r, done = env.step(a)
            buffer.add(s, a, r, s2, done, a_exp=ae)
            s = s2
    if len(buffer) < cfg.batch:
        return 0
    for step in range(cfg.pretrain_steps):
        try:
            ddpg_update(agent, buffer.sample(cfg.batch, agent.rng), expert=True)
        except NumericError as err:
            raise NumericError(f"pre-training step {step}: {err}") from None
    return cfg.pretrain_steps


def _linear_schedule(start, final, ep, episodes):
    """The exploration level of episode ep of episodes, linear from start at
    the first episode to final at the last."""
    return start + ep / max(1, episodes - 1) * (final - start)


def train(agent, env, episodes):
    """Noise-perturbed interaction with replay updates; deterministic per seed."""
    cfg = agent.config
    buffer = ReplayBuffer(cfg.buffer_capacity)
    expert_mode = cfg.lam_e > 0.0 and getattr(env, "expert", None) is not None
    pretrained = _pretrain(agent, env, buffer, cfg) if expert_mode and cfg.pretrain_steps else 0
    logs = []
    for ep in range(episodes):
        noise = _linear_schedule(cfg.noise_scale, cfg.noise_final, ep, episodes)
        s = env.reset()
        done = False
        ep_td, ep_la, ep_je, n_upd = 0.0, 0.0, 0.0, 0
        while not done:
            a_exp = env.expert_action() if expert_mode else None
            a = agent.act(s, noise_scale=noise)
            s2, r, done = env.step(a)
            buffer.add(s, a, r, s2, done, a_exp=a_exp)
            s = s2
            if len(buffer) >= max(cfg.batch, cfg.warmup_steps):
                batch = buffer.sample(cfg.batch, agent.rng)
                try:
                    td, j_e, la = ddpg_update(agent, batch, expert_mode)
                except NumericError as err:
                    raise NumericError(f"episode {ep}: {err}") from None
                ep_td += td
                ep_la += la
                ep_je += j_e
                n_upd += 1
        k = max(1, n_upd)
        logs.append({
            "episode": ep,
            "return": env.curve[-1] - env.curve[0],
            "loss_critic": ep_td / k,
            "loss_actor": ep_la / k,
            "j_e": ep_je / k,
        })
    return TrainResult(logs=logs, pretrained=pretrained)


# ---------------------------------------------------------------------------
# discrete baselines


# fixed settings of the discrete baselines; epsilon falls linearly per episode
_GAMMA = 0.99
_EPS_START, _EPS_FINAL = 1.0, 0.05
_TD_ALPHA = 0.1
_DQN_HIDDEN = 32
_DQN_BATCH = 32
_DQN_CAPACITY = 5000
_DQN_LR = 1e-3
_DQN_TAU = 0.05


def _check_discrete(env):
    if not hasattr(env, "n_states") or not hasattr(env, "n_actions"):
        raise ConfigError("tabular control needs a discretized environment")


@dataclass
class TabularResult:
    q: np.ndarray

    def greedy_policy(self):
        table = self.q.argmax(axis=1)
        return lambda s: int(table[s])


def _td_control(env, episodes, on_policy, seed):
    _check_discrete(env)
    rng = np.random.default_rng(seed)
    q = np.zeros((env.n_states, env.n_actions))

    def pick(s, eps):
        if rng.random() < eps:
            return int(rng.integers(env.n_actions))
        return int(q[s].argmax())

    for ep in range(episodes):
        eps = _linear_schedule(_EPS_START, _EPS_FINAL, ep, episodes)
        s = env.reset()
        a = pick(s, eps)
        done = False
        while not done:
            s2, r, done = env.step(a)
            a2 = pick(s2, eps)
            if on_policy:
                boot = q[s2, a2]
            else:
                boot = float(q[s2].max())
            target = r + _GAMMA * (0.0 if done else boot)
            q[s, a] += _TD_ALPHA * (target - q[s, a])
            s, a = s2, a2
    return TabularResult(q=q)


def tabular_q(env, episodes, seed):
    return _td_control(env, episodes, False, seed)


def sarsa(env, episodes, seed):
    return _td_control(env, episodes, True, seed)


@dataclass
class DqnResult:
    net: Mlp

    def greedy_policy(self):
        def policy(s):
            return int(self.net.predict_index([s]).argmax())
        return policy


def dqn_lite(env, episodes, seed):
    """Small replay-and-target-network Q learner over one-hot states."""
    _check_discrete(env)
    rng = np.random.default_rng(seed)
    net = Mlp([env.n_states, _DQN_HIDDEN, env.n_actions], seed=int(rng.integers(2**31)))
    target = net.copy()
    opt = adam_init(net)
    buffer = ReplayBuffer(_DQN_CAPACITY)
    rows = np.arange(_DQN_BATCH)

    for ep in range(episodes):
        eps = _linear_schedule(_EPS_START, _EPS_FINAL, ep, episodes)
        s = env.reset()
        done = False
        while not done:
            if rng.random() < eps:
                a = int(rng.integers(env.n_actions))
            else:
                a = int(net.predict_index([s]).argmax())
            s2, r, done = env.step(a)
            buffer.add(s, a, r, s2, done)
            s = s2
            if len(buffer) >= _DQN_BATCH:
                si, ai, ri, s2i, di, _ = buffer.sample(_DQN_BATCH, rng)
                q2 = target.predict_index(s2i)
                y = ri + _GAMMA * (1.0 - di) * q2.max(axis=1)
                qv, cache = net.forward_index(si)
                gy = np.zeros(qv.shape)
                gy[rows, ai] = 2.0 * (qv[rows, ai] - y) / _DQN_BATCH
                grads, _ = net.backward(cache, gy)
                clip_global_norm(net, grads)
                opt_step(net, grads, opt, lr=_DQN_LR)
                soft_update(target, net, _DQN_TAU)
    return DqnResult(net=net)


def _simplex_grid(d, resolution):
    if d == 1:
        return np.ones((1, 1))
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], resolution, d)
    return np.asarray(out, dtype=float) / resolution


_UP_RESOLUTION = 10     # grid weights are multiples of 1/10


def up_run(series, initial_cash=100.0):
    """Performance-weighted average over a constant-rebalanced-portfolio grid.

    One stock degenerates to buy-and-hold. Costless by construction.
    """
    rel = series.close[1:] / series.close[:-1]
    grid = _simplex_grid(series.n_stocks, _UP_RESOLUTION)
    wealth = np.ones(grid.shape[0])
    curve = [initial_cash]
    for t in range(rel.shape[0]):
        wealth = wealth * (grid @ rel[t])
        curve.append(initial_cash * float(np.mean(wealth)))
    return np.asarray(curve)


# ---------------------------------------------------------------------------
# bandit traders


_BANDIT_REWARD_SCALE = 0.1     # currency rewards reach the bandit scaled


class _ArmPullShim:
    """Adapter exposing a discrete trading env through the bandit pull interface."""

    def __init__(self, env):
        self.env = env

    def pull(self, t, arm):
        _, r, _ = self.env.step(arm)
        return r * _BANDIT_REWARD_SCALE


def _bandit_curve(algorithm, train_series, test_series, seed, cfg):
    """A Thompson-sampling trader over the sell/hold/buy combination arms of
    the test series, each arm's context its one-hot code (plain_ats reads
    none)."""
    env = DiscreteTradingEnv(test_series, initial_cash=cfg.initial_cash, cost_bps=cfg.cost_bps)
    env.reset()
    shim = _ArmPullShim(env)
    n = env.n_actions
    agent = make_agent(AgentConfig(algorithm=algorithm), n_arms=n, dim=n, seed=seed)
    contexts = np.eye(n)
    t = 0
    while not env.done:
        agent.step(RoundContext(t=t, contexts=contexts), shim)
        t += 1
    return np.asarray(env.curve)


# ---------------------------------------------------------------------------
# tournament


TOURNAMENT_AGENTS = ("ql", "dqn", "sarsa", "cb_ts", "ac_ts")
_T2_LABELS = {"ql": "QL", "dqn": "DQL", "sarsa": "SARSA",
              "cb_ts": "CB-TS", "ac_ts": "AC-TS"}


@dataclass
class TournamentResult:
    names: list
    wins: np.ndarray
    avg_wins: np.ndarray

    @classmethod
    def from_returns(cls, names, returns):
        """Pairwise win percentages over the rounds of a (names x rounds)
        returns array: ties split 50:50, 50 on the diagonal, and average
        wins over the opponents only."""
        rets = np.asarray(returns, dtype=float)
        n, rounds = rets.shape
        wins = np.full((n, n), 50.0)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                won = np.sum(rets[i] > rets[j]) + 0.5 * np.sum(rets[i] == rets[j])
                wins[i, j] = 100.0 * won / rounds
        avg = np.array([np.mean([wins[i, j] for j in range(n) if j != i])
                        for i in range(n)])
        return cls(names=list(names), wins=wins, avg_wins=avg)


def _episode_return(curve):
    return curve[-1] / curve[0] - 1.0


def tournament(names, seed, days, episodes):
    """One round: every named agent trains and trades on one seeded one-stock
    market under one trader seed; returns the round returns in roster order,
    which TournamentResult.from_returns folds into the win matrix."""
    series = synth_market(1, days, drift=0.05, vol=0.35, seed=seed * 7919, alpha=1.7)
    cfg = BacktestConfig(episodes=episodes)
    return [float(_episode_return(_RUNNERS[name](series, series, seed * 104729, cfg)))
            for name in names]


def format_table2(result):
    """Pairwise win matrix, one 'w:l' cell per pair, plus average wins."""
    labels = [_T2_LABELS[n] for n in result.names]
    width = max(8, max(len(x) for x in labels) + 2)
    head = "".ljust(width) + "".join(x.ljust(width) for x in labels) + "Avg Wins"
    lines = [head]
    for i, lab in enumerate(labels):
        cells = []
        for j in range(len(labels)):
            w = result.wins[i, j]
            cells.append(f"{w:.0f}:{100 - w:.0f}".ljust(width))
        lines.append(lab.ljust(width) + "".join(cells) + f"{result.avg_wins[i]:.1f}%")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# backtest


BACKTEST_AGENTS = ("up", "dqn", "ddpg", "cppi_ddpg", "ad_ts")
# the backtest agents that trade the train part before the test part
BACKTEST_LEARNERS = ("dqn", "ddpg", "cppi_ddpg")
_T3_LABELS = {"up": "UP", "dqn": "DQN", "ddpg": "DDPG",
              "cppi_ddpg": "CPPI-DDPG", "ad_ts": "AD-TS"}


# the check table of params.backtest, one entry per BacktestConfig field
_BACKTEST_CHECKS = {
    "episodes": _int_at_least(1), "split_ratio": _number(gt=0, lt=1),
    "initial_cash": _TRADING_CHECKS["initial_cash"], "cost_bps": _TRADING_CHECKS["cost_bps"],
    "floor_frac": _TRADING_CHECKS["floor"], "multiplier": _TRADING_CHECKS["multiplier"],
    "window": _int_at_least(1), "reward_scale": _number(gt=0),
    "train": ((lambda v: isinstance(v, TrainConfig)), "a TrainConfig"),
}


@dataclass(frozen=True)
class BacktestConfig:
    episodes: int = 30
    split_ratio: float = 0.7
    initial_cash: float = 100.0
    cost_bps: float = 10.0
    floor_frac: float = 0.85
    multiplier: float = 2.0
    window: int = 3
    reward_scale: float = 0.1
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        _check_table(vars(self), _BACKTEST_CHECKS, "params.backtest")

    @classmethod
    def from_dict(cls, d):
        d = dict(_known_keys(d, _BACKTEST_CHECKS, "params.backtest"))
        d["train"] = TrainConfig.from_dict(d.get("train", {}))
        return cls(**d)

    def floor_rule(self):
        """The CPPI rule that supervises ``cppi_ddpg``: a floor of
        ``floor_frac`` times the initial cash."""
        return CppiConfig(floor=self.floor_frac * self.initial_cash,
                          multiplier=self.multiplier)


def _ddpg_curve(train_series, test_series, seed, cfg, supervised):
    expert = cfg.floor_rule() if supervised else None
    def make_env(series):
        return VectorMarketEnv(series, window=cfg.window,
                               initial_cash=cfg.initial_cash,
                               cost_bps=cfg.cost_bps,
                               reward_scale=cfg.reward_scale,
                               expert=expert)
    env = make_env(train_series)
    agent = DdpgAgent(env.state_dim, env.action_dim, config=cfg.train, seed=seed)
    train(agent, env, cfg.episodes)
    return run_policy(make_env(test_series), agent.act)


def _discrete_curve(learner, train_series, test_series, seed, cfg):
    """A discrete learner trained on the train series; its greedy policy
    trades the test series."""
    def make_env(series):
        return DiscreteTradingEnv(series, initial_cash=cfg.initial_cash, cost_bps=cfg.cost_bps)
    res = learner(make_env(train_series), cfg.episodes, seed)
    return run_policy(make_env(test_series), res.greedy_policy())


# every trader of Tables 2 and 3: name -> runner(train_series, test_series,
# seed, cfg), which returns the equity curve on the test series. The runners
# look the learners up when called, so a wrapper installed over a module
# global (a tracer's) sees every call.
_RUNNERS = {
    "up": lambda train_series, test_series, seed, cfg: up_run(
        test_series, initial_cash=cfg.initial_cash),
    "ql": lambda *run: _discrete_curve(tabular_q, *run),
    "sarsa": lambda *run: _discrete_curve(sarsa, *run),
    "dqn": lambda *run: _discrete_curve(dqn_lite, *run),
    "ddpg": partial(_ddpg_curve, supervised=False),
    "cppi_ddpg": partial(_ddpg_curve, supervised=True),
    "cb_ts": partial(_bandit_curve, "cts"),
    "ac_ts": partial(_bandit_curve, "plain_ats"),
    # the backtest's bandit trader never sees the train series
    "ad_ts": partial(_bandit_curve, "plain_ats"),
}


def backtest_curve(name, train_series, test_series, seed, cfg):
    """Equity curve of one trader, trained on the train series where it
    learns, on the held-out series."""
    return _RUNNERS[name](train_series, test_series, seed, cfg)


def format_table3(names, rows):
    """AR / SR / MaxD table, one row per strategy; rows maps each name to its
    Metrics."""
    width = max(11, max(len(_T3_LABELS[n]) for n in names) + 2)
    lines = ["".ljust(width) + "AR".ljust(10) + "SR".ljust(10) + "MaxD"]
    for name in names:
        m = rows[name]
        lab = _T3_LABELS[name]
        sr = "n/a" if np.isnan(m.sharpe) else f"{m.sharpe * 100:.1f}%"
        lines.append(lab.ljust(width)
                     + f"{m.annual_return * 100:.2f}%".ljust(10)
                     + sr.ljust(10)
                     + f"{m.max_drawdown * 100:.2f}%")
    return "\n".join(lines)
