"""Actor-critic trading with optional floor-strategy supervision, plus baselines.

The continuous learner is DDPG on a box action space: critic regression against
softly-updated targets, deterministic chain-rule actor ascent, and, when an
expert is attached, a large-margin term that ranks the floor strategy's action
above sampled alternatives. Discrete baselines (tabular Q/SARSA, a small DQN,
performance-weighted constant-rebalanced mixtures) and the bandit traders feed
the tournament and backtest tables.
"""

from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .bandit_envs import RoundContext
from .errors import ConfigError, NumericError, ParamError, _is_int, _is_real, _require
from .market_sim import (
    CppiConfig,
    OhlcvSeries,
    TradingEnv,
    cppi_expert_action,
    median_metrics,
    metrics,
    run_policy,
    split,
    synth_market,
)
from .tinynet import Mlp, adam_init, clip_global_norm, opt_step, soft_update
from .ts_agents import AgentConfig, CtsAgent, PlainAtsAgent


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
        return Batch(*(None if col is None else col[idx] for col in self._cols))


@dataclass
class TrainConfig:
    gamma: float = 0.99
    tau: float = 0.01
    buffer_capacity: int = 100_000
    batch: int = 64
    critic_lr: float = 1e-3
    actor_lr: float = 1e-4
    lam_e: float = 0.3
    hidden: tuple = (64, 64)
    noise_scale: float = 0.3
    noise_final: float = 0.01
    margin_m: float = 1.0
    margin_rho: float = 1.0
    n_candidates: int = 8
    pretrain_steps: int = 1000
    pretrain_episodes: int = 5
    warmup_steps: int = 200
    grad_clip: float = 10.0
    divergence_limit: float = 1e6

    def validate(self):
        for f in fields(self):
            v = getattr(self, f.name)
            _require(f.type is not float or _is_real(v), f"train.{f.name}", v, "a finite number")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must lie in [0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError("tau must lie in (0, 1]")
        for key, least in (("batch", 1), ("buffer_capacity", 1), ("n_candidates", 0),
                           ("pretrain_steps", 0), ("pretrain_episodes", 0),
                           ("warmup_steps", 0)):
            v = getattr(self, key)
            _require(_is_int(v, least), f"train.{key}", v, f"an integer >= {least}")
        if self.buffer_capacity < self.batch:
            raise ConfigError("need buffer capacity >= batch >= 1")
        if not isinstance(self.hidden, (tuple, list)) \
                or not all(_is_int(h, 1) for h in self.hidden):
            raise ConfigError(
                f"train.hidden must be a list of integers >= 1, got {self.hidden!r}")
        if self.lam_e < 0.0:
            raise ConfigError("expert weight must be non-negative")
        if self.margin_rho <= 0.0 or self.margin_m < 0.0:
            raise ConfigError("margin needs rho > 0 and m >= 0")
        return self

    @classmethod
    def from_dict(cls, d, base=None):
        """The keys of d set on top of base (the library defaults when None)."""
        if not isinstance(d, dict):
            raise ConfigError(f"params.backtest.train must be a table, got {d!r}")
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown training keys: {sorted(extra)}")
        cfg = replace(cls() if base is None else base, **d)
        if isinstance(cfg.hidden, list):
            cfg.hidden = tuple(cfg.hidden)
        return cfg.validate()


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
        _, reward, done = super().step(moves)
        return self._state_id(), reward, done


def alternating_series(days):
    """Deterministic price path 10, 11, 10, 11, ... as a one-stock series."""
    close = np.where(np.arange(days) % 2 == 0, 10.0, 11.0)[:, None].astype(float)
    opens = np.vstack([close[:1], close[:-1]])
    return OhlcvSeries(
        dates=[f"d{t:05d}" for t in range(days)],
        tickers=["S0"],
        open=opens,
        high=np.maximum(opens, close),
        low=np.minimum(opens, close),
        close=close,
        volume=np.full((days, 1), 1e6),
    )


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


class DdpgAgent:
    def __init__(self, state_dim, action_dim, config=None, seed=0):
        self.config = (config or TrainConfig()).validate()
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
    gradients; terminal rows drop the bootstrap."""
    cfg = agent.config
    s, a, r, s2, done, _ = batch
    a2 = agent.t_actor.predict(s2)
    q2 = agent.t_critic.predict(np.hstack([s2, a2]))
    y = r + cfg.gamma * (1.0 - done) * q2[:, 0]
    q, cache = agent.critic.forward(np.hstack([s, a]))
    med = _median(np.abs(q[:, 0]))
    if med > cfg.divergence_limit:
        raise NumericError(
            f"critic diverged: median |Q| {med:.3g} exceeds {cfg.divergence_limit:.0e}"
        )
    resid = q[:, 0] - y
    loss = float(np.mean(resid**2))
    gy = (2.0 / len(r)) * resid[:, None]
    grads, _ = agent.critic.backward(cache, gy)
    return loss, grads


def _candidate_set(agent, pi, expert_actions, rng):
    """(n, k + 2, d): the actor's actions pi, the expert's, then k clipped
    Gaussian perturbations of the expert's, drawn perturbation-major."""
    k = agent.config.n_candidates
    n, d = expert_actions.shape
    cands = np.empty((n, k + 2, d))
    cands[:, 0] = pi
    cands[:, 1] = expert_actions
    noise = rng.standard_normal((k, n, d)).transpose(1, 0, 2)
    np.clip(expert_actions[:, None, :] + 0.5 * agent.config.margin_rho * noise,
            -1.0, 1.0, out=cands[:, 2:])
    return cands


def cppi_margin_loss(agent, states, expert_actions, pi=None, candidates=None, rng=None):
    """Margin-ranking loss max_a [Q(s,a) + l(a_E,a)] - Q(s,a_E) and its
    critic gradients, as (value, grads).

    The candidates are ``_candidate_set``'s by default, built from pi (the
    actor's actions on the states, computed here when None) and rng (the
    agent's when None); their column 1 is the expert's action. Candidates
    given as (n, c, d) are ranked as they are, and the expert's action takes
    one more column. One critic pass covers every column, and the best and
    expert rows' activations come from it. Non-negative whenever the expert
    action sits in the candidate set.
    """
    cfg = agent.config
    states = np.atleast_2d(np.asarray(states, dtype=float))
    expert_actions = np.atleast_2d(np.asarray(expert_actions, dtype=float))
    n, sd = states.shape
    if candidates is None:
        if pi is None:
            pi = agent.actor.predict(states)
        candidates = _candidate_set(agent, pi, expert_actions,
                                    rng if rng is not None else agent.rng)
        n_cand = width = candidates.shape[1]
        e_col = 1
    else:
        candidates = np.asarray(candidates, dtype=float)
        n_cand = e_col = candidates.shape[1]
        width = n_cand + 1
    # each state beside each of its candidates (and the extra expert column)
    x = np.empty((n, width, sd + expert_actions.shape[1]))
    x[:, :, :sd] = states[:, None, :]
    x[:, :n_cand, sd:] = candidates
    x[:, n_cand:, sd:] = expert_actions[:, None, :]
    q = agent.critic.predict(x.reshape(n * width, -1))[:, 0].reshape(n, width)
    dist = np.linalg.norm(candidates - expert_actions[:, None, :], axis=2)
    pen = cfg.margin_m * np.minimum(1.0, dist / cfg.margin_rho)
    scores = q[:, :n_cand] + pen
    best = np.argmax(scores, axis=1)
    rows = np.arange(n)
    value = float(np.mean(scores[rows, best] - q[rows, e_col]))
    # the pass's [best rows; expert rows], split into two caches
    cache = agent.critic.cache_rows(np.concatenate([rows * width + best,
                                                    rows * width + e_col]))
    cache_b = {"acts": [h[:n] for h in cache["acts"]], "squeeze": False}
    cache_e = {"acts": [h[n:] for h in cache["acts"]], "squeeze": False}
    up = np.full((n, 1), 1.0 / n)
    g_best, _ = agent.critic.backward(cache_b, up)
    g_exp, _ = agent.critic.backward(cache_e, -up)
    return value, g_best + g_exp


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
        j_e, mg = cppi_margin_loss(agent, batch.s, batch.a_exp, pi=pi)
        grads = grads + cfg.lam_e * mg
    clip_global_norm(agent.critic, grads, cfg.grad_clip)
    opt_step(agent.critic, grads, agent.opt_critic, lr=cfg.critic_lr)
    return td, j_e


def actor_loss_grads(agent, states, actor_pass=None):
    """Loss -mean Q(s, pi(s)) and its actor gradients via the critic's input;
    actor_pass is actor.forward(states) when the caller has made it."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    a, cache_a = agent.actor.forward(states) if actor_pass is None else actor_pass
    q, cache_c = agent.critic.forward(np.hstack([states, a]))
    up = np.full((states.shape[0], 1), -1.0 / states.shape[0])
    _, gx = agent.critic.backward(cache_c, up, want_gx=True)
    ga = gx[:, agent.state_dim:]
    grads, _ = agent.actor.backward(cache_a, ga)
    return float(-np.mean(q)), grads


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
    steps = 0
    for _ in range(cfg.pretrain_steps):
        if len(buffer) < cfg.batch:
            break
        ddpg_update(agent, buffer.sample(cfg.batch, agent.rng), expert=True)
        steps += 1
    return steps


def train(agent, env, episodes):
    """Noise-perturbed interaction with replay updates; deterministic per seed."""
    cfg = agent.config.validate()
    buffer = ReplayBuffer(cfg.buffer_capacity)
    expert_mode = cfg.lam_e > 0.0 and getattr(env, "expert", None) is not None
    pretrained = _pretrain(agent, env, buffer, cfg) if expert_mode and cfg.pretrain_steps else 0
    logs = []
    for ep in range(episodes):
        frac = ep / max(1, episodes - 1)
        noise = cfg.noise_scale + frac * (cfg.noise_final - cfg.noise_scale)
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
        return int(np.argmax(q[s]))

    for ep in range(episodes):
        eps = _EPS_START + (ep / max(1, episodes - 1)) * (_EPS_FINAL - _EPS_START)
        s = env.reset()
        a = pick(s, eps)
        done = False
        while not done:
            s2, r, done = env.step(a)
            a2 = pick(s2, eps)
            if on_policy:
                boot = q[s2, a2]
            else:
                boot = float(np.max(q[s2]))
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
            x = np.zeros(self.net.sizes[0])
            x[s] = 1.0
            qv = self.net.predict(x)
            return int(np.argmax(qv))
        return policy


def dqn_lite(env, episodes, seed):
    """Small replay-and-target-network Q learner over one-hot states."""
    _check_discrete(env)
    rng = np.random.default_rng(seed)
    net = Mlp([env.n_states, _DQN_HIDDEN, env.n_actions], seed=int(rng.integers(2**31)))
    target = net.copy()
    opt = adam_init(net)
    buffer = ReplayBuffer(_DQN_CAPACITY)
    onehot = np.eye(env.n_states)    # row s is state s's input

    for ep in range(episodes):
        eps = _EPS_START + (ep / max(1, episodes - 1)) * (_EPS_FINAL - _EPS_START)
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
            if len(buffer) >= _DQN_BATCH:
                si, ai, ri, s2i, di, _ = buffer.sample(_DQN_BATCH, rng)
                q2 = target.predict(onehot[s2i])
                y = ri + _GAMMA * (1.0 - di) * q2.max(axis=1)
                qv, cache = net.forward(onehot[si])
                gy = np.zeros_like(qv)
                rows = np.arange(_DQN_BATCH)
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


def bandit_trade(kind, series, seed, initial_cash=100.0, cost_bps=10.0):
    """Run a Thompson-sampling trader over sell/hold/buy combination arms."""
    env = DiscreteTradingEnv(series, initial_cash=initial_cash, cost_bps=cost_bps)
    env.reset()
    shim = _ArmPullShim(env)
    n = env.n_actions
    if kind == "cb_ts":
        agent = CtsAgent(n, n, AgentConfig(algorithm="cts"), seed=seed)
        contexts = np.eye(n)
    elif kind == "ac_ts":
        agent = PlainAtsAgent(n, AgentConfig(algorithm="plain_ats"), seed=seed)
        contexts = np.ones((n, 1))
    else:
        raise ConfigError(f"unknown bandit trader {kind!r}")
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


def run_trader(name, series, seed, episodes):
    """Train the named agent on a series; return its evaluation equity curve."""
    if name in ("cb_ts", "ac_ts"):
        return bandit_trade(name, series, seed)
    if name not in ("ql", "sarsa", "dqn"):
        raise ConfigError(f"unknown tournament agent {name!r}")
    env = DiscreteTradingEnv(series)
    if name == "dqn":
        res = dqn_lite(env, episodes, seed=seed)
    else:
        res = (tabular_q if name == "ql" else sarsa)(env, episodes, seed)
    return run_policy(env, res.greedy_policy())


def tournament(names, seed, days, episodes):
    """One round: every named agent trains and trades on one seeded one-stock
    market under one trader seed; returns the round returns in roster order,
    which TournamentResult.from_returns folds into the win matrix."""
    series = synth_market(1, days, drift=0.05, vol=0.35, seed=seed * 7919, alpha=1.7)
    return [float(_episode_return(run_trader(name, series, seed * 104729, episodes)))
            for name in names]


def format_table2(result):
    """Pairwise win matrix, one 'w:l' cell per pair, plus average wins."""
    labels = [_T2_LABELS.get(n, n.upper()) for n in result.names]
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


@dataclass
class BacktestConfig:
    episodes: int = 30
    split_ratio: float = 0.7
    initial_cash: float = 100.0
    cost_bps: float = 10.0
    floor_frac: float = 0.85
    multiplier: float = 2.0
    window: int = 3
    reward_scale: float = 0.1
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        noise_scale=0.2, warmup_steps=64, pretrain_steps=300, pretrain_episodes=3))

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"params.backtest must be a table, got {d!r}")
        d = dict(d)
        train = d.pop("train", None)
        known = {f.name for f in fields(cls)}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown backtest keys: {sorted(extra)}")
        cfg = cls(**d)
        if train is not None:
            cfg.train = TrainConfig.from_dict(train, base=cfg.train)
        return cfg.validate()

    def validate(self):
        for key in ("episodes", "window"):
            v = getattr(self, key)
            _require(_is_int(v, 1), f"backtest.{key}", v, "an integer >= 1")
        for key, ok, want in (("split_ratio", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
                              ("initial_cash", lambda v: v > 0.0, "> 0"),
                              ("cost_bps", lambda v: 0.0 <= v < 1e4, "in [0, 10000)"),
                              ("floor_frac", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
                              ("multiplier", lambda v: v >= 0.0, ">= 0"),
                              ("reward_scale", lambda v: v > 0.0, "> 0")):
            v = getattr(self, key)
            _require(_is_real(v) and ok(v), f"backtest.{key}", v, f"a finite number {want}")
        self.floor_rule()
        return self

    def floor_rule(self):
        """The CPPI rule that supervises ``cppi_ddpg``: a floor of
        ``floor_frac`` times the initial cash."""
        return CppiConfig(floor=self.floor_frac * self.initial_cash,
                          multiplier=self.multiplier).validate(self.initial_cash)


def _ddpg_curve(train_series, test_series, seed, cfg, supervised):
    expert = cfg.floor_rule() if supervised else None
    def make_env(series):
        return VectorMarketEnv(series, window=cfg.window,
                               initial_cash=cfg.initial_cash,
                               cost_bps=cfg.cost_bps,
                               reward_scale=cfg.reward_scale,
                               expert=expert)
    env = make_env(train_series)
    tc = cfg.train if supervised else replace(cfg.train, lam_e=0.0)
    agent = DdpgAgent(env.state_dim, env.action_dim, config=tc, seed=seed)
    train(agent, env, cfg.episodes)
    return run_policy(make_env(test_series), agent.act)


def backtest_curve(name, train_series, test_series, seed, cfg):
    """Equity curve of one backtest agent on the held-out series."""
    if name == "up":
        return up_run(test_series, initial_cash=cfg.initial_cash)
    if name == "dqn":
        env = DiscreteTradingEnv(train_series, initial_cash=cfg.initial_cash,
                                 cost_bps=cfg.cost_bps)
        res = dqn_lite(env, cfg.episodes, seed=seed)
        return run_policy(DiscreteTradingEnv(test_series, initial_cash=cfg.initial_cash,
                                             cost_bps=cfg.cost_bps),
                          res.greedy_policy())
    if name == "ddpg":
        return _ddpg_curve(train_series, test_series, seed, cfg, supervised=False)
    if name == "cppi_ddpg":
        return _ddpg_curve(train_series, test_series, seed, cfg, supervised=True)
    if name == "ad_ts":
        return bandit_trade("ac_ts", test_series, seed,
                            initial_cash=cfg.initial_cash, cost_bps=cfg.cost_bps)
    raise ConfigError(f"unknown backtest agent {name!r}")


def backtest(series, names, seeds, cfg):
    """Train on the chronological head, score AR/SR/MaxD on the tail; returns
    each named agent's median Metrics over the seeds."""
    train_series, test_series = split(series, cfg.split_ratio)
    return {name: median_metrics([metrics(backtest_curve(name, train_series, test_series,
                                                         int(seed), cfg))
                                  for seed in seeds])
            for name in names}


def format_table3(names, rows):
    """AR / SR / MaxD table, one row per strategy; rows maps each name to its
    Metrics."""
    width = max(11, max(len(_T3_LABELS.get(n, n.upper())) for n in names) + 2)
    lines = ["".ljust(width) + "AR".ljust(10) + "SR".ljust(10) + "MaxD"]
    for name in names:
        m = rows[name]
        lab = _T3_LABELS.get(name, name.upper())
        sr = "n/a" if np.isnan(m.sharpe) else f"{m.sharpe * 100:.1f}%"
        lines.append(lab.ljust(width)
                     + f"{m.annual_return * 100:.2f}%".ljust(10)
                     + sr.ljust(10)
                     + f"{m.max_drawdown * 100:.2f}%")
    return "\n".join(lines)
