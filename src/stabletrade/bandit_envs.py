"""Bandit environment family: plain arms, linear contextual rewards, a
semi-parametric variant with an arm-independent nuisance walk, and finite
adversarial MDPs with deterministic transitions.

Reward noise is alpha-stable, centered to zero mean, so an arm's expected reward
is exactly its model mean. Pseudo-regret is computed from true means, never from
realized rewards.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParamError, _is_int, _is_real, _require
from .stable_core import StableParams, sample

DEFAULT_CONTEXT_PARAMS = StableParams(1.8, 0.3, 1.0, 0.0)
DEFAULT_NOISE = StableParams(1.8, 0.0, 0.5, 0.0)

_KINDS = ("plain", "linear", "semiparam", "adversarial_mdp")


def _int(v):
    if not _is_int(v):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _int_list(v):
    if not isinstance(v, list):
        raise TypeError(f"expected a list of integers, got {v!r}")
    return [_int(x) for x in v]


# the keys of an MDP table, in MdpTables' field order, with their conversions;
# only integers pass where indices and counts go, nothing is truncated
_MDP_KEYS = {
    "n_states": _int,
    "n_actions": _int,
    "horizon": _int,
    "transitions": lambda v: np.asarray([_int_list(row) for row in v], dtype=int),
    "rewards": lambda v: np.asarray(v, dtype=float),
    "start_states": _int_list,
}


@dataclass
class MdpTables:
    """Deterministic finite MDP: states and actions are 0-based indices."""

    n_states: int
    n_actions: int
    horizon: int
    transitions: np.ndarray       # (S, A) -> next state
    reward_means: np.ndarray      # (S, A)
    start_states: list

    @classmethod
    def from_dict(cls, raw):
        """Validated tables from a mapping with exactly the keys of _MDP_KEYS."""
        if not isinstance(raw, dict) or set(raw) != _MDP_KEYS.keys():
            raise ConfigError(f"mdp table needs exactly the keys {sorted(_MDP_KEYS)}")
        values = []
        for key, convert in _MDP_KEYS.items():
            try:
                values.append(convert(raw[key]))
            except (TypeError, ValueError) as exc:
                raise DataError(f"mdp.{key} is malformed: {exc}") from None
        return cls(*values).validate()

    def validate(self):
        if self.horizon < 1:
            raise DataError(f"horizon must be >= 1, got {self.horizon}")
        if self.transitions.shape != (self.n_states, self.n_actions):
            raise DataError("transition table shape mismatch")
        if self.reward_means.shape != (self.n_states, self.n_actions):
            raise DataError("reward table shape mismatch")
        bad = (self.transitions < 0) | (self.transitions >= self.n_states)
        if np.any(bad):
            s, a = np.argwhere(bad)[0]
            raise DataError(f"transition for state {s}, action {a} leaves the state space")
        if not np.all(np.isfinite(self.reward_means)):
            s, a = np.argwhere(~np.isfinite(self.reward_means))[0]
            raise DataError(f"reward mean for state {s}, action {a} is not finite")
        for s in self.start_states:
            if not (0 <= s < self.n_states):
                raise DataError(f"start state {s} leaves the state space")
        if not self.start_states:
            raise DataError("at least one start state required")
        return self


def true_q(tables):
    """Backward-induction optimal Q, shape (H, S, A); the value beyond the horizon is 0."""
    h_, s_, a_ = tables.horizon, tables.n_states, tables.n_actions
    q = np.zeros((h_ + 1, s_, a_))
    for h in range(h_ - 1, -1, -1):
        nxt = q[h + 1].max(axis=1)[tables.transitions]      # (S, A) continuation value
        q[h] = tables.reward_means + (nxt if h + 1 < h_ else 0.0)
    return q[:h_]


@dataclass
class EnvSpec:
    kind: str
    n_arms: int = 2
    dim: int = 1
    horizon: int = 1000
    arm_means: list = None                 # plain kind
    mu: np.ndarray = None                  # linear/semiparam weight; None -> unit sphere draw
    noise: object = None                   # StableParams, or list per arm, or None
    context_params: StableParams = DEFAULT_CONTEXT_PARAMS
    resample_contexts: bool = False
    n_users: int = 1
    v_max: float = 1.0
    v_step: float = 0.1
    mdp: MdpTables = None
    adversary: str = "round_robin"

    def validate(self):
        """Every check on the spec, so a bad one fails before any env is built."""
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown environment kind {self.kind!r}")
        for key in ("n_arms", "dim", "horizon", "n_users"):
            value = getattr(self, key)
            _require(_is_int(value, 1), f"env.{key}", value, "an integer >= 1")
        for key in ("v_max", "v_step"):
            value = getattr(self, key)
            _require(_is_real(value) and value >= 0.0, f"env.{key}", value,
                     "a finite number >= 0")
        _require(isinstance(self.resample_contexts, bool), "env.resample_contexts",
                 self.resample_contexts, "true or false")
        if self.kind == "plain":
            if self.arm_means is None:
                raise ConfigError("plain environments need arm_means")
            if self.dim != 1:
                raise ConfigError("plain environments are dimensionless, set dim=1")
            if len(self.arm_means) != self.n_arms:
                raise ConfigError(f"env.arm_means has {len(self.arm_means)} entries "
                                  f"but n_arms is {self.n_arms}")
            _require(np.all(np.isfinite(self.arm_means)), "env.arm_means", self.arm_means,
                     "finite numbers")
        if self.kind in ("linear", "semiparam") and self.mu is not None:
            mu = np.atleast_1d(self.mu)
            if len(mu) != self.dim:
                raise ConfigError(f"env.mu has length {len(mu)} but dim is {self.dim}")
            _require(np.all(np.isfinite(mu)), "env.mu", self.mu, "finite numbers")
        if self.noise is not None and not isinstance(self.noise, StableParams):
            if self.kind == "adversarial_mdp":
                raise ConfigError("env.noise of an MDP must be a single parameter set")
            if len(self.noise) != self.n_arms:
                raise ConfigError(f"env.noise has {len(self.noise)} parameter sets "
                                  f"but n_arms is {self.n_arms}")
        if self.kind == "adversarial_mdp" and self.mdp is None:
            raise ConfigError("adversarial_mdp environments need mdp tables")
        if self.adversary not in ("round_robin", "greedy"):
            raise ConfigError(f"unknown adversary {self.adversary!r}")
        return self


@dataclass
class RoundContext:
    t: int
    contexts: np.ndarray          # (n_arms, dim)
    user: int = 0


@dataclass
class RunTrace:
    arms: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    opt_means: list = field(default_factory=list)
    chosen_means: list = field(default_factory=list)
    users: list = field(default_factory=list)

    def record(self, ctx, arm, reward, means):
        self.arms.append(int(arm))
        self.rewards.append(float(reward))
        self.opt_means.append(float(np.max(means)))
        self.chosen_means.append(float(means[arm]))
        self.users.append(ctx.user)


class BanditEnv:
    """plain / linear / semiparam environments behind one pull interface.

    Context, nuisance and user streams are separate rng substreams, so the
    context sequence never depends on which arms get pulled.
    """

    def __init__(self, spec, seed):
        spec.validate()
        self.spec = spec
        ss = np.random.SeedSequence([int(seed), 0xBA4D17])
        ctx_ss, noise_ss, user_ss, mu_ss = ss.spawn(4)
        self._ctx_rng = np.random.default_rng(ctx_ss)
        self._noise_rng = np.random.default_rng(noise_ss)
        self._user_rng = np.random.default_rng(user_ss)

        if spec.kind == "plain":
            self.mu = None
            self.arm_means = np.asarray(spec.arm_means, dtype=float)
        else:
            if spec.mu is not None:
                self.mu = np.asarray(spec.mu, dtype=float)
            else:
                g = np.random.default_rng(mu_ss).normal(size=spec.dim)
                self.mu = g / np.linalg.norm(g)
            self.arm_means = None

        noise = spec.noise if spec.noise is not None else DEFAULT_NOISE
        if isinstance(noise, StableParams):
            noise = [noise] * spec.n_arms
        self.noise = list(noise)

        self._fixed_contexts = None
        if spec.kind != "plain" and not spec.resample_contexts:
            self._fixed_contexts = self._draw_contexts()
        self._ctx_cache = []
        self._v_cache = [0.0]

    def _draw_contexts(self):
        return sample(
            self.spec.context_params,
            self.spec.n_arms * self.spec.dim,
            self._ctx_rng,
        ).reshape(self.spec.n_arms, self.spec.dim)

    def _contexts_at(self, t):
        if self.spec.kind == "plain":
            return np.zeros((self.spec.n_arms, 1))
        if self._fixed_contexts is not None:
            return self._fixed_contexts
        while len(self._ctx_cache) <= t:
            self._ctx_cache.append(self._draw_contexts())
        return self._ctx_cache[t]

    def _v_at(self, t):
        # reflected-bounded nuisance walk, advanced lazily one round at a time
        while len(self._v_cache) <= t:
            w = self._user_rng.uniform(-self.spec.v_step, self.spec.v_step)
            nxt = float(np.clip(self._v_cache[-1] + w, -self.spec.v_max, self.spec.v_max))
            self._v_cache.append(nxt)
        return self._v_cache[t]

    def context(self, t):
        return RoundContext(t=t, contexts=self._contexts_at(t), user=t % self.spec.n_users)

    def true_means(self, t):
        """Per-arm expected rewards at round t."""
        if self.spec.kind == "plain":
            return self.arm_means.copy()
        base = self._contexts_at(t) @ self.mu
        if self.spec.kind == "semiparam":
            base = base + self._v_at(t)
        return base

    def pull(self, t, arm):
        if not (0 <= arm < self.spec.n_arms):
            raise ParamError(f"arm {arm} out of range")
        mean = self.true_means(t)[arm]
        nz = self.noise[arm]
        eps = float(sample(nz, 1, self._noise_rng)[0]) - nz.mean()
        return float(mean + eps)


class MdpEnv:
    """Episodic adversarial MDP with deterministic transitions."""

    def __init__(self, spec, seed):
        spec.validate()
        self.spec = spec
        self.tables = spec.mdp.validate()
        self._noise_rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x3D9]))
        self._episode = 0
        self.noise = spec.noise

    def start_state(self, values=None):
        """Adversary's pick for the next episode. greedy mode minimizes the
        caller-provided state value estimate; without one it falls back to cycling."""
        starts = self.tables.start_states
        if self.spec.adversary == "greedy" and values is not None:
            vals = [values(s) for s in starts]
            pick = starts[int(np.argmin(vals))]
        else:
            pick = starts[self._episode % len(starts)]
        self._episode += 1
        return pick

    def step(self, state, action):
        if not (0 <= action < self.tables.n_actions):
            raise ParamError(f"action {action} out of range")
        mean = float(self.tables.reward_means[state, action])
        r = mean
        if self.noise is not None:
            r += float(sample(self.noise, 1, self._noise_rng)[0]) - self.noise.mean()
        return int(self.tables.transitions[state, action]), r


@dataclass
class EpisodeTrace:
    states: list
    actions: list
    rewards: list
    final_state: int = None


def mdp_episode(env, policy, values=None):
    """Play one episode; policy maps (stage, state) to an action.

    Returns the trace and the episodic pseudo-regret: the optimal start value
    minus the sum of true reward means along the taken trajectory.
    """
    tables = env.tables
    q = true_q(tables)
    s = env.start_state(values=values)
    states, actions, rewards = [], [], []
    mean_total = 0.0
    cur = s
    for h in range(tables.horizon):
        a = int(policy(h, cur))
        nxt, r = env.step(cur, a)
        states.append(cur)
        actions.append(a)
        rewards.append(r)
        mean_total += float(tables.reward_means[cur, a])
        cur = nxt
    regret_ep = float(q[0][s].max() - mean_total)
    trace = EpisodeTrace(states=states, actions=actions, rewards=rewards, final_state=cur)
    return trace, regret_ep


def make_env(spec, seed):
    spec.validate()
    if spec.kind == "adversarial_mdp":
        return MdpEnv(spec, seed)
    return BanditEnv(spec, seed)


def play(env, agent, rounds):
    """Drive a step-based agent for the given number of rounds, recording a trace."""
    trace = RunTrace()
    for t in range(rounds):
        ctx = env.context(t)
        arm, reward = agent.step(ctx, env)
        trace.record(ctx, arm, reward, env.true_means(t))
    return trace


@dataclass
class RegretResult:
    total: float
    prefix: np.ndarray


def regret(trace):
    """Cumulative pseudo-regret sum_t (mu*_t - mu_{a_t}) with its prefix curve."""
    gaps = np.asarray(trace.opt_means) - np.asarray(trace.chosen_means)
    prefix = np.cumsum(gaps)
    total = float(prefix[-1]) if prefix.size else 0.0
    return RegretResult(total=total, prefix=prefix)
