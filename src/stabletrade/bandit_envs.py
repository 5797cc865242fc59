"""Bandit environment family: plain arms, linear contextual rewards, a
semi-parametric variant with an arm-independent nuisance walk, and finite
adversarial MDPs with deterministic transitions.

Reward noise is alpha-stable, centered to zero mean, so an arm's expected reward
is exactly its model mean. Pseudo-regret is computed from true means, never from
realized rewards.

Pulls and MDP steps read their noise from one stream per env (_NoiseStream),
drawn ahead in blocks of _NOISE_BLOCK pulls and transformed once per block for
each of the env's noise parameter sets. Each pull's noise is bit for bit the
one-draw sample() it replaces, at the same position of the same rng stream.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (ConfigError, DataError, ParamError, _check_table, _int_at_least, _is_int,
                     _is_real, _known_keys, _number, _one_of, _require)
from .stable_core import StableParams, _cms_from, sample

DEFAULT_CONTEXT_PARAMS = StableParams(1.8, 0.3, 1.0, 0.0)
DEFAULT_NOISE = StableParams(1.8, 0.0, 0.5, 0.0)
# pulls whose noise one refill of a _NoiseStream draws ahead
_NOISE_BLOCK = 256


def _ints(v):
    if not (isinstance(v, list) and all(_is_int(x) for x in v)):
        raise TypeError(f"expected a list of integers, got {v!r}")
    return v


# the keys of an MDP table, in MdpTables' field order, with their conversions;
# counts pass as they are, and no index is truncated
_MDP_KEYS = {
    "n_states": None, "n_actions": None, "horizon": None,
    "transitions": lambda v: np.asarray([_ints(row) for row in v], dtype=int),
    "rewards": lambda v: np.asarray(v, dtype=float),
    "start_states": _ints,
}


# the check table of MdpTables, one entry per field; from_dict's conversions
# give these types, so only a directly built table can miss them
_MDP_CHECKS = {
    "n_states": _int_at_least(1), "n_actions": _int_at_least(1), "horizon": _int_at_least(1),
    "transitions": ((lambda v: isinstance(v, np.ndarray) and v.dtype.kind == "i"), "integers"),
    "reward_means": ((lambda v: isinstance(v, np.ndarray) and v.dtype.kind == "f"), "floats"),
    "start_states": ((lambda v: isinstance(v, (list, tuple)) and v and all(map(_is_int, v))),
                     "a non-empty list of integers"),
}


def _frozen(a):
    """A read-only copy of array a."""
    a = a.copy()
    a.flags.writeable = False
    return a


def _rebuilt(self):
    """__reduce__ of the frozen settings classes: pickle and deepcopy rebuild
    through the constructor, which checks the fields and freezes the arrays."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class MdpTables:
    """Deterministic finite MDP: states and actions are 0-based indices."""

    n_states: int
    n_actions: int
    horizon: int
    transitions: np.ndarray       # (S, A) -> next state, read-only
    reward_means: np.ndarray      # (S, A), read-only
    start_states: tuple

    __reduce__ = _rebuilt

    @classmethod
    def from_dict(cls, raw):
        """Validated tables from a mapping with exactly the keys of _MDP_KEYS."""
        if not isinstance(raw, dict) or set(raw) != _MDP_KEYS.keys():
            raise ConfigError(f"mdp table needs exactly the keys {sorted(_MDP_KEYS)}")
        values = []
        for key, convert in _MDP_KEYS.items():
            try:
                values.append(raw[key] if convert is None else convert(raw[key]))
            except (TypeError, ValueError) as exc:
                raise DataError(f"mdp.{key} is malformed: {exc}") from None
        return cls(*values)

    def __post_init__(self):
        _check_table(vars(self), _MDP_CHECKS, "mdp")
        shape = (self.n_states, self.n_actions)
        for key, table in (("transitions", self.transitions), ("rewards", self.reward_means)):
            if table.shape != shape:
                raise DataError(f"mdp.{key} has shape {table.shape}, not n_states x n_actions")
        bad = (self.transitions < 0) | (self.transitions >= self.n_states)
        if np.any(bad):
            s, a = np.argwhere(bad)[0]
            raise DataError(f"mdp.transitions of state {s}, action {a} leave the state space")
        if not np.all(np.isfinite(self.reward_means)):
            s, a = np.argwhere(~np.isfinite(self.reward_means))[0]
            raise DataError(f"mdp.rewards of state {s}, action {a} are not finite")
        if not all(0 <= s < self.n_states for s in self.start_states):
            raise DataError(f"mdp.start_states {self.start_states} leave the state space")
        object.__setattr__(self, "transitions", _frozen(self.transitions))
        object.__setattr__(self, "reward_means", _frozen(self.reward_means))
        object.__setattr__(self, "start_states", tuple(self.start_states))


def _backward_q(means, transitions, horizon):
    """Backward-induction Q of deterministic successors, shape (H, S, A): a
    negative transition is an unknown successor, continuation 0, and the
    value beyond the horizon is 0."""
    known, succ = transitions >= 0, np.maximum(transitions, 0)
    q = np.zeros((horizon + 1,) + means.shape)
    for h in range(horizon - 1, -1, -1):
        q[h] = means + np.where(known, q[h + 1].max(axis=1)[succ], 0.0)
    return q[:horizon]


def true_q(tables):
    """Optimal Q of the true tables, shape (H, S, A)."""
    return _backward_q(tables.reward_means, tables.transitions, tables.horizon)


def _floats(raw, key):
    """raw's items as floats; a ConfigError naming key when one is no number."""
    try:
        return [float(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a list of numbers, got {raw!r}") from None


def _stable_from(raw, key):
    """[alpha, beta, sigma, delta] or a dict with exactly those keys; a list of
    them gives one parameter set each."""
    if isinstance(raw, list) and raw and isinstance(raw[0], (list, dict)):
        return [_stable_from(v, f"{key}[{i}]") for i, v in enumerate(raw)]
    if isinstance(raw, dict):
        if set(raw) != {"alpha", "beta", "sigma", "delta"}:
            raise ConfigError(f"{key}: stable params need alpha, beta, sigma and delta")
        raw = [raw["alpha"], raw["beta"], raw["sigma"], raw["delta"]]
    elif not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{key}: stable params must be a 4-list or a dict")
    elif len(raw) != 4:
        raise ConfigError(f"{key}: stable params need [alpha, beta, sigma, delta]")
    try:
        return StableParams(*_floats(raw, key))
    except ParamError as exc:
        raise ConfigError(f"{key}: {exc}") from None


# how EnvSpec.from_dict parses the env keys whose JSON form is not the stored
# one; null passes as it is
_ENV_PARSE = {"arm_means": _floats, "mu": lambda raw, key: np.asarray(_floats(raw, key)),
              "noise": _stable_from, "context_params": _stable_from,
              "mdp": lambda raw, key: MdpTables.from_dict(raw)}
# the env keys each kind reads besides kind; any other key would only change
# the config's hash, so from_dict rejects it
_ARMED = {"n_arms", "dim", "horizon", "noise", "n_users"}
_CONTEXTUAL = _ARMED | {"mu", "context_params", "resample_contexts"}
_ENV_READS = {"plain": _ARMED | {"arm_means"}, "linear": _CONTEXTUAL,
              "semiparam": _CONTEXTUAL | {"v_max", "v_step"},
              "adversarial_mdp": {"horizon", "noise", "mdp", "adversary"}}
# the check table of an env, one entry per EnvSpec field; from_dict parses
# the list-valued keys first, into floats, arrays, StableParams, MdpTables
_ENV_CHECKS = {
    "kind": _one_of(_ENV_READS), "n_arms": _int_at_least(1), "dim": _int_at_least(1),
    "horizon": _int_at_least(1),
    "arm_means": ((lambda v: v is None or isinstance(v, (list, tuple))
                   and all(_is_real(m) for m in v)), "finite numbers"),
    "mu": ((lambda v: v is None or isinstance(v, np.ndarray) and v.dtype.kind == "f"
            and bool(np.all(np.isfinite(v)))), "finite numbers"),
    "noise": ((lambda v: v is None or isinstance(v, StableParams) or (
        isinstance(v, (list, tuple)) and all(isinstance(p, StableParams) for p in v))),
        "stable parameters, one set or one per arm"),
    "context_params": ((lambda v: isinstance(v, StableParams)), "stable parameters"),
    "resample_contexts": ((lambda v: isinstance(v, bool)), "true or false"),
    "n_users": _int_at_least(1), "v_max": _number(ge=0), "v_step": _number(ge=0),
    "mdp": ((lambda v: v is None or isinstance(v, MdpTables)), "an mdp table"),
    "adversary": _one_of(("round_robin", "greedy")),
}


@dataclass(frozen=True)
class EnvSpec:
    """An env's settings, checked when built; dataclasses.replace changes one."""

    kind: str
    n_arms: int = 2
    dim: int = 1
    horizon: int = 1000
    arm_means: tuple = None                # plain kind
    mu: np.ndarray = None                  # read-only linear/semiparam weight; None -> sphere draw
    noise: object = None                   # StableParams, or a tuple per arm, or None
    context_params: StableParams = DEFAULT_CONTEXT_PARAMS
    resample_contexts: bool = False
    n_users: int = 1
    v_max: float = 1.0
    v_step: float = 0.1
    mdp: MdpTables = None
    adversary: str = "round_robin"

    __reduce__ = _rebuilt

    @classmethod
    def from_dict(cls, raw):
        """The spec of a config's env table, its JSON lists and tables parsed;
        a key that the kind never reads is refused."""
        kind = _known_keys(raw, _ENV_CHECKS, "env").get("kind")
        ok, want = _ENV_CHECKS["kind"]
        _require(ok(kind), "env.kind", kind, want)
        unread = sorted(set(raw) - _ENV_READS[kind] - {"kind"})
        if unread:
            raise ConfigError(f"env kind {kind!r} never reads "
                              + ", ".join(f"env.{key}" for key in unread))
        return cls(**{key: v if v is None or key not in _ENV_PARSE
                      else _ENV_PARSE[key](v, f"env.{key}") for key, v in raw.items()})

    def __post_init__(self):
        _check_table(vars(self), _ENV_CHECKS, "env")
        if self.kind == "plain":
            if self.arm_means is None:
                raise ConfigError("plain environments need arm_means")
            if self.dim != 1:
                raise ConfigError("plain environments are dimensionless, set dim=1")
            if len(self.arm_means) != self.n_arms:
                raise ConfigError(f"env.arm_means has {len(self.arm_means)} entries "
                                  f"but n_arms is {self.n_arms}")
        if self.mu is not None and self.mu.shape != (self.dim,):
            raise ConfigError(f"env.mu has shape {self.mu.shape} but dim is {self.dim}")
        if isinstance(self.noise, (list, tuple)):
            if self.kind == "adversarial_mdp":
                raise ConfigError("env.noise of an MDP must be a single parameter set")
            if len(self.noise) != self.n_arms:
                raise ConfigError(f"env.noise has {len(self.noise)} parameter sets "
                                  f"but n_arms is {self.n_arms}")
            object.__setattr__(self, "noise", tuple(self.noise))
        if self.kind == "adversarial_mdp" and self.mdp is None:
            raise ConfigError("adversarial_mdp environments need mdp tables")
        if self.arm_means is not None:
            object.__setattr__(self, "arm_means", tuple(self.arm_means))
        if self.mu is not None:
            object.__setattr__(self, "mu", _frozen(self.mu))


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


class _NoiseStream:
    """Zero-mean reward noise for an env's pulls, drawn ahead in blocks.

    A block holds, per future pull, one uniform and then one standard
    exponential, drawn as scalars in that order: the stream that
    sample(params, 1, rng) consumes for its one draw, whatever the params.
    (rng.random() is rng.uniform() and rng.standard_exponential() is
    rng.exponential() at their defaults, the same value from the same
    draw.) Each distinct parameter set then transforms the whole block
    once, so pull j's noise under params[i] is the float that
    sample(params[i], 1, rng) - params[i].mean() gives at that stream
    position. Only pulls read rng, so drawing ahead shows nowhere else.
    """

    def __init__(self, rng, params):
        self._rng = rng
        self._sets = list(dict.fromkeys(params))
        self._set_of = [self._sets.index(p) for p in params]
        self._eps = None              # per distinct set, the block's noise as floats
        self._next = _NOISE_BLOCK     # the next pull's index in the block

    def _refill(self):
        uniform, exponential = self._rng.random, self._rng.standard_exponential
        u, w = np.empty(_NOISE_BLOCK), np.empty(_NOISE_BLOCK)
        for j in range(_NOISE_BLOCK):
            u[j] = uniform()
            w[j] = exponential()
        self._eps = []
        for p in self._sets:
            m = p.mean()
            self._eps.append(((m + p.sigma * _cms_from(p.alpha, p.beta, u, w)) - m).tolist())
        self._next = 0

    def draw(self, i):
        """The next pull's noise under params[i]."""
        if self._next == _NOISE_BLOCK:
            self._refill()
        self._next += 1
        return self._eps[self._set_of[i]][self._next - 1]


class BanditEnv:
    """plain / linear / semiparam environments behind one pull interface.

    Context, nuisance and user streams are separate rng substreams, so the
    context sequence never depends on which arms get pulled.
    """

    def __init__(self, spec, seed):
        self.spec = spec
        ss = np.random.SeedSequence([int(seed), 0xBA4D17])
        ctx_ss, noise_ss, user_ss, mu_ss = ss.spawn(4)
        self._ctx_rng = np.random.default_rng(ctx_ss)
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
        self._noise = _NoiseStream(np.random.default_rng(noise_ss), noise)

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
        return float(mean + self._noise.draw(arm))


class MdpEnv:
    """Episodic adversarial MDP with deterministic transitions."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.tables = spec.mdp
        self._noise = None
        if spec.noise is not None:
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x3D9]))
            self._noise = _NoiseStream(rng, [spec.noise])
        self._episode = 0

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
        if self._noise is not None:
            r += self._noise.draw(0)
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
