"""Thompson-sampling agents over the bandit environment family.

Two lineages share one linear update rule:

  * Gaussian lineage (cts, scts): arm parameters are the observed contexts, the
    shared weight mu is resampled from N(center, v^2 Gamma^-1), and the update
    weights are Monte-Carlo pull probabilities pi.
  * Stable lineage (acts, sacts, plain_ats, mdp_acts): per-arm location draws
    theta evolve by Metropolis-Hastings on a numeric stable likelihood, and the
    update weights are normalized upper-tail probabilities beyond the chosen
    arm's score.

Every round after warm-up runs one MH sweep, and each sweep evaluates every
arm's likelihood over that arm's whole reward history at dim candidate
locations: O(pulls x dim) density points per arm, so a run of T rounds costs
O(T^2) in total.

The semi-contextual variants keep one state slot per user and correct the local
estimator with an affinity-weighted sum over the other users' slots; at
lambda = 0 the corrections are exactly zero and each slot replays its parent
algorithm draw for draw.
"""

from dataclasses import dataclass, field

import numpy as np

from .bandit_envs import MdpTables, mdp_episode
from .errors import ConfigError, NumericError, ParamError
from .stable_core import PdfTable, estimate_ecf, _tan_half

SNAPSHOT_VERSION = 1

_ALGORITHMS = ("cts", "acts", "scts", "sacts", "mdp_acts", "plain_ats")


@dataclass
class AgentConfig:
    algorithm: str
    v: float = None              # exploration scale; None picks a lineage default
    lam: float = 0.3             # cross-user coupling strength
    refresh_every: int = 25      # rewards between characteristic-function refits
    mc_probs: int = 200          # resamples behind each pi estimate
    mh_step_scale: float = 0.1   # proposal step as a fraction of the arm scale
    warmup: int = None           # pulls per arm before the posterior machinery engages
    debug_checks: bool = False

    def validate(self):
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.lam < 0:
            raise ConfigError("lam must be non-negative")
        if self.refresh_every < 1 or self.mc_probs < 1:
            raise ConfigError("refresh_every and mc_probs must be positive")
        if self.mh_step_scale <= 0:
            raise ConfigError("mh_step_scale must be positive")
        return self

    def resolved_v(self):
        if self.v is not None:
            return float(self.v)
        return 0.25 if self.algorithm in ("cts", "scts") else 0.0

    def resolved_warmup(self, dim):
        if self.warmup is not None:
            return int(self.warmup)
        return max(3, dim)

    @classmethod
    def from_dict(cls, raw):
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown agent config keys: {sorted(extra)}")
        if "algorithm" not in raw:
            raise ConfigError("agent config needs an algorithm name")
        return cls(**raw).validate()


# ---------------------------------------------------------------------------
# shared numeric pieces


def _solve_spd(b, y):
    try:
        return np.linalg.solve(b, y)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(b, y, rcond=None)[0]


def _draw_mu(center, gamma, v, rng):
    """One draw from N(center, v^2 gamma^-1); consumes no randomness at v = 0."""
    if v <= 0.0:
        return center.copy()
    chol = np.linalg.cholesky(gamma)
    z = rng.normal(size=center.shape[0])
    return center + v * np.linalg.solve(chol.T, z)


def _pi_estimate(thetas, center, gamma, v, n_mc, rng):
    """Monte-Carlo pull probabilities under resampled mu draws."""
    n = thetas.shape[0]
    if v <= 0.0:
        pi = np.zeros(n)
        pi[int(np.argmax(thetas @ center))] = 1.0
        return pi
    chol = np.linalg.cholesky(gamma)
    z = rng.normal(size=(center.shape[0], n_mc))
    draws = center[:, None] + v * np.linalg.solve(chol.T, z)
    winners = np.argmax(thetas @ draws, axis=0)
    return np.bincount(winners, minlength=n) / n_mc


def _weighted_update(b, y, thetas, weights, arm, reward):
    """In-place rank-one update with mixture-weighted spread terms."""
    theta_bar = weights @ thetas
    xa = thetas[arm] - theta_bar
    diffs = thetas - theta_bar
    b += np.outer(xa, xa) + (weights[:, None] * diffs).T @ diffs
    y += 2.0 * xa * reward
    return theta_bar


def _coupled_estimate(j, lam, affinity, mu_bars, bs):
    """User j's center mu_bar_j - B_j^-1 sum_k lam l_jk mu_bar_k and precision
    B_j + lam^2 sum_k l_jk^2 B_k^-1, both sums over the other users."""
    coupling = np.zeros(mu_bars[j].shape[0])
    gamma = bs[j].copy()
    for k in range(len(bs)):
        if k == j:
            continue
        w = lam * affinity[j, k]
        if w != 0.0:
            coupling += w * mu_bars[k]
            gamma += w * w * np.linalg.inv(bs[k])
    center = mu_bars[j] - _solve_spd(bs[j], coupling)
    return center, gamma


def _check_pd(b):
    if np.linalg.eigvalsh(b)[0] <= 0.0:
        raise NumericError("information matrix lost positive definiteness")


class _RewardHistory:
    """Append-only float64 reward log: a buffer that doubles when full plus a
    count, so the likelihood reads the rewards without copying them."""

    def __init__(self, rewards=()):
        rewards = np.asarray(rewards, dtype=float)
        self._buf = np.empty(max(64, rewards.size))
        self._buf[: rewards.size] = rewards
        self._n = rewards.size

    def append(self, reward):
        if self._n == self._buf.size:
            grown = np.empty(2 * self._buf.size)
            grown[: self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = reward
        self._n += 1

    def __len__(self):
        return self._n

    @property
    def values(self):
        """The rewards so far, as a view into the buffer."""
        return self._buf[: self._n]


# ---------------------------------------------------------------------------
# stable beliefs


@dataclass
class ArmBelief:
    """Point beliefs (alpha, beta, sigma) plus a fixed normal prior for the
    location parameter; the table caches the density for likelihood loops."""

    alpha: float
    beta: float
    sigma: float
    prior_mu: float
    prior_var: float
    table: PdfTable = field(default=None, repr=False)

    def __post_init__(self):
        if self.table is None:
            self.table = PdfTable(self.alpha, self.beta, self.sigma)

    def mean_given_delta(self, delta):
        return delta - self.beta * self.sigma * _tan_half(self.alpha)

    def refit(self, alpha, beta, sigma):
        self.alpha, self.beta, self.sigma = alpha, beta, sigma
        self.table = PdfTable(alpha, beta, sigma)

    def log_posterior(self, rewards, deltas):
        """Log stable likelihood of the rewards plus the normal location prior,
        evaluated at each candidate delta."""
        deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
        locs = deltas - self.beta * self.sigma * _tan_half(self.alpha)
        # one density pass, reward-major: neighbouring points share a reward,
        # so np.interp's search starts next to its previous hit
        lp = self.table.logpdf(np.asarray(rewards, dtype=float)[:, None] - locs[None, :])
        # summing each delta's contiguous row keeps np.sum's pairwise order
        out = np.sum(np.ascontiguousarray(lp.T), axis=1)
        out -= 0.5 * (deltas - self.prior_mu) ** 2 / self.prior_var
        return out


def _moment_beliefs(rewards):
    """Crude initialization for short histories where the ECF fit is off-limits."""
    r = np.asarray(rewards, dtype=float)
    med = float(np.median(r))
    q75, q25 = np.percentile(r, [75.0, 25.0])
    sigma = (q75 - q25) / 2.0
    if sigma <= 0.0:
        sigma = float(np.std(r))
    if sigma <= 0.0:
        sigma = max(0.1 * abs(med), 0.1)
    return ArmBelief(1.8, 0.0, sigma, prior_mu=med, prior_var=sigma ** 2)


def belief_from_history(rewards):
    """ECF fit when enough samples exist, moment surrogates otherwise.

    The location prior widens as 8/n for short histories so a single outlier
    cannot freeze the chain far from the truth.
    """
    n = len(rewards)
    widen = max(1.0, 8.0 / n)
    if n >= 50:
        est = estimate_ecf(np.asarray(rewards))
        p = est.params
        sigma = max(p.sigma, 1e-6)
        return ArmBelief(p.alpha, p.beta, sigma, prior_mu=p.delta,
                         prior_var=widen * sigma ** 2)
    b = _moment_beliefs(rewards)
    b.prior_var *= widen
    return b


def mh_location_kernel(belief, rewards, theta0, n_iter, step, rng):
    """Random-walk chain over the location parameter; returns the visited path.

    The same accept rule the agents apply once per round, run long for
    diagnostics: proposals are symmetric normal steps, acceptance compares the
    stable log likelihood plus the normal prior.
    """
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


def tail_weights(beliefs, deltas, cutoff):
    """Normalized upper-tail probabilities beyond the cutoff score.

    beliefs and deltas line up per arm; each arm's predictive distribution is
    its point beliefs located at its current delta estimate.
    """
    raw = np.array(
        [b.table.tail_beyond(cutoff, b.mean_given_delta(d)) for b, d in zip(beliefs, deltas)]
    )
    total = raw.sum()
    if total <= 0.0:
        return np.full(len(raw), 1.0 / len(raw))
    return raw / total


# ---------------------------------------------------------------------------
# rng snapshot helpers


def _pack_rng(rng):
    return rng.bit_generator.state


def _unpack_rng(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def _pack_belief(b):
    if b is None:
        return None
    return dict(alpha=b.alpha, beta=b.beta, sigma=b.sigma, prior_mu=b.prior_mu, prior_var=b.prior_var)


def _unpack_belief(d):
    if d is None:
        return None
    return ArmBelief(**d)


# ---------------------------------------------------------------------------
# Gaussian lineage


class CtsAgent:
    """Contextual Thompson sampling with resampled pull probabilities."""

    algorithm = "cts"

    def __init__(self, n_arms, dim, config, seed):
        config.validate()
        self.n_arms, self.dim = n_arms, dim
        self.config = config
        self.v = config.resolved_v()
        self.rng = np.random.default_rng(seed)
        self.B = np.eye(dim)
        self.y = np.zeros(dim)
        self.mu_bar = np.zeros(dim)
        self.history = []

    def step(self, ctx, env):
        thetas = np.asarray(ctx.contexts, dtype=float)
        mu_hat = _draw_mu(self.mu_bar, self.B, self.v, self.rng)
        arm = int(np.argmax(thetas @ mu_hat))
        reward = env.pull(ctx.t, arm)
        pi = _pi_estimate(thetas, self.mu_bar, self.B, self.v, self.config.mc_probs, self.rng)
        _weighted_update(self.B, self.y, thetas, pi, arm, reward)
        self.mu_bar = _solve_spd(self.B, self.y)
        if self.config.debug_checks:
            _check_pd(self.B)
        self.history.append(
            dict(thetas=thetas.copy(), weights=pi.copy(), arm=arm, reward=reward)
        )
        return arm, reward

    def snapshot(self):
        return dict(
            version=SNAPSHOT_VERSION,
            algorithm=self.algorithm,
            n_arms=self.n_arms,
            dim=self.dim,
            config=self.config.__dict__.copy(),
            B=self.B.tolist(),
            y=self.y.tolist(),
            rng=_pack_rng(self.rng),
            history=[
                dict(thetas=h["thetas"].tolist(), weights=h["weights"].tolist(),
                     arm=h["arm"], reward=h["reward"])
                for h in self.history
            ],
        )

    @classmethod
    def restore(cls, snap):
        if snap["version"] != SNAPSHOT_VERSION:
            raise ConfigError(f"unsupported snapshot version {snap['version']}")
        agent = cls(snap["n_arms"], snap["dim"], AgentConfig(**snap["config"]), 0)
        agent.B = np.asarray(snap["B"], dtype=float)
        agent.y = np.asarray(snap["y"], dtype=float)
        agent.mu_bar = _solve_spd(agent.B, agent.y)
        agent.rng = _unpack_rng(snap["rng"])
        agent.history = [
            dict(thetas=np.asarray(h["thetas"]), weights=np.asarray(h["weights"]),
                 arm=h["arm"], reward=h["reward"])
            for h in snap["history"]
        ]
        return agent


class SctsAgent:
    """Per-user contextual sampling with affinity-coupled estimators.

    The active user's center is mu_bar_j - B_j^-1 sum_k lam l_jk mu_bar_k and
    the sampling precision is B_j + lam^2 sum_k l_jk^2 B_k^-1, both sums over
    the other users. With lam = 0 every slot runs the parent algorithm
    unchanged.
    """

    algorithm = "scts"

    def __init__(self, n_arms, dim, config, seed, n_users=1, affinity=None):
        config.validate()
        self.n_arms, self.dim, self.n_users = n_arms, dim, n_users
        self.config = config
        self.v = config.resolved_v()
        self.lam = float(config.lam)
        self.affinity = np.eye(n_users) if affinity is None else np.asarray(affinity, dtype=float)
        if self.affinity.shape != (n_users, n_users):
            raise ConfigError("affinity matrix shape must be (n_users, n_users)")
        self.rng = np.random.default_rng(seed)
        self.B = [self._init_b(j) for j in range(n_users)]
        self.y = [np.zeros(dim) for _ in range(n_users)]
        self.mu_bar = [np.zeros(dim) for _ in range(n_users)]
        self.history = []

    def _init_b(self, j=0):
        # the coupled-header scale only applies when other users exist;
        # a lone user degrades to the parent algorithm including its init
        scale = self.lam * self.affinity[j, j]
        if self.n_users == 1 or scale <= 0.0:
            scale = 1.0
        return scale * np.eye(self.dim)

    def local_estimate(self, j):
        """Coupled center and precision for user j."""
        return _coupled_estimate(j, self.lam, self.affinity, self.mu_bar, self.B)

    def step(self, ctx, env):
        j = ctx.user
        if not 0 <= j < self.n_users:
            raise ParamError(f"unknown user index {j}")
        thetas = np.asarray(ctx.contexts, dtype=float)
        center, gamma = self.local_estimate(j)
        mu_hat = _draw_mu(center, gamma, self.v, self.rng)
        arm = int(np.argmax(thetas @ mu_hat))
        reward = env.pull(ctx.t, arm)
        pi = _pi_estimate(thetas, center, gamma, self.v, self.config.mc_probs, self.rng)
        _weighted_update(self.B[j], self.y[j], thetas, pi, arm, reward)
        self.mu_bar[j] = _solve_spd(self.B[j], self.y[j])
        if self.config.debug_checks:
            _check_pd(self.B[j])
        self.history.append(
            dict(user=j, thetas=thetas.copy(), weights=pi.copy(), arm=arm, reward=reward)
        )
        return arm, reward


# ---------------------------------------------------------------------------
# stable lineage


class _StableSlot:
    """Per-user bundle of the asymmetric agent's state."""

    def __init__(self, n_arms, dim):
        self.B = np.eye(dim)
        self.y = np.zeros(dim)
        self.mu_bar = np.zeros(dim)
        self.theta = np.zeros((n_arms, dim))
        self.beliefs = [None] * n_arms
        self.rewards = [()] * n_arms
        self.pulls = np.zeros(n_arms, dtype=int)
        self.visits = 0
        self.ready = False
        self._lp_cache = [None] * n_arms

    @property
    def rewards(self):
        """One growable history per arm."""
        return self._rewards

    @rewards.setter
    def rewards(self, per_arm):
        self._rewards = [_RewardHistory(r) for r in per_arm]


class _StableBase:
    """Warm-up, MH sweeps, tail weighting and refresh cadence shared by the
    asymmetric agents. Subclasses pick the slot and the estimator."""

    def __init__(self, n_arms, dim, config, seed, n_users=1, affinity=None):
        config.validate()
        self.n_arms, self.dim, self.n_users = n_arms, dim, n_users
        self.config = config
        self.v = config.resolved_v()
        self.lam = float(config.lam)
        self.affinity = np.eye(n_users) if affinity is None else np.asarray(affinity, dtype=float)
        self.warmup = config.resolved_warmup(dim)
        self.rng = np.random.default_rng(seed)
        self.slots = [_StableSlot(n_arms, dim) for _ in range(n_users)]
        self.history = []

    # -- warm-up and beliefs

    def _warm_arm(self, slot):
        if slot.ready:
            return None
        if slot.visits < self.n_arms * self.warmup:
            return slot.visits % self.n_arms
        self._init_slot(slot)
        return None

    def _init_slot(self, slot):
        for n in range(self.n_arms):
            slot.beliefs[n] = belief_from_history(slot.rewards[n].values)
            slot.theta[n, :] = slot.beliefs[n].prior_mu
        slot._lp_cache = [None] * self.n_arms
        slot.ready = True

    def _after_reward(self, slot, arm, reward):
        slot.rewards[arm].append(reward)
        slot.pulls[arm] += 1
        slot.visits += 1
        slot._lp_cache[arm] = None
        if (
            slot.ready
            and slot.pulls[arm] >= 50
            and slot.pulls[arm] % self.config.refresh_every == 0
        ):
            est = estimate_ecf(slot.rewards[arm].values)
            p = est.params
            slot.beliefs[arm].refit(p.alpha, p.beta, max(p.sigma, 1e-6))
            slot._lp_cache[arm] = None

    # -- Metropolis-Hastings

    def _mh_sweep(self, slot):
        """One accept/reject pass per arm per dimension; two rng consumptions
        per coordinate regardless of the outcome."""
        for n in range(self.n_arms):
            belief = slot.beliefs[n]
            rewards = slot.rewards[n].values
            cur = slot.theta[n]
            props = cur + self.config.mh_step_scale * belief.sigma * self.rng.normal(size=self.dim)
            if slot._lp_cache[n] is None:
                slot._lp_cache[n] = belief.log_posterior(rewards, cur)
            lp_cur = slot._lp_cache[n]
            lp_prop = belief.log_posterior(rewards, props)
            accept = np.log(self.rng.uniform(size=self.dim)) < lp_prop - lp_cur
            slot.theta[n] = np.where(accept, props, cur)
            slot._lp_cache[n] = np.where(accept, lp_prop, lp_cur)

    # -- one bandit round

    def _estimate(self, slot_index):
        slot = self.slots[slot_index]
        return slot.mu_bar, slot.B

    def _scores(self, slot, mu_hat):
        return slot.theta @ mu_hat

    def _locations(self, slot, center):
        return slot.theta @ center

    def step(self, ctx, env):
        j = ctx.user if self.n_users > 1 else 0
        if not 0 <= j < self.n_users:
            raise ParamError(f"unknown user index {j}")
        slot = self.slots[j]
        warm = self._warm_arm(slot)
        if warm is not None:
            reward = env.pull(ctx.t, warm)
            self._record(j, slot, None, warm, reward)
            self._after_reward(slot, warm, reward)
            return warm, reward
        self._mh_sweep(slot)
        center, gamma = self._estimate(j)
        mu_hat = _draw_mu(center, gamma, self.v, self.rng)
        scores = self._scores(slot, mu_hat)
        arm = int(np.argmax(scores))
        reward = env.pull(ctx.t, arm)
        # tail cutoffs and arm locations both project through the point
        # estimate so the bound and the integrand share reward units
        locs = self._locations(slot, center)
        weights = tail_weights(slot.beliefs, locs, float(locs[arm]))
        _weighted_update(slot.B, slot.y, slot.theta, weights, arm, reward)
        slot.mu_bar = _solve_spd(slot.B, slot.y)
        if self.config.debug_checks:
            _check_pd(slot.B)
        self._record(j, slot, weights, arm, reward)
        self._after_reward(slot, arm, reward)
        return arm, reward

    def _record(self, user, slot, weights, arm, reward):
        self.history.append(
            dict(
                user=user,
                thetas=slot.theta.copy(),
                weights=None if weights is None else weights.copy(),
                arm=arm,
                reward=reward,
            )
        )

    # -- persistence

    def snapshot(self):
        return dict(
            version=SNAPSHOT_VERSION,
            algorithm=self.algorithm,
            n_arms=self.n_arms,
            dim=self.dim,
            n_users=self.n_users,
            affinity=self.affinity.tolist(),
            config=self.config.__dict__.copy(),
            rng=_pack_rng(self.rng),
            slots=[
                dict(
                    B=s.B.tolist(),
                    y=s.y.tolist(),
                    theta=s.theta.tolist(),
                    beliefs=[_pack_belief(b) for b in s.beliefs],
                    rewards=[r.values.tolist() for r in s.rewards],
                    pulls=s.pulls.tolist(),
                    visits=s.visits,
                    ready=s.ready,
                )
                for s in self.slots
            ],
        )

    @classmethod
    def restore(cls, snap):
        if snap["version"] != SNAPSHOT_VERSION:
            raise ConfigError(f"unsupported snapshot version {snap['version']}")
        agent = object.__new__(cls)
        _StableBase.__init__(
            agent,
            snap["n_arms"],
            snap["dim"],
            AgentConfig(**snap["config"]),
            0,
            n_users=snap.get("n_users", 1),
            affinity=np.asarray(snap["affinity"]),
        )
        agent.rng = _unpack_rng(snap["rng"])
        for slot, raw in zip(agent.slots, snap["slots"]):
            slot.B = np.asarray(raw["B"], dtype=float)
            slot.y = np.asarray(raw["y"], dtype=float)
            slot.mu_bar = _solve_spd(slot.B, slot.y)
            slot.theta = np.asarray(raw["theta"], dtype=float)
            slot.beliefs = [_unpack_belief(b) for b in raw["beliefs"]]
            slot.rewards = raw["rewards"]
            slot.pulls = np.asarray(raw["pulls"], dtype=int)
            slot.visits = raw["visits"]
            slot.ready = raw["ready"]
            slot._lp_cache = [None] * agent.n_arms
        return agent


class ActsAgent(_StableBase):
    """Asymmetric-reward Thompson sampling, single shared state slot."""

    algorithm = "acts"

    def __init__(self, n_arms, dim, config, seed):
        super().__init__(n_arms, dim, config, seed, n_users=1, affinity=None)


class SactsAgent(_StableBase):
    """Per-user asymmetric sampling with the affinity-coupled estimator."""

    algorithm = "sacts"

    def __init__(self, n_arms, dim, config, seed, n_users=1, affinity=None):
        super().__init__(n_arms, dim, config, seed, n_users=n_users, affinity=affinity)
        if n_users > 1:
            for j, slot in enumerate(self.slots):
                scale = self.lam * self.affinity[j, j]
                if scale > 0:
                    slot.B = scale * np.eye(dim)

    def _estimate(self, j):
        return _coupled_estimate(j, self.lam, self.affinity,
                                 [slot.mu_bar for slot in self.slots],
                                 [slot.B for slot in self.slots])


class PlainAtsAgent(_StableBase):
    """Context-free asymmetric sampling: pulls the arm whose drawn location
    implies the highest mean reward."""

    algorithm = "plain_ats"

    def __init__(self, n_arms, config, seed):
        super().__init__(n_arms, 1, config, seed, n_users=1, affinity=None)

    def _scores(self, slot, mu_hat):
        return np.array(
            [b.mean_given_delta(t) for b, t in zip(slot.beliefs, slot.theta[:, 0])]
        )

    def _locations(self, slot, center):
        return self._scores(slot, None)


# ---------------------------------------------------------------------------
# episodic variant


class MdpActsAgent:
    """Posterior-sampling control for deterministic finite MDPs.

    Acting uses a Q built from per-(state, action) location draws; reporting and
    the greedy policy use a point Q built from empirical reward means and the
    learned transition table. Unvisited pairs draw straight from the prior.
    """

    algorithm = "mdp_acts"

    def __init__(self, n_states, n_actions, horizon, config, seed,
                 prior_mu=0.0, prior_var=1.0):
        config.validate()
        self.n_states, self.n_actions, self.horizon = n_states, n_actions, horizon
        self.config = config
        # per-pair coverage floor; empirical means over heavy tails need depth
        self.warmup = config.warmup if config.warmup is not None else 25
        self.rng = np.random.default_rng(seed)
        self.prior_mu, self.prior_var = float(prior_mu), float(prior_var)
        self.rewards = [[_RewardHistory() for _ in range(n_actions)] for _ in range(n_states)]
        self.beliefs = [[None] * n_actions for _ in range(n_states)]
        self.theta = np.full((n_states, n_actions), self.prior_mu)
        self.known_next = np.full((n_states, n_actions), -1, dtype=int)
        self.visits = np.zeros((n_states, n_actions), dtype=int)
        self.b_mat = [np.eye(n_actions) for _ in range(n_states)]
        self.y_vec = [np.zeros(n_actions) for _ in range(n_states)]
        self.point_q = np.zeros((horizon, n_states, n_actions))
        self.episodes = 0

    def _backward(self, means, trans):
        q = np.zeros((self.horizon + 1, self.n_states, self.n_actions))
        for h in range(self.horizon - 1, -1, -1):
            if h + 1 < self.horizon:
                nxt_val = q[h + 1].max(axis=1)
                cont = np.where(trans >= 0, nxt_val[np.maximum(trans, 0)], 0.0)
            else:
                cont = 0.0
            q[h] = means + cont
        return q[: self.horizon]

    def _sampled_means(self):
        m = np.empty((self.n_states, self.n_actions))
        for s in range(self.n_states):
            for a in range(self.n_actions):
                hist = self.rewards[s][a]
                if not hist:
                    # nothing observed: fresh prior draw drives the exploration
                    draw = self.prior_mu + np.sqrt(self.prior_var) * self.rng.normal()
                    self.theta[s, a] = draw
                    m[s, a] = draw
                else:
                    belief = self.beliefs[s][a]
                    prop = self.theta[s, a] + self.config.mh_step_scale * belief.sigma * self.rng.normal()
                    lp = belief.log_posterior(hist.values, [self.theta[s, a], prop])
                    if np.log(self.rng.uniform()) < lp[1] - lp[0]:
                        self.theta[s, a] = prop
                    m[s, a] = belief.mean_given_delta(self.theta[s, a])
        return m

    def _empirical_means(self):
        m = np.zeros((self.n_states, self.n_actions))
        for s in range(self.n_states):
            for a in range(self.n_actions):
                if self.rewards[s][a]:
                    m[s, a] = float(np.mean(self.rewards[s][a].values))
        return m

    def state_value(self, s):
        return float(self.point_q[0][s].max())

    def run_episode(self, env):
        # unknown deterministic successors are drawn uniformly, known ones kept
        trans = np.where(
            self.known_next >= 0,
            self.known_next,
            self.rng.integers(self.n_states, size=(self.n_states, self.n_actions)),
        )
        sampled_q = self._backward(self._sampled_means(), trans)

        def policy(h, s):
            # sweep under-visited actions first so every pair earns a belief
            if self.visits[s].min() < self.warmup:
                return int(np.argmin(self.visits[s]))
            return int(np.argmax(sampled_q[h][s]))

        trace, reg = mdp_episode(env, policy, values=self.state_value)
        for h, (s, a, r) in enumerate(zip(trace.states, trace.actions, trace.rewards)):
            nxt = trace.states[h + 1] if h + 1 < len(trace.states) else trace.final_state
            self._observe(s, a, r, nxt)
        for s in set(trace.states):
            self._slot_update(s, trace)
        self.point_q = self._backward(self._empirical_means(), self.known_next)
        self.episodes += 1
        return trace, reg

    def _observe(self, s, a, r, nxt):
        self.rewards[s][a].append(float(r))
        self.visits[s, a] += 1
        if nxt is not None:
            self.known_next[s, a] = nxt
        hist = self.rewards[s][a].values
        if self.beliefs[s][a] is None:
            self.beliefs[s][a] = belief_from_history(hist)
            self.theta[s, a] = self.beliefs[s][a].prior_mu
        elif len(hist) >= 50 and len(hist) % self.config.refresh_every == 0:
            p = estimate_ecf(hist).params
            self.beliefs[s][a].refit(p.alpha, p.beta, max(p.sigma, 1e-6))
        elif len(hist) < 50 and len(hist) % 5 == 0:
            self.beliefs[s][a] = belief_from_history(hist)

    def _slot_update(self, s, trace):
        """Tail-weighted information update over the state's action draws."""
        beliefs = self.beliefs[s]
        if any(b is None for b in beliefs):
            return
        acted = [a for st, a in zip(trace.states, trace.actions) if st == s]
        rewards = [r for st, r in zip(trace.states, trace.rewards) if st == s]
        thetas = self.theta[s][:, None] * np.eye(self.n_actions)  # diag embedding
        for a, r in zip(acted, rewards):
            cutoff = float(self.theta[s, a])
            w = tail_weights(beliefs, self.theta[s], cutoff)
            _weighted_update(self.b_mat[s], self.y_vec[s], thetas, w, a, r)

    def greedy_policy(self):
        return self.point_q.argmax(axis=2)


# ---------------------------------------------------------------------------
# factory


def make_agent(config, n_arms=2, dim=1, n_users=1, affinity=None, seed=0, mdp=None):
    config.validate()
    alg = config.algorithm
    if alg == "cts":
        return CtsAgent(n_arms, dim, config, seed)
    if alg == "scts":
        return SctsAgent(n_arms, dim, config, seed, n_users=n_users, affinity=affinity)
    if alg == "acts":
        return ActsAgent(n_arms, dim, config, seed)
    if alg == "sacts":
        return SactsAgent(n_arms, dim, config, seed, n_users=n_users, affinity=affinity)
    if alg == "plain_ats":
        return PlainAtsAgent(n_arms, config, seed)
    if alg == "mdp_acts":
        if mdp is None:
            raise ConfigError("mdp_acts needs the MDP shape tables")
        return MdpActsAgent(mdp.n_states, mdp.n_actions, mdp.horizon, config, seed)
    raise ConfigError(f"unknown algorithm {alg!r}")


def replay_information(history, dim, user=None, b0=None):
    """Rebuild (B, y) from a recorded step history, the from-scratch oracle for
    the incremental updates. b0 overrides the identity start."""
    b = np.eye(dim) if b0 is None else np.array(b0, dtype=float)
    y = np.zeros(dim)
    for h in history:
        if h["weights"] is None:
            continue
        if user is not None and h.get("user", 0) != user:
            continue
        _weighted_update(b, y, np.asarray(h["thetas"]), np.asarray(h["weights"]), h["arm"], h["reward"])
    return b, y
