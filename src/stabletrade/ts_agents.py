"""Thompson-sampling agents over the bandit environment family.

The bandit agents' two lineages share one linear (B, y) update rule:

  * Gaussian lineage (cts, scts): arm parameters are the observed contexts, the
    shared weight mu is resampled from N(center, v^2 Gamma^-1), and the update
    weights are Monte-Carlo pull probabilities pi.
  * Stable lineage (acts, sacts, plain_ats): per-arm location draws theta
    evolve by Metropolis-Hastings on a numeric stable likelihood, and the
    update weights are normalized upper-tail probabilities beyond the chosen
    arm's score.

The episodic mdp_acts keeps no (B, y) state: each episode moves every visited
(state, action) location by one MH step on the same stable likelihood and
plans on the Q those locations give.

Every round after warm-up runs one MH sweep. Each sweep evaluates every arm's
proposals over that arm's whole reward history: O(pulls x dim) density points
per arm, so a run of T rounds costs O(T^2) in total. The likelihood at the
current locations is cached per reward, so a new reward costs dim points and
only a refit re-evaluates the whole history.

The semi-contextual variants (scts, sacts) keep one independent state slot per
user: a user's round reads and updates only that user's slot. lam only scales
each slot's initial precision when there are several users, so with one user
or at lam = 0 each slot replays its parent algorithm draw for draw.
"""

from dataclasses import dataclass, field

import numpy as np

from .bandit_envs import _backward_q, mdp_episode
from .errors import ConfigError, ParamError, _is_int, _is_real, _require
from .stable_core import PdfTable, estimate_ecf, _tan_half

# the agent keys each algorithm reads; any other key would only change the
# config's hash, so from_dict rejects it
_READS = {
    "cts": {"v", "mc_probs"},
    "acts": {"v", "refresh_every", "mh_step_scale", "warmup"},
    "scts": {"v", "lam", "mc_probs"},
    "sacts": {"v", "lam", "refresh_every", "mh_step_scale", "warmup"},
    "mdp_acts": {"refresh_every", "mh_step_scale", "warmup"},
    "plain_ats": {"v", "refresh_every", "mh_step_scale", "warmup"},
}
_ALGORITHMS = tuple(_READS)


@dataclass
class AgentConfig:
    algorithm: str
    v: float = None              # exploration scale; None picks a lineage default
    lam: float = 0.3             # initial precision scale of each user's slot
    refresh_every: int = 25      # rewards between characteristic-function refits
    mc_probs: int = 200          # resamples behind each pi estimate
    mh_step_scale: float = 0.1   # proposal step as a fraction of the arm scale
    warmup: int = None           # pulls per arm before the posterior machinery engages

    def validate(self):
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        v, lam, step, warmup = self.v, self.lam, self.mh_step_scale, self.warmup
        _require(v is None or (_is_real(v) and v >= 0), "agent.v", v, "a number >= 0")
        _require(_is_real(lam) and lam >= 0, "agent.lam", lam, "a number >= 0")
        _require(_is_real(step) and step > 0, "agent.mh_step_scale", step, "a number > 0")
        for key in ("refresh_every", "mc_probs"):
            _require(_is_int(getattr(self, key), 1), f"agent.{key}", getattr(self, key),
                     "an integer >= 1")
        _require(warmup is None or _is_int(warmup, 1), "agent.warmup", warmup,
                 "an integer >= 1")
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
        alg = raw["algorithm"]
        unread = sorted(set(raw) - _READS[alg] - {"algorithm"}) if alg in _ALGORITHMS else []
        if unread:
            raise ConfigError(f"algorithm {alg!r} never reads "
                              + ", ".join(f"agent.{key}" for key in unread))
        return cls(**raw).validate()


# ---------------------------------------------------------------------------
# shared numeric pieces


def _solve_spd(b, y):
    try:
        return np.linalg.solve(b, y)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(b, y, rcond=None)[0]


def _draw_mu(center, chol, v, rng):
    """One draw from N(center, v^2 gamma^-1) given gamma's Cholesky factor;
    chol is None at v = 0, where the draw is center and consumes no randomness."""
    if chol is None:
        return center.copy()
    z = rng.normal(size=center.shape[0])
    return center + v * np.linalg.solve(chol.T, z)


def _pi_estimate(thetas, center, chol, v, n_mc, rng):
    """Monte-Carlo pull probabilities under resampled mu draws; chol is the
    Cholesky factor of the sampling precision, None at v = 0."""
    n = thetas.shape[0]
    if chol is None:
        pi = np.zeros(n)
        pi[int(np.argmax(thetas @ center))] = 1.0
        return pi
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


def _initial_b(lam, n_users, dim):
    """A user slot's starting precision: lam * I when other users exist and
    lam > 0, the parent algorithm's I otherwise."""
    scale = lam if n_users > 1 and lam > 0.0 else 1.0
    return scale * np.eye(dim)


class _RewardHistory:
    """Append-only float64 reward log: a buffer that doubles when full plus a
    count, so the likelihood reads the rewards without copying them."""

    def __init__(self):
        self._buf = np.empty(64)
        self._n = 0

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

    def refit(self, rewards):
        """Re-estimate (alpha, beta, sigma) from the rewards and rebuild the
        table; the location prior stays."""
        self.alpha, self.beta, self.sigma, _ = _ecf_fit(rewards)
        self.table = PdfTable(self.alpha, self.beta, self.sigma)

    def log_terms(self, rewards, deltas):
        """Per-reward log densities in one density pass, delta-major: row d
        holds logpdf(r_i - loc(delta_d)) for every reward i."""
        locs = np.atleast_1d(np.asarray(deltas, dtype=float))
        locs = locs - self.beta * self.sigma * _tan_half(self.alpha)
        return self.table.logpdf(np.asarray(rewards, dtype=float)[None, :] - locs[:, None])

    def posterior_from_terms(self, terms, deltas):
        """Sum each delta's row of log_terms and add the location prior. Each
        row is contiguous, so the sum's pairwise order does not depend on
        whether terms is a whole array or a column slice of a wider buffer."""
        out = terms.sum(axis=1)
        out -= 0.5 * (deltas - self.prior_mu) ** 2 / self.prior_var
        return out

    def log_posterior(self, rewards, deltas):
        """Log stable likelihood of the rewards plus the normal location prior,
        evaluated at each candidate delta."""
        deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
        return self.posterior_from_terms(self.log_terms(rewards, deltas), deltas)


def _ecf_fit(rewards):
    """The rewards' ECF fit as (alpha, beta, sigma, delta), sigma floored at 1e-6."""
    p = estimate_ecf(np.asarray(rewards)).params
    return p.alpha, p.beta, max(p.sigma, 1e-6), p.delta


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
        alpha, beta, sigma, delta = _ecf_fit(rewards)
        return ArmBelief(alpha, beta, sigma, prior_mu=delta, prior_var=widen * sigma ** 2)
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
# Gaussian lineage


def _cts_round(b, y, mu_bar, thetas, v, n_mc, rng, env, t):
    """One Gaussian-lineage round on the state (b, y, mu_bar): draw mu, pull
    the arm it ranks first, estimate pi and update b and y in place. Returns
    the arm, the reward and the new center."""
    chol = np.linalg.cholesky(b) if v > 0.0 else None
    mu_hat = _draw_mu(mu_bar, chol, v, rng)
    arm = int(np.argmax(thetas @ mu_hat))
    reward = env.pull(t, arm)
    pi = _pi_estimate(thetas, mu_bar, chol, v, n_mc, rng)
    _weighted_update(b, y, thetas, pi, arm, reward)
    return arm, reward, _solve_spd(b, y)


class CtsAgent:
    """Contextual Thompson sampling with resampled pull probabilities."""

    algorithm = "cts"

    def __init__(self, n_arms, dim, config, seed):
        config.validate()
        self.config = config
        self.v = config.resolved_v()
        self.rng = np.random.default_rng(seed)
        self.B = np.eye(dim)
        self.y = np.zeros(dim)
        self.mu_bar = np.zeros(dim)

    def step(self, ctx, env):
        arm, reward, self.mu_bar = _cts_round(
            self.B, self.y, self.mu_bar, np.asarray(ctx.contexts, dtype=float),
            self.v, self.config.mc_probs, self.rng, env, ctx.t)
        return arm, reward


class SctsAgent:
    """Per-user contextual sampling: each user keeps an independent
    (B, y, mu_bar) slot and plays the cts round on it."""

    algorithm = "scts"

    def __init__(self, n_arms, dim, config, seed, n_users=1):
        config.validate()
        self.n_users = n_users
        self.config = config
        self.v = config.resolved_v()
        self.rng = np.random.default_rng(seed)
        self.B = [_initial_b(float(config.lam), n_users, dim) for _ in range(n_users)]
        self.y = [np.zeros(dim) for _ in range(n_users)]
        self.mu_bar = [np.zeros(dim) for _ in range(n_users)]

    def step(self, ctx, env):
        j = ctx.user
        if not 0 <= j < self.n_users:
            raise ParamError(f"unknown user index {j}")
        arm, reward, self.mu_bar[j] = _cts_round(
            self.B[j], self.y[j], self.mu_bar[j], np.asarray(ctx.contexts, dtype=float),
            self.v, self.config.mc_probs, self.rng, env, ctx.t)
        return arm, reward


# ---------------------------------------------------------------------------
# stable lineage


class _StableSlot:
    """Per-user bundle of the asymmetric agent's state."""

    def __init__(self, n_arms, dim, b):
        self.B = b
        self.y = np.zeros(dim)
        self.mu_bar = np.zeros(dim)
        self.theta = np.zeros((n_arms, dim))
        self.beliefs = [None] * n_arms
        self.rewards = [_RewardHistory() for _ in range(n_arms)]
        self.pulls = np.zeros(n_arms, dtype=int)
        self.visits = 0
        self.ready = False
        # per arm: the log posterior at theta (None once a reward arrives),
        # and the per-reward terms behind it, a (dim, capacity) buffer whose
        # first _filled columns hold logpdf(r_i - loc(theta_d))
        self._lp_cache = [None] * n_arms
        self._terms = [np.empty((dim, 64)) for _ in range(n_arms)]
        self._filled = [0] * n_arms


class _StableBase:
    """Warm-up, MH sweeps, tail weighting and refresh cadence shared by the
    asymmetric agents, one independent state slot per user. Subclasses pick
    the arm scores and locations."""

    def __init__(self, n_arms, dim, config, seed, n_users=1):
        config.validate()
        self.n_arms, self.dim, self.n_users = n_arms, dim, n_users
        self.config = config
        self.v = config.resolved_v()
        self.warmup = config.resolved_warmup(dim)
        self.rng = np.random.default_rng(seed)
        self.slots = [_StableSlot(n_arms, dim, _initial_b(float(config.lam), n_users, dim))
                      for _ in range(n_users)]

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
        slot._filled = [0] * self.n_arms
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
            slot.beliefs[arm].refit(slot.rewards[arm].values)
            slot._filled[arm] = 0

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
                slot._lp_cache[n] = self._current_posterior(slot, n)
            lp_cur = slot._lp_cache[n]
            terms = belief.log_terms(rewards, props)
            lp_prop = belief.posterior_from_terms(terms, props)
            accept = np.log(self.rng.uniform(size=self.dim)) < lp_prop - lp_cur
            slot.theta[n] = np.where(accept, props, cur)
            slot._lp_cache[n] = np.where(accept, lp_prop, lp_cur)
            np.copyto(slot._terms[n][:, : rewards.size], terms, where=accept[:, None])

    def _current_posterior(self, slot, n):
        """Arm n's log posterior at theta from the cached per-reward terms,
        evaluating only the rewards not yet cached: the newest one after a
        pull, the whole history after a refit."""
        rewards = slot.rewards[n].values
        m, done = rewards.size, slot._filled[n]
        buf = slot._terms[n]
        if buf.shape[1] < m:
            grown = np.empty((self.dim, max(2 * buf.shape[1], m)))
            grown[:, :done] = buf[:, :done]
            slot._terms[n] = buf = grown
        belief, cur = slot.beliefs[n], slot.theta[n]
        buf[:, done:m] = belief.log_terms(rewards[done:], cur)
        slot._filled[n] = m
        return belief.posterior_from_terms(buf[:, :m], cur)

    # -- one bandit round

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
            self._after_reward(slot, warm, reward)
            return warm, reward
        self._mh_sweep(slot)
        chol = np.linalg.cholesky(slot.B) if self.v > 0.0 else None
        mu_hat = _draw_mu(slot.mu_bar, chol, self.v, self.rng)
        scores = self._scores(slot, mu_hat)
        arm = int(np.argmax(scores))
        reward = env.pull(ctx.t, arm)
        # tail cutoffs and arm locations both project through the point
        # estimate so the bound and the integrand share reward units
        locs = self._locations(slot, slot.mu_bar)
        weights = tail_weights(slot.beliefs, locs, float(locs[arm]))
        _weighted_update(slot.B, slot.y, slot.theta, weights, arm, reward)
        slot.mu_bar = _solve_spd(slot.B, slot.y)
        self._after_reward(slot, arm, reward)
        return arm, reward


class ActsAgent(_StableBase):
    """Asymmetric-reward Thompson sampling, single shared state slot."""

    algorithm = "acts"

    def __init__(self, n_arms, dim, config, seed):
        super().__init__(n_arms, dim, config, seed)


class SactsAgent(_StableBase):
    """Per-user asymmetric sampling: one independent acts slot per user."""

    algorithm = "sacts"


class PlainAtsAgent(_StableBase):
    """Context-free asymmetric sampling: pulls the arm whose drawn location
    implies the highest mean reward."""

    algorithm = "plain_ats"

    def __init__(self, n_arms, config, seed):
        super().__init__(n_arms, 1, config, seed)

    def _scores(self, slot, mu_hat):
        return np.array(
            [b.mean_given_delta(t) for b, t in zip(slot.beliefs, slot.theta[:, 0])]
        )

    def _locations(self, slot, center):
        return self._scores(slot, None)


# ---------------------------------------------------------------------------
# episodic variant

# N(0, 1) location prior of every (state, action) pair before its first reward
_PRIOR_MU, _PRIOR_SD = 0.0, 1.0


class MdpActsAgent:
    """Posterior-sampling control for deterministic finite MDPs.

    Acting uses a Q built from per-(state, action) location draws; reporting and
    the greedy policy use a point Q built from empirical reward means and the
    learned transition table. Unvisited pairs draw straight from the prior.
    """

    algorithm = "mdp_acts"

    def __init__(self, n_states, n_actions, horizon, config, seed):
        config.validate()
        self.n_states, self.n_actions, self.horizon = n_states, n_actions, horizon
        self.config = config
        # per-pair coverage floor; empirical means over heavy tails need depth
        self.warmup = config.warmup if config.warmup is not None else 25
        self.rng = np.random.default_rng(seed)
        self.rewards = [[_RewardHistory() for _ in range(n_actions)] for _ in range(n_states)]
        self.beliefs = [[None] * n_actions for _ in range(n_states)]
        self.theta = np.full((n_states, n_actions), _PRIOR_MU)
        self.known_next = np.full((n_states, n_actions), -1, dtype=int)
        self.visits = np.zeros((n_states, n_actions), dtype=int)
        self.point_q = np.zeros((horizon, n_states, n_actions))

    def _sampled_means(self):
        m = np.empty((self.n_states, self.n_actions))
        for s in range(self.n_states):
            for a in range(self.n_actions):
                hist = self.rewards[s][a]
                if not hist:
                    # nothing observed: fresh prior draw drives the exploration
                    draw = _PRIOR_MU + _PRIOR_SD * self.rng.normal()
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
        sampled_q = _backward_q(self._sampled_means(), trans, self.horizon)

        def policy(h, s):
            # sweep under-visited actions first so every pair earns a belief
            if self.visits[s].min() < self.warmup:
                return int(np.argmin(self.visits[s]))
            return int(np.argmax(sampled_q[h][s]))

        trace, reg = mdp_episode(env, policy, values=self.state_value)
        for h, (s, a, r) in enumerate(zip(trace.states, trace.actions, trace.rewards)):
            nxt = trace.states[h + 1] if h + 1 < len(trace.states) else trace.final_state
            self._observe(s, a, r, nxt)
        self.point_q = _backward_q(self._empirical_means(), self.known_next, self.horizon)
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
            self.beliefs[s][a].refit(hist)
        elif len(hist) < 50 and len(hist) % 5 == 0:
            self.beliefs[s][a] = belief_from_history(hist)

    def greedy_policy(self):
        return self.point_q.argmax(axis=2)


# ---------------------------------------------------------------------------
# factory


def make_agent(config, n_arms=2, dim=1, n_users=1, seed=0, mdp=None):
    config.validate()
    alg = config.algorithm
    if alg == "cts":
        return CtsAgent(n_arms, dim, config, seed)
    if alg == "scts":
        return SctsAgent(n_arms, dim, config, seed, n_users=n_users)
    if alg == "acts":
        return ActsAgent(n_arms, dim, config, seed)
    if alg == "sacts":
        return SactsAgent(n_arms, dim, config, seed, n_users=n_users)
    if alg == "plain_ats":
        return PlainAtsAgent(n_arms, config, seed)
    if alg == "mdp_acts":
        if mdp is None:
            raise ConfigError("mdp_acts needs the MDP shape tables")
        return MdpActsAgent(mdp.n_states, mdp.n_actions, mdp.horizon, config, seed)
    raise ConfigError(f"unknown algorithm {alg!r}")


def replay_information(updates, dim, b0=None):
    """Rebuild (B, y) from recorded (thetas, weights, arm, reward) updates, the
    from-scratch oracle for the incremental updates. b0 overrides the identity
    start."""
    b = np.eye(dim) if b0 is None else np.array(b0, dtype=float)
    y = np.zeros(dim)
    for thetas, weights, arm, reward in updates:
        _weighted_update(b, y, np.asarray(thetas), np.asarray(weights), arm, reward)
    return b, y
