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

Each arm of the stable lineage and each mdp_acts pair is one location chain
(_Location), and all of them move by the same MH step. A step evaluates the
proposals over the chain's whole reward history: O(pulls x dim) density
points, so a run of T rounds costs O(T^2) in total. The likelihood at the
current locations is cached per reward, so a new reward costs dim points and
only a new belief re-evaluates the whole history.

The semi-contextual variants (scts, sacts) keep one independent state slot per
user: a user's round reads and updates only that user's slot. lam only scales
each slot's initial precision when there are several users, so with one user
or at lam = 0 each slot replays its parent algorithm draw for draw.
"""

from dataclasses import dataclass, field

import numpy as np

from .bandit_envs import _backward_q, mdp_episode
from .errors import (ConfigError, ParamError, _check_table, _int_at_least, _known_keys,
                     _number, _one_of, _or_none)
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
# the check table of an agent entry, one entry per AgentConfig field
_AGENT_CHECKS = {
    "algorithm": _one_of(_READS), "v": _or_none(_number(ge=0)), "lam": _number(ge=0),
    "refresh_every": _int_at_least(1), "mc_probs": _int_at_least(1),
    "mh_step_scale": _number(gt=0), "warmup": _or_none(_int_at_least(1)),
}


@dataclass(frozen=True)
class AgentConfig:
    """An agent's settings, checked when built; dataclasses.replace changes one."""

    algorithm: str
    v: float = None              # exploration scale; None picks a lineage default
    lam: float = 0.3             # initial precision scale of each user's slot
    refresh_every: int = 25      # rewards between characteristic-function refits
    mc_probs: int = 200          # resamples behind each pi estimate
    mh_step_scale: float = 0.1   # proposal step as a fraction of the arm scale
    warmup: int = None           # pulls per arm before the posterior machinery engages

    def __post_init__(self):
        _check_table(vars(self), _AGENT_CHECKS, "agent")

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
        _known_keys(raw, _AGENT_CHECKS, "agent")
        if "algorithm" not in raw:
            raise ConfigError("agent config needs an algorithm name")
        cfg = cls(**raw)
        unread = sorted(set(raw) - _READS[cfg.algorithm] - {"algorithm"})
        if unread:
            raise ConfigError(f"algorithm {cfg.algorithm!r} never reads "
                              + ", ".join(f"agent.{key}" for key in unread))
        return cfg


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


class _Location:
    """One Metropolis-Hastings chain over the location of a reward history.

    theta is a view into the owner's array, one location per coordinate, and
    every coordinate scores the same rewards under one point belief. The log
    density of every reward at theta is cached in a (coordinates, capacity)
    buffer that grows with the reward buffer, so a step after a new reward
    evaluates that reward alone and a step after a new belief the whole
    history.
    """

    def __init__(self, theta):
        self.theta = theta
        self.belief = None
        self._rewards = np.empty(64)
        self._terms = np.empty((theta.size, 64))
        self._n = 0
        self._filled = 0     # leading rewards whose terms at theta are cached
        self._lp = None      # log posterior at theta, None once a reward arrives

    def __len__(self):
        return self._n

    @property
    def rewards(self):
        """The rewards so far, as a view into the buffer."""
        return self._rewards[: self._n]

    def append(self, reward):
        if self._n == self._rewards.size:
            rewards, terms = np.empty(2 * self._n), np.empty((self.theta.size, 2 * self._n))
            rewards[: self._n] = self._rewards
            terms[:, : self._filled] = self._terms[:, : self._filled]
            self._rewards, self._terms = rewards, terms
        self._rewards[self._n] = reward
        self._n += 1
        self._lp = None

    def adopt(self, belief):
        """Score the rewards under belief from now on; no cached term survives."""
        self.belief = belief
        self._filled = 0
        self._lp = None

    def refit(self):
        """Refit the belief's (alpha, beta, sigma) to the rewards."""
        self.belief.refit(self.rewards)
        self.adopt(self.belief)

    def step(self, scale, rng):
        """One accept/reject per coordinate on a normal proposal with standard
        deviation scale; two rng draws per coordinate whatever the outcome."""
        belief, cur, rewards = self.belief, self.theta, self.rewards
        props = cur + scale * rng.normal(size=cur.size)
        if self._lp is None:
            done = self._filled
            self._terms[:, done : self._n] = belief.log_terms(rewards[done:], cur)
            self._filled = self._n
            self._lp = belief.posterior_from_terms(self._terms[:, : self._n], cur)
        terms = belief.log_terms(rewards, props)
        lp_prop = belief.posterior_from_terms(terms, props)
        accept = np.log(rng.uniform(size=cur.size)) < lp_prop - self._lp
        np.copyto(cur, props, where=accept)
        self._lp = np.where(accept, lp_prop, self._lp)
        np.copyto(self._terms[:, : self._n], terms, where=accept[:, None])


def mh_location_kernel(belief, rewards, theta0, n_iter, step, rng):
    """The agents' location step, run n_iter times from theta0 on a frozen
    history with a fixed proposal step; returns the visited path."""
    loc = _Location(np.array([float(theta0)]))
    for r in np.asarray(rewards, dtype=float):
        loc.append(r)
    loc.adopt(belief)
    path = np.empty(n_iter)
    for i in range(n_iter):
        loc.step(step, rng)
        path[i] = loc.theta[0]
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

    def __init__(self, n_arms, dim, config, seed):
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

    def __init__(self, n_arms, dim, config, seed, n_users=1):
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
    """Per-user bundle of the asymmetric agent's state: the (B, y) update and
    one location chain per arm over that arm's row of theta."""

    def __init__(self, n_arms, dim, b):
        self.B = b
        self.y = np.zeros(dim)
        self.mu_bar = np.zeros(dim)
        self.theta = np.zeros((n_arms, dim))
        self.arms = [_Location(row) for row in self.theta]
        self.pulls = np.zeros(n_arms, dtype=int)
        self.visits = 0
        self.ready = False


class _StableBase:
    """Warm-up, MH sweeps, tail weighting and refresh cadence shared by the
    asymmetric agents, one independent state slot per user. Subclasses pick
    the arm scores and locations."""

    def __init__(self, n_arms, dim, config, seed, n_users=1):
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
        for loc in slot.arms:
            belief = belief_from_history(loc.rewards)
            loc.theta[:] = belief.prior_mu
            loc.adopt(belief)
        slot.ready = True

    def _after_reward(self, slot, arm, reward):
        slot.arms[arm].append(reward)
        slot.pulls[arm] += 1
        slot.visits += 1
        if (
            slot.ready
            and slot.pulls[arm] >= 50
            and slot.pulls[arm] % self.config.refresh_every == 0
        ):
            slot.arms[arm].refit()

    # -- Metropolis-Hastings

    def _mh_sweep(self, slot):
        """One location step per arm, arms in order."""
        for loc in slot.arms:
            loc.step(self.config.mh_step_scale * loc.belief.sigma, self.rng)

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
        weights = tail_weights([loc.belief for loc in slot.arms], locs, float(locs[arm]))
        _weighted_update(slot.B, slot.y, slot.theta, weights, arm, reward)
        slot.mu_bar = _solve_spd(slot.B, slot.y)
        self._after_reward(slot, arm, reward)
        return arm, reward


class ActsAgent(_StableBase):
    """Asymmetric-reward Thompson sampling, single shared state slot."""


class SactsAgent(_StableBase):
    """Per-user asymmetric sampling: one independent acts slot per user."""


class PlainAtsAgent(_StableBase):
    """Context-free asymmetric sampling: pulls the arm whose drawn location
    implies the highest mean reward."""

    def __init__(self, n_arms, config, seed):
        super().__init__(n_arms, 1, config, seed)

    def _scores(self, slot, mu_hat):
        return np.array([loc.belief.mean_given_delta(loc.theta[0]) for loc in slot.arms])

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

    def __init__(self, n_states, n_actions, horizon, config, seed):
        self.n_states, self.n_actions, self.horizon = n_states, n_actions, horizon
        self.config = config
        # per-pair coverage floor; empirical means over heavy tails need depth
        self.warmup = config.warmup if config.warmup is not None else 25
        self.rng = np.random.default_rng(seed)
        self.theta = np.full((n_states, n_actions), _PRIOR_MU)
        self.pairs = [[_Location(self.theta[s, a:a + 1]) for a in range(n_actions)]
                      for s in range(n_states)]
        self.known_next = np.full((n_states, n_actions), -1, dtype=int)
        self.visits = np.zeros((n_states, n_actions), dtype=int)
        self.point_q = np.zeros((horizon, n_states, n_actions))

    def _sampled_means(self):
        m = np.empty((self.n_states, self.n_actions))
        for s, row in enumerate(self.pairs):
            for a, loc in enumerate(row):
                if loc.belief is None:
                    # nothing observed: fresh prior draw drives the exploration
                    draw = _PRIOR_MU + _PRIOR_SD * self.rng.normal()
                    self.theta[s, a] = draw
                    m[s, a] = draw
                else:
                    loc.step(self.config.mh_step_scale * loc.belief.sigma, self.rng)
                    m[s, a] = loc.belief.mean_given_delta(self.theta[s, a])
        return m

    def _empirical_means(self):
        m = np.zeros((self.n_states, self.n_actions))
        for s, row in enumerate(self.pairs):
            for a, loc in enumerate(row):
                if len(loc):
                    m[s, a] = float(np.mean(loc.rewards))
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
        loc = self.pairs[s][a]
        loc.append(float(r))
        self.visits[s, a] += 1
        if nxt is not None:
            self.known_next[s, a] = nxt
        n = len(loc)
        if loc.belief is None:
            belief = belief_from_history(loc.rewards)
            self.theta[s, a] = belief.prior_mu
            loc.adopt(belief)
        elif n >= 50 and n % self.config.refresh_every == 0:
            loc.refit()
        elif n < 50 and n % 5 == 0:
            loc.adopt(belief_from_history(loc.rewards))

    def greedy_policy(self):
        return self.point_q.argmax(axis=2)


# ---------------------------------------------------------------------------
# factory


def make_agent(config, n_arms=2, dim=1, n_users=1, seed=0, mdp=None):
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


def replay_information(updates, dim, b0=None):
    """Rebuild (B, y) from recorded (thetas, weights, arm, reward) updates, the
    from-scratch oracle for the incremental updates. b0 overrides the identity
    start."""
    b = np.eye(dim) if b0 is None else np.array(b0, dtype=float)
    y = np.zeros(dim)
    for thetas, weights, arm, reward in updates:
        _weighted_update(b, y, np.asarray(thetas), np.asarray(weights), arm, reward)
    return b, y
