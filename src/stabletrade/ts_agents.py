"""Thompson-sampling agents over the bandit environment family.

The contextual agents share one linear round (_linear_round): draw mu from
N(mu_bar, v^2 B^-1), pull the arm it ranks first, and update (B, y) with
per-arm weights:

  * Gaussian lineage (cts, scts): arm parameters are the observed contexts,
    and the weights are Monte-Carlo pull probabilities pi.
  * Stable lineage (acts, sacts): per-arm location draws theta evolve by
    Metropolis-Hastings on a numeric stable likelihood, and the weights are
    normalized upper-tail probabilities beyond the chosen arm's score.

Each keeps (B, y, mu_bar) in one slot (_Slot) per user, and one rule picks
a round's slot: a single slot serves every round; with several, the round's
user indexes one, whose state alone the round reads and updates. lam only
scales each slot's initial precision when there are several users, so with
one user or at lam = 0, scts and sacts replay cts and acts draw for draw.

plain_ats moves the stable lineage's location chains but does no (B, y)
work: it pulls the arm whose drawn location implies the highest mean. The
episodic mdp_acts moves the location of every visited (state, action) pair
by one MH step per episode and plans on the Q those locations give.

Every arm of the stable agents and every mdp_acts pair is one location
chain (_Location), and all of them move by the same MH step
(_Location.step). It moves a slot's arms together (_Chains): the draws and
each arm's density pass over its own history go arm by arm, and the
proposals, the prior, the accept test and the updates run once on the
slot's (arms, dim) arrays; an mdp_acts pair and mh_location_kernel step one
chain alone. A step evaluates the proposals over the chain's whole reward
history: O(pulls x dim) density points, so a run of T rounds costs O(T^2)
in total. The likelihood at the current locations is cached per reward, so
a new reward costs dim points and only a new belief re-evaluates the whole
history. Each belief caches its location shift beta sigma tan(pi alpha / 2).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bandit_envs import _backward_q, mdp_episode
from .errors import (ConfigError, NumericError, ParamError, _check_table, _int_at_least,
                     _known_keys, _number, _one_of, _or_none)
from .stable_core import (_ECF_MIN_SAMPLES, PdfTable, _median, _robust_scale, _tan_half,
                          estimate_ecf)

# the agent keys each algorithm reads; any other key would only change the
# config's hash, so from_dict rejects it
_READS = {
    "cts": {"v", "mc_probs"},
    "acts": {"v", "refresh_every", "mh_step_scale", "warmup"},
    "scts": {"v", "lam", "mc_probs"},
    "sacts": {"v", "lam", "refresh_every", "mh_step_scale", "warmup"},
    "mdp_acts": {"refresh_every", "mh_step_scale", "warmup"},
    "plain_ats": {"refresh_every", "mh_step_scale", "warmup"},
    "uniform": set(),
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


class _Slot:
    """One user's linear state: precision B, response y and the point
    estimate mu_bar = B^-1 y. B starts at lam * I when other users exist and
    lam > 0, at the parent algorithm's I otherwise."""

    def __init__(self, lam, n_users, dim):
        self.B = (lam if n_users > 1 and lam > 0.0 else 1.0) * np.eye(dim)
        self.y = np.zeros(dim)
        self.mu_bar = np.zeros(dim)


def _slot_of(slots, user):
    """The round's slot: a single slot serves every round; with several,
    user must index one."""
    if len(slots) > 1 and not 0 <= user < len(slots):
        raise ParamError(f"unknown user index {user}")
    return slots[user if len(slots) > 1 else 0]


def _pull(env, t, arm):
    """env.pull(t, arm); a reward that is not a finite number fails the run
    with the round and the arm, before any agent state takes it in."""
    reward = env.pull(t, arm)
    if not math.isfinite(reward):
        raise NumericError(f"round {t}, arm {arm}: reward {reward} is not a finite number")
    return reward


def _linear_round(slot, thetas, v, rng, env, t, weights):
    """One round on a slot: draw mu from N(mu_bar, v^2 B^-1) (mu_bar itself at
    v = 0, with no randomness), pull the arm it ranks first, and update
    (B, y, mu_bar) in place with the arm weights weights(chol, arm), chol
    being B's Cholesky factor or None. Returns the arm and the reward."""
    chol = np.linalg.cholesky(slot.B) if v > 0.0 else None
    mu_hat = slot.mu_bar
    if chol is not None:
        mu_hat = mu_hat + v * np.linalg.solve(chol.T, rng.normal(size=mu_hat.size))
    arm = int(np.argmax(thetas @ mu_hat))
    reward = _pull(env, t, arm)
    _weighted_update(slot.B, slot.y, thetas, weights(chol, arm), arm, reward)
    slot.mu_bar = _solve_spd(slot.B, slot.y)
    return arm, reward


# ---------------------------------------------------------------------------
# stable beliefs


def _prior_penalty(deltas, prior_mu, prior_var):
    """Minus the normal location prior's log density at deltas, up to its
    constant; prior_mu and prior_var broadcast against deltas."""
    return 0.5 * (deltas - prior_mu) ** 2 / prior_var


@dataclass
class ArmBelief:
    """Point beliefs (alpha, beta, sigma) plus a fixed normal prior for the
    location parameter; the table caches the density for likelihood loops,
    and shift the constant beta sigma tan(pi alpha / 2) between a location
    delta and the mean it implies."""

    alpha: float
    beta: float
    sigma: float
    prior_mu: float
    prior_var: float
    table: PdfTable = field(default=None, repr=False)
    shift: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.table is None:
            self.table = PdfTable(self.alpha, self.beta, self.sigma)
        self.shift = self.beta * self.sigma * _tan_half(self.alpha)

    def mean_given_delta(self, delta):
        return delta - self.shift

    def refit(self, rewards):
        """Re-estimate (alpha, beta, sigma) from the rewards and rebuild the
        table and the shift; the location prior stays."""
        self.alpha, self.beta, self.sigma, _ = _ecf_fit(rewards)
        self.table = None
        self.__post_init__()

    def log_terms(self, rewards, deltas):
        """Per-reward log densities in one density pass, delta-major: row d
        holds logpdf(r_i - loc(delta_d)) for every reward i."""
        locs = np.asarray(deltas, dtype=float).reshape(-1, 1) - self.shift
        return self.table.logpdf(np.asarray(rewards, dtype=float) - locs)

    def log_posterior(self, rewards, deltas):
        """Log stable likelihood of the rewards plus the normal location prior,
        evaluated at each candidate delta."""
        deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
        out = self.log_terms(rewards, deltas).sum(axis=1)
        out -= _prior_penalty(deltas, self.prior_mu, self.prior_var)
        return out


def _ecf_fit(rewards):
    """The rewards' ECF fit as (alpha, beta, sigma, delta), sigma floored at 1e-6."""
    p = estimate_ecf(np.asarray(rewards)).params
    return p.alpha, p.beta, max(p.sigma, 1e-6), p.delta


def _moment_beliefs(rewards):
    """Crude initialization for short histories where the ECF fit is off-limits."""
    r = np.asarray(rewards, dtype=float)
    med = _median(r)
    sigma = _robust_scale(r)
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
    if n >= _ECF_MIN_SAMPLES:
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
    history. _lp is the log posterior at theta, a row of the owning _Chains'
    array, or None once a reward or a belief has made it stale.
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

    @staticmethod
    def step(chains, scales, rng):
        """One accept/reject per coordinate of every chain of chains (a
        _Chains), on normal proposals with standard deviation scales[i] for
        chain i; two rng draws per coordinate, chain by chain, whatever the
        outcome.

        Each chain's density pass covers its own history alone. The
        proposals, the prior, the accept test and the updates of theta and
        of the log posteriors run once on the (chains, dim) arrays. Every
        value is the one a step of each chain by itself would give: the
        arithmetic is elementwise, and each row's sum keeps its contiguous
        pairwise order whether its terms are a whole array or a column slice
        of the cache.
        """
        theta, locs = chains.theta, chains.arms
        normal, uniform, sd = chains.normal, chains.uniform, chains.sd
        dim = theta.shape[1]
        for i in range(len(locs)):
            normal[i] = rng.normal(size=dim)
            uniform[i] = rng.uniform(size=dim)
            sd[i] = scales[i]
        props = theta + sd * normal
        lik, lik_prop, prior_mu, prior_var = (chains.lik, chains.lik_prop, chains.prior_mu,
                                              chains.prior_var)
        stale, terms = [], []
        for i, loc in enumerate(locs):
            belief, n = loc.belief, loc._n
            if loc._lp is None:
                # stale after a new reward or a new belief; a belief comes in
                # only through adopt, so its prior is read here
                done = loc._filled
                loc._terms[:, done:n] = belief.log_terms(loc._rewards[done:n], theta[i])
                loc._filled = n
                lik[i] = loc._terms[:, :n].sum(axis=1)
                prior_mu[i], prior_var[i] = belief.prior_mu, belief.prior_var
                loc._lp = chains.lp[i]
                stale.append(i)
            new = belief.log_terms(loc._rewards[:n], props[i])
            lik_prop[i] = new.sum(axis=1)
            terms.append(new)
        lp = chains.lp
        if stale:
            lp[stale] = (lik - _prior_penalty(theta, prior_mu, prior_var))[stale]
        lp_prop = lik_prop - _prior_penalty(props, prior_mu, prior_var)
        accept = np.log(uniform) < lp_prop - lp
        np.copyto(theta, props, where=accept)
        np.copyto(lp, lp_prop, where=accept)
        for loc, new, take in zip(locs, terms, accept[:, :, None]):
            np.copyto(loc._terms[:, : loc._n], new, where=take)


class _Chains:
    """Location chains (_Location) over the rows of one (chains, dim) array
    theta, with the arrays that their joint step (_Location.step) fills; a
    row is an arm of a slot, or one lone chain."""

    def __init__(self, theta):
        k = theta.shape[0]
        self.theta = theta
        self.arms = [_Location(row) for row in theta]
        # the step's draws, proposal sds, and each chain's location prior
        self.normal, self.uniform = np.empty(theta.shape), np.empty(theta.shape)
        self.sd, self.prior_mu, self.prior_var = np.empty((k, 1)), np.zeros((k, 1)), np.ones((k, 1))
        # log likelihood at theta and at the proposals, log posterior at theta
        self.lik, self.lik_prop, self.lp = (np.zeros(theta.shape) for _ in range(3))


def mh_location_kernel(belief, rewards, theta0, n_iter, step, rng):
    """The agents' location step, run n_iter times from theta0 on a frozen
    history with a fixed proposal step; returns the visited path."""
    chain = _Chains(np.array([[float(theta0)]]))
    loc = chain.arms[0]
    for r in np.asarray(rewards, dtype=float):
        loc.append(r)
    loc.adopt(belief)
    path = np.empty(n_iter)
    scales = (step,)
    for i in range(n_iter):
        _Location.step(chain, scales, rng)
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


class CtsAgent:
    """Contextual Thompson sampling with resampled pull probabilities, one
    slot per user."""

    def __init__(self, n_arms, dim, config, seed, n_users=1):
        self.config = config
        self.v = config.resolved_v()
        self.rng = np.random.default_rng(seed)
        self.slots = [_Slot(float(config.lam), n_users, dim) for _ in range(n_users)]

    def step(self, ctx, env):
        slot = _slot_of(self.slots, ctx.user)
        thetas = np.asarray(ctx.contexts, dtype=float)

        def pull_probs(chol, arm):
            return _pi_estimate(thetas, slot.mu_bar, chol, self.v, self.config.mc_probs,
                                self.rng)

        return _linear_round(slot, thetas, self.v, self.rng, env, ctx.t, pull_probs)


class SctsAgent(CtsAgent):
    """Per-user contextual sampling: cts with one independent slot per user."""

    # an own entry, so bench/tracer.py wraps each class's step once
    step = CtsAgent.step


# ---------------------------------------------------------------------------
# stable lineage


class _StableSlot(_Slot, _Chains):
    """A user's slot of the asymmetric agents: the linear state plus one
    location chain per arm over that arm's row of theta."""

    def __init__(self, lam, n_users, dim, n_arms):
        _Slot.__init__(self, lam, n_users, dim)
        _Chains.__init__(self, np.zeros((n_arms, dim)))


class _StableBase:
    """Warm-up, MH sweeps, tail weighting and refresh cadence shared by the
    asymmetric agents, one independent slot per user. A subclass may replace
    the round that follows the sweep."""

    def __init__(self, n_arms, dim, config, seed, n_users=1):
        self.n_arms, self.dim = n_arms, dim
        self.config = config
        self.v = config.resolved_v()
        self.warmup = config.resolved_warmup(dim)
        self.rng = np.random.default_rng(seed)
        self.slots = [_StableSlot(float(config.lam), n_users, dim, n_arms)
                      for _ in range(n_users)]

    # -- warm-up and beliefs

    def _warm_arm(self, slot):
        """The round-robin arm of a warm-up round, None once the slot's
        beliefs are adopted, which the round that ends the warm-up does."""
        if slot.arms[0].belief is not None:
            return None
        visits = sum(len(loc) for loc in slot.arms)
        if visits < self.n_arms * self.warmup:
            return visits % self.n_arms
        self._init_slot(slot)
        return None

    def _init_slot(self, slot):
        for loc in slot.arms:
            belief = belief_from_history(loc.rewards)
            loc.theta[:] = belief.prior_mu
            loc.adopt(belief)

    def _after_reward(self, slot, arm, reward):
        loc = slot.arms[arm]
        loc.append(reward)
        if (
            loc.belief is not None
            and len(loc) >= _ECF_MIN_SAMPLES
            and len(loc) % self.config.refresh_every == 0
        ):
            loc.refit()

    # -- Metropolis-Hastings

    def _mh_sweep(self, slot):
        """One location step of every arm, the draws arm by arm in order."""
        scale = self.config.mh_step_scale
        _Location.step(slot, [scale * loc.belief.sigma for loc in slot.arms], self.rng)

    # -- one bandit round

    def _round(self, slot, ctx, env):
        """The contextual round on the swept locations, tail-weighted."""

        def tail_probs(chol, arm):
            # tail cutoffs and arm locations both project through the point
            # estimate so the bound and the integrand share reward units
            locs = slot.theta @ slot.mu_bar
            return tail_weights([loc.belief for loc in slot.arms], locs, float(locs[arm]))

        return _linear_round(slot, slot.theta, self.v, self.rng, env, ctx.t, tail_probs)

    def step(self, ctx, env):
        slot = _slot_of(self.slots, ctx.user)
        arm = self._warm_arm(slot)
        if arm is None:
            self._mh_sweep(slot)
            arm, reward = self._round(slot, ctx, env)
        else:
            reward = _pull(env, ctx.t, arm)
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

    def _round(self, slot, ctx, env):
        arm = int(np.argmax([loc.belief.mean_given_delta(loc.theta[0]) for loc in slot.arms]))
        return arm, _pull(env, ctx.t, arm)


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
        # one lone chain per pair, over that pair's entry of theta
        self._chains = [[_Chains(self.theta[s:s + 1, a:a + 1]) for a in range(n_actions)]
                        for s in range(n_states)]
        self.pairs = [[chain.arms[0] for chain in row] for row in self._chains]
        self.known_next = np.full((n_states, n_actions), -1, dtype=int)
        self.visits = np.zeros((n_states, n_actions), dtype=int)
        self.point_q = np.zeros((horizon, n_states, n_actions))
        self.episodes = 0

    def _sampled_means(self):
        m = np.empty((self.n_states, self.n_actions))
        for s, row in enumerate(self._chains):
            for a, chain in enumerate(row):
                belief = chain.arms[0].belief
                if belief is None:
                    # nothing observed: fresh prior draw drives the exploration
                    draw = _PRIOR_MU + _PRIOR_SD * self.rng.normal()
                    self.theta[s, a] = draw
                    m[s, a] = draw
                else:
                    _Location.step(chain, (self.config.mh_step_scale * belief.sigma,), self.rng)
                    m[s, a] = belief.mean_given_delta(self.theta[s, a])
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
            # as _pull: a reward that is not a finite number fails the run
            # with its place, before the pair's chain takes it in
            if not math.isfinite(r):
                raise NumericError(f"episode {self.episodes}, stage {h}, state {s}, "
                                   f"action {a}: reward {r} is not a finite number")
            nxt = trace.states[h + 1] if h + 1 < len(trace.states) else trace.final_state
            self._observe(s, a, r, nxt)
        self.point_q = _backward_q(self._empirical_means(), self.known_next, self.horizon)
        self.episodes += 1
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
        elif n >= _ECF_MIN_SAMPLES and n % self.config.refresh_every == 0:
            loc.refit()
        elif n < _ECF_MIN_SAMPLES and n % 5 == 0:
            loc.adopt(belief_from_history(loc.rewards))

    def greedy_policy(self):
        return self.point_q.argmax(axis=2)


# ---------------------------------------------------------------------------
# factory


class UniformAgent:
    """Pulls arms uniformly at random; the no-learning reference line."""

    def __init__(self, n_arms, seed=0):
        self.n_arms = int(n_arms)
        self.rng = np.random.default_rng(seed)

    def step(self, ctx, env):
        arm = int(self.rng.integers(self.n_arms))
        return arm, _pull(env, ctx.t, arm)


def make_agent(config, n_arms=2, dim=1, n_users=1, seed=0, mdp=None):
    alg = config.algorithm
    if alg == "uniform":
        return UniformAgent(n_arms, seed)
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
