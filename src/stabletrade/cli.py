"""Experiment harness behind the ``stabletrade`` command.

A single JSON file describes one experiment: which environment, which agents,
which seeds, where results land.  Loading it runs its kind's parser once,
which checks the config and turns it into cells, each a job over the parsed
inputs, so bad input fails at load and never inside a cell.  ``run``
executes every (cell x seed), optionally across worker processes that
receive the jobs, and writes per-cell trace CSVs next to an aggregate
summary and plot-ready tables.  Every output file carries the config hash,
re-running a config with the same seeds reproduces identical bytes, and a
results directory refuses cells from a different config unless forced.

``verify`` runs the built-in check suites (closed-form oracles, gradient
probes, floor guarantees, reproducibility) and prints a machine-readable
report; the acceptance tests call the same check functions.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import rl_agents
from .bandit_envs import EnvSpec, MdpTables, make_env, play, regret, true_q
from .errors import (ConfigError, DataError, InsufficientDataError, NumericError,
                     ParamError, _is_int, _is_real, _require)
from .market_sim import (
    CppiConfig,
    Metrics,
    TradingEnv,
    cppi_expert_action,
    load_ohlcv,
    median_metrics,
    metrics,
    run_policy,
    split,
    synth_market,
)
from .rl_agents import (
    BacktestConfig,
    DdpgAgent,
    TournamentResult,
    TrainConfig,
    VectorMarketEnv,
    alternating_series,
    backtest_curve,
    format_table2,
    format_table3,
    perfect_foresight_curve,
    tournament,
    train,
)
from .stable_core import _ECF_MIN_SAMPLES, StableParams, char_fn, estimate_ecf, sample
from .tinynet import Mlp, gradient_check
from .ts_agents import (
    ActsAgent,
    AgentConfig,
    CtsAgent,
    SactsAgent,
    SctsAgent,
    belief_from_history,
    make_agent,
    mh_location_kernel,
)

FORMAT_VERSION = 1

_ENV_FIELDS = set(EnvSpec.__dataclass_fields__)
# synthetic-market keys: (admissible value, what the message asks for);
# alpha and max_loss may also be null, which is their default
_MARKET_KEYS = {
    "d": (lambda v: _is_int(v, 1), "an integer >= 1"),
    "days": (lambda v: _is_int(v, 2), "an integer >= 2"),
    "seed": (lambda v: _is_int(v, 0), "an integer >= 0"),
    "drift": (lambda v: _is_real(v) and v > -1.0, "a number > -1"),
    "vol": (lambda v: _is_real(v) and v >= 0.0, "a number >= 0"),
    "corr": (lambda v: _is_real(v) and -1.0 <= v <= 1.0, "a number in [-1, 1]"),
    "alpha": (lambda v: _is_real(v) and 0.0 < v <= 2.0, "a number in (0, 2]"),
    "max_loss": (lambda v: _is_real(v) and 0.0 < v <= 1.0, "a number in (0, 1]"),
    "start_price": (lambda v: _is_real(v) and v > 0.0, "a number > 0"),
}
_BANDIT_PARAM_KEYS = {"rounds", "env_seed"}
_TOURNAMENT_PARAM_KEYS = {"days", "episodes"}
_BACKTEST_PARAM_KEYS = {"backtest"}
# execution float params: default, range test, range; floor is a fraction
# of the initial cash
_EXECUTION_REALS = {"initial_cash": (100.0, lambda v: v > 0.0, "> 0"),
                    "cost_bps": (10.0, lambda v: 0.0 <= v < 1e4, "in [0, 10000)"),
                    "floor": (0.85, lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
                    "multiplier": (2.0, lambda v: v >= 0.0, ">= 0")}
_EXECUTION_PARAM_KEYS = {"cadences"} | set(_EXECUTION_REALS)
_ESTIMATE_PARAM_KEYS = {"file", "n_freq"}


# ---------------------------------------------------------------------------
# configuration


def _stable_from(raw, key):
    """[alpha, beta, sigma, delta] or a dict with exactly those keys."""
    if raw is None:
        return None
    if isinstance(raw, dict):
        if set(raw) != {"alpha", "beta", "sigma", "delta"}:
            raise ConfigError(f"{key}: stable params need alpha, beta, sigma and delta")
        raw = [raw["alpha"], raw["beta"], raw["sigma"], raw["delta"]]
    elif not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{key}: stable params must be a 4-list or a dict")
    elif len(raw) != 4:
        raise ConfigError(f"{key}: stable params need [alpha, beta, sigma, delta]")
    return StableParams(*_floats(raw, key, "stable params"))


def _floats(raw, key, what):
    """raw's items as floats; a ConfigError naming key when one is no number."""
    try:
        return [float(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: {what} must be numbers, got {raw!r}") from None


def _env_spec_from(raw):
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("this experiment kind needs a non-empty env table")
    d = dict(raw)
    extra = set(d) - _ENV_FIELDS
    if extra:
        raise ConfigError(f"unknown env keys: {sorted(extra)}")
    if "noise" in d and d["noise"] is not None:
        n = d["noise"]
        if isinstance(n, list) and n and isinstance(n[0], (list, dict)):
            d["noise"] = [_stable_from(v, f"env.noise[{i}]")    # one set per arm
                          for i, v in enumerate(n)]
        else:
            d["noise"] = _stable_from(n, "env.noise")
    if d.get("arm_means") is not None:
        d["arm_means"] = _floats(d["arm_means"], "env.arm_means", "arm means")
    if d.get("context_params") is not None:
        d["context_params"] = _stable_from(d["context_params"], "env.context_params")
    if d.get("mu") is not None:
        try:
            d["mu"] = np.asarray(d["mu"], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"env.mu must be a list of numbers, got {d['mu']!r}") from None
    if d.get("mdp") is not None:
        d["mdp"] = MdpTables.from_dict(d["mdp"])
    return EnvSpec(**d).validate()


def _market_settings(raw):
    """A loaded CSV price series, or the checked synth_market keywords."""
    if not isinstance(raw, dict):
        raise ConfigError(f"env must be a table, got {raw!r}")
    if "csv" in raw:
        extra = set(raw) - {"csv"}
        if extra:
            raise ConfigError(f"csv markets take no other env keys: {sorted(extra)}")
        return load_ohlcv(raw["csv"])
    extra = set(raw) - set(_MARKET_KEYS)
    if extra:
        raise ConfigError(f"unknown market keys: {sorted(extra)}")
    kw = {"d": 2, "days": 250}    # synth_market's defaults otherwise
    for key, v in raw.items():
        ok, want = _MARKET_KEYS[key]
        _require(ok(v) or (v is None and key in ("alpha", "max_loss")), f"env.{key}", v, want)
        kw[key] = v if v is None or key in ("d", "days", "seed") else float(v)
    return kw


def _market_from(raw):
    """A price series from a CSV path or synthetic generator settings."""
    market = _market_settings(raw)
    return synth_market(**market) if isinstance(market, dict) else market


def _check_param_keys(kind, params, allowed):
    extra = set(params) - allowed
    if extra:
        raise ConfigError(f"unknown params for {kind}: {sorted(extra)}")


@dataclass
class ExperimentConfig:
    """One experiment: an environment, agents to run on it, seeds, a target
    directory.  The hash covers everything that shapes the results (not the
    cosmetic name or the output location), so moved copies still match.

    ``validate`` parses the config into ``cells``: (label, job) pairs in
    output order, where ``job(seed)`` runs one cell on the parsed inputs."""

    kind: str
    name: str = "experiment"
    env: dict = field(default_factory=dict)
    agents: list = field(default_factory=list)
    seeds: list = field(default_factory=lambda: [0])
    out_dir: str = "results"
    params: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    def validate(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        _require(_is_int(self.format_version), "format_version", self.format_version,
                 "an integer")
        if self.format_version != FORMAT_VERSION:
            raise ConfigError(
                f"format_version {self.format_version} unsupported, "
                f"this build writes {FORMAT_VERSION}")
        _require(isinstance(self.out_dir, (str, os.PathLike)) and self.out_dir != "",
                 "out_dir", self.out_dir, "a non-empty directory path")
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise ConfigError("seeds must be a non-empty list")
        _require(all(_is_int(s, 0) for s in self.seeds), "seeds", self.seeds,
                 "integers >= 0")
        self.seeds = list(self.seeds)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if not isinstance(self.params, dict):
            raise ConfigError("params must be a table")
        if not isinstance(self.agents, (list, tuple)):
            raise ConfigError("agents must be a list")
        self.agents = [a if isinstance(a, dict) else {"algorithm": str(a)}
                       for a in self.agents]
        for a in self.agents:
            if "algorithm" not in a:
                raise ConfigError("every agent entry needs an algorithm name")
        cells = _KINDS[self.kind][0](self)
        labels = [lab for lab, _ in cells]
        for lab in labels:
            if not (isinstance(lab, str) and
                    lab.replace("_", "").replace("-", "").replace(".", "").isalnum()):
                raise ConfigError(f"label {lab!r} not usable in file names")
        if len(set(labels)) != len(labels):
            raise ConfigError("agent labels must be distinct, set label: on duplicates")
        self.cells = cells
        return self

    def canonical(self):
        # out_dir is where results land, not what the experiment is; leaving
        # it out keeps config.json and the hash stable across target moves
        return {
            "kind": self.kind, "name": self.name, "env": self.env,
            "agents": self.agents, "seeds": list(self.seeds),
            "params": self.params,
            "format_version": self.format_version,
        }

    def hash(self):
        payload = self.canonical()
        payload.pop("name")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("experiment config must be a table")
        extra = set(raw) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        if "kind" not in raw:
            raise ConfigError("experiment config needs a kind")
        return cls(**raw).validate()


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# agents the harness adds on top of the library


class UniformAgent:
    """Pulls arms uniformly at random; the no-learning reference line."""

    def __init__(self, n_arms, seed=0):
        self.n_arms = int(n_arms)
        self.rng = np.random.default_rng(seed)

    def step(self, ctx, env):
        arm = int(self.rng.integers(self.n_arms))
        return arm, env.pull(ctx.t, arm)


# ---------------------------------------------------------------------------
# experiment kinds: each parser checks its kind's params, env and agents and
# returns the cells as (label, job) pairs; a job is a picklable partial of a
# cell function over the parsed inputs, called with the cell seed


def _parse_bandit(cfg):
    params = cfg.params
    _check_param_keys(cfg.kind, params, _BANDIT_PARAM_KEYS)
    if "rounds" in params:
        _require(_is_int(params["rounds"], 1), "params.rounds", params["rounds"],
                 "an integer >= 1")
    # a fixed-env study varies only the agent seed; the Bayes variant redraws
    # the environment with the cell seed (env_seed None) so averaging
    # estimates the prior mean
    env_seed = None
    if cfg.kind == "bandit-regret":
        env_seed = params.get("env_seed", 0)
        _require(_is_int(env_seed, 0), "params.env_seed", env_seed, "an integer >= 0")
    elif "env_seed" in params:
        raise ConfigError("bayes-regret draws the environment from each seed, "
                          "drop params.env_seed")
    spec = _env_spec_from(cfg.env)
    rounds = params.get("rounds", spec.horizon)
    if not cfg.agents:
        raise ConfigError("bandit experiments need at least one agent")
    cells = []
    for a in cfg.agents:
        d = {k: v for k, v in a.items() if k != "label"}
        alg = d["algorithm"]
        agent = None    # the uniform baseline
        if alg == "uniform":
            if set(d) != {"algorithm"}:
                raise ConfigError("the uniform baseline takes no settings")
        else:
            agent = AgentConfig.from_dict(d)
        if (alg == "mdp_acts") != (spec.kind == "adversarial_mdp"):
            raise ConfigError(f"agent {alg!r} does not fit env kind {spec.kind!r}: mdp_acts "
                              "plays adversarial_mdp episodes, every other agent arm rounds")
        cells.append((a.get("label", alg),
                      partial(_bandit_cell, spec, agent, rounds, env_seed)))
    return cells


def _bandit_cell(spec, agent_cfg, rounds, env_seed, seed):
    env = make_env(spec, seed if env_seed is None else env_seed)
    if agent_cfg is None:
        agent = UniformAgent(spec.n_arms, seed=seed)
    else:
        agent = make_agent(agent_cfg, n_arms=spec.n_arms, dim=spec.dim,
                           n_users=spec.n_users, seed=seed, mdp=spec.mdp)
    if spec.kind == "adversarial_mdp":
        rows = []
        cum = 0.0
        for ep in range(rounds):
            trace, ep_reg = agent.run_episode(env)
            cum += ep_reg
            rows.append((ep + 1, float(sum(trace.rewards)), float(ep_reg), float(cum)))
        header = ("episode", "return", "regret", "cum_regret")
        stats = {"total_regret": float(cum),
                 "mean_return": float(np.mean([r[1] for r in rows]))}
    else:
        trace = play(env, agent, rounds)
        reg = regret(trace)
        rows = [(t + 1, trace.arms[t], float(trace.rewards[t]), float(reg.prefix[t]))
                for t in range(rounds)]
        header = ("t", "arm", "reward", "cum_regret")
        stats = {"total_regret": float(reg.total),
                 "mean_reward": float(np.mean(trace.rewards))}
    # a non-finite regret or mean fails the cell instead of reading as null
    for key, value in stats.items():
        if not np.isfinite(value):
            raise NumericError(f"{key} is {value}, not a finite number")
    return {"header": header, "rows": rows, "stats": stats}


def _roster(cfg, roster, keys):
    """The agent entries of a fixed-roster kind, each algorithm listed once;
    the whole roster when none is listed."""
    agents = cfg.agents or [{"algorithm": n} for n in roster]
    seen = set()
    for a in agents:
        if set(a) - keys:
            raise ConfigError(f"{cfg.kind} agents take only {' and '.join(sorted(keys))}")
        name = a["algorithm"]
        if name not in roster:
            raise ConfigError(f"unknown agent {name!r}, choose from {list(roster)}")
        if name in seen:
            raise ConfigError(f"agent {name!r} is listed twice, list each algorithm once")
        seen.add(name)
    return agents


def _parse_tournament(cfg):
    params = cfg.params
    _check_param_keys(cfg.kind, params, _TOURNAMENT_PARAM_KEYS)
    if cfg.env:
        raise ConfigError("tournaments build their own markets, drop env")
    days, episodes = params.get("days", 120), params.get("episodes", 40)
    _require(_is_int(days, 2), "params.days", days, "an integer >= 2")
    _require(_is_int(episodes, 1), "params.episodes", episodes, "an integer >= 1")
    names = [a["algorithm"] for a in
             _roster(cfg, rl_agents.TOURNAMENT_AGENTS, {"algorithm"})]
    if len(names) < 2:
        raise ConfigError("a tournament needs at least two agents")
    return [("round", partial(_tournament_cell, names, days, episodes))]


def _tournament_cell(names, days, episodes, seed):
    rets = tournament(names, seed, days, episodes)
    return {"header": ("agent", "round_return"), "rows": list(zip(names, rets)),
            "stats": {"best": names[int(np.argmax(rets))]}}


def _parse_backtest(cfg):
    _check_param_keys(cfg.kind, cfg.params, _BACKTEST_PARAM_KEYS)
    series = _market_from(cfg.env)
    bt = BacktestConfig.from_dict(cfg.params.get("backtest", {}))
    agents = _roster(cfg, rl_agents.BACKTEST_AGENTS, {"algorithm", "label"})
    train_series, test_series = split(series, bt.split_ratio)
    learners = [a["algorithm"] for a in agents if a["algorithm"] in rl_agents.BACKTEST_LEARNERS]
    if learners and train_series.n_days < 2:
        raise ConfigError(
            f"params.backtest.split_ratio {bt.split_ratio} leaves {train_series.n_days} of "
            f"{series.n_days} days to train on; {', '.join(learners)} need at least 2")
    return [(a.get("label", a["algorithm"]),
             partial(_backtest_cell, a["algorithm"], train_series, test_series, bt))
            for a in agents]


def _backtest_cell(name, train_series, test_series, bt, seed):
    curve = backtest_curve(name, train_series, test_series, seed, bt)
    rows = [(t, float(v)) for t, v in enumerate(curve)]
    # the algorithm names the Table 3 row, the label only the files
    return {"header": ("day", "asset"), "rows": rows,
            "stats": asdict(metrics(curve)), "algorithm": name}


def _parse_execution(cfg):
    params = cfg.params
    _check_param_keys(cfg.kind, params, _EXECUTION_PARAM_KEYS)
    if cfg.agents:
        raise ConfigError("execution runs trade the built-in floor policy, drop agents")
    market = _market_settings(cfg.env)
    if "seed" in cfg.env:
        raise ConfigError("execution draws one market per seed, drop env seed")
    if not isinstance(market, dict) and market.n_days < 2:
        raise ConfigError(f"env.csv {cfg.env['csv']!r} holds {market.n_days} day, "
                          "an execution run needs at least 2")
    v = {}
    for key, (default, ok, want) in _EXECUTION_REALS.items():
        v[key] = params.get(key, default)
        _require(_is_real(v[key]) and ok(v[key]), f"params.{key}", v[key],
                 f"a finite number {want}")
    initial_cash = float(v["initial_cash"])
    rule = CppiConfig(floor=float(v["floor"]) * initial_cash,
                      multiplier=float(v["multiplier"])).validate(initial_cash)
    cadences = params.get("cadences", [1, 5, 21])
    _require(isinstance(cadences, list) and cadences and all(_is_int(c, 1) for c in cadences),
             "params.cadences", cadences, "a non-empty list of integers >= 1")
    return [(f"c{c}", partial(_execution_cell, market, initial_cash,
                              float(v["cost_bps"]), rule, c))
            for c in cadences]


def _execution_cell(market, initial_cash, cost_bps, rule, cadence, seed):
    series = synth_market(**market, seed=seed) if isinstance(market, dict) else market
    env = TradingEnv(series, initial_cash=initial_cash, cost_bps=cost_bps)
    curve = run_policy(env, lambda state: (cppi_expert_action(state, rule)
                                           if state.t % cadence == 0
                                           else np.zeros(series.n_stocks)))
    rows = [(t, float(v)) for t, v in enumerate(curve)]
    return {"header": ("day", "asset"), "rows": rows,
            "stats": {**asdict(metrics(curve)), "floor": rule.floor,
                      "floor_breached": bool(curve.min() < rule.floor - 1e-9)}}


def _read_reals(path):
    """Newline-delimited finite reals; blank lines and # comments are skipped."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read samples from {path}: {exc}") from None
    out = []
    for i, line in enumerate(lines):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        try:
            out.append(float(s))
        except ValueError:
            raise DataError(f"{path} line {i + 1}: not a real number: {s!r}") from None
        if not np.isfinite(out[-1]):
            raise DataError(f"{path} line {i + 1}: not a finite number: {s!r}")
    if not out:
        raise DataError(f"{path} holds no samples")
    return np.asarray(out)


def _estimate_payload(est, n):
    p = est.params
    return {"alpha": p.alpha, "beta": p.beta, "sigma": p.sigma,
            "delta": p.delta, "n": int(n), "degenerate": bool(est.degenerate)}


def _parse_estimate(cfg):
    params = cfg.params
    _check_param_keys(cfg.kind, params, _ESTIMATE_PARAM_KEYS)
    if cfg.agents or cfg.env:
        raise ConfigError("estimate-stable takes only params.file")
    if "file" not in params:
        raise ConfigError("estimate-stable needs params.file")
    n_freq = params.get("n_freq", 10)
    _require(_is_int(n_freq, 2), "params.n_freq", n_freq, "an integer >= 2")
    path = params["file"]
    _require(isinstance(path, str), "params.file", path, "a file path")
    xs = _read_reals(path)
    if xs.size < _ECF_MIN_SAMPLES:
        raise InsufficientDataError(f"params.file {path} holds {xs.size} samples, "
                                    f"need at least {_ECF_MIN_SAMPLES}")
    return [("estimate", partial(_estimate_cell, xs, n_freq))]


def _estimate_cell(xs, n_freq, seed):
    est = estimate_ecf(xs, n_freq=n_freq)
    return {"header": None, "rows": None, "stats": _estimate_payload(est, xs.size)}


def _run_cell(label, seed, job):
    try:
        return {"label": label, "seed": seed, "status": "ok", **job(seed)}
    except Exception as exc:    # any cell failure becomes report content
        return {"label": label, "seed": seed, "status": "error",
                "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# persistence


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_lines(path, lines):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _scrub(x):
    """JSON-safe copy: numpy scalars unwrapped, non-finite floats to null."""
    if isinstance(x, dict):
        return {k: _scrub(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_scrub(v) for v in x]
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return v if np.isfinite(v) else None
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def _write_json(path, payload):
    with open(path, "w", newline="") as fh:
        json.dump(_scrub(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _seed_tag(cfg):
    return ";".join(str(s) for s in cfg.seeds)


def _write_trace(out_dir, h, r):
    lines = [f"# config={h} seed={r['seed']} cell={r['label']}",
             ",".join(r["header"])]
    lines += [",".join(_fmt(v) for v in row) for row in r["rows"]]
    _write_lines(os.path.join(out_dir, f"trace_{r['label']}_s{r['seed']}.csv"), lines)


def _ok(results):
    return [r for r in results if r["status"] == "ok"]


def _by_label(results):
    """The ok results of each label that has any, labels in cell order."""
    by = {r["label"]: [] for r in results}
    for r in _ok(results):
        by[r["label"]].append(r)
    return {lab: rs for lab, rs in by.items() if rs}


def _agg_bandit(cfg, h, results, out_dir):
    by = _by_label(results)
    curves = {lab: np.mean([[row[3] for row in r["rows"]] for r in rs], axis=0)
              for lab, rs in by.items()}
    if curves:
        cols = list(curves)
        horizon = len(curves[cols[0]])
        lines = [f"# config={h} seeds={_seed_tag(cfg)}", ",".join(["t"] + cols)]
        for t in range(horizon):
            lines.append(",".join([str(t + 1)]
                                  + [_fmt(float(curves[c][t])) for c in cols]))
        _write_lines(os.path.join(out_dir, "regret_mean.csv"), lines)
    return {"total_regret_mean":
            {lab: float(np.mean([r["stats"]["total_regret"] for r in rs]))
             for lab, rs in by.items()}}


def _agg_tournament(cfg, h, results, out_dir):
    ok = _ok(results)
    if not ok:
        return {}
    # every cell is one round; its rows list the agents in roster order
    names = [name for name, _ in ok[0]["rows"]]
    res = TournamentResult.from_returns(
        names, np.column_stack([[ret for _, ret in r["rows"]] for r in ok]))
    _write_lines(os.path.join(out_dir, "table2.txt"),
                 [f"# config={h} seeds={_seed_tag(cfg)}", format_table2(res)])
    lines = [f"# config={h} seeds={_seed_tag(cfg)}", "agent,opponent,wins_pct"]
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            lines.append(f"{a},{b},{_fmt(float(res.wins[i, j]))}")
    _write_lines(os.path.join(out_dir, "wins.csv"), lines)
    return {"avg_wins": {nm: float(res.avg_wins[i]) for i, nm in enumerate(names)},
            "wins": {a: {b: float(res.wins[i, j]) for j, b in enumerate(names)}
                     for i, a in enumerate(names)}}


_METRIC_KEYS = tuple(f.name for f in fields(Metrics))


def _cell_metrics(r):
    return Metrics(*(r["stats"][k] for k in _METRIC_KEYS))


def _agg_backtest(cfg, h, results, out_dir):
    by = _by_label(results)
    if not by:
        return {}
    names = list(by)
    rows = {lab: median_metrics([_cell_metrics(r) for r in rs]) for lab, rs in by.items()}
    algo = {lab: rs[0]["algorithm"] for lab, rs in by.items()}
    table = format_table3([algo[lab] for lab in names],
                          {algo[lab]: rows[lab] for lab in names})
    _write_lines(os.path.join(out_dir, "table3.txt"),
                 [f"# config={h} seeds={_seed_tag(cfg)}", table])
    lines = [f"# config={h} seeds={_seed_tag(cfg)}",
             "agent,seed,annual_return,sharpe,max_drawdown"]
    for lab in names:
        for r in by[lab]:
            lines.append(",".join([lab, str(r["seed"])]
                                  + [_fmt(r["stats"][k]) for k in _METRIC_KEYS]))
    _write_lines(os.path.join(out_dir, "metrics.csv"), lines)
    return {"median": {lab: asdict(rows[lab]) for lab in names}}


def _agg_execution(cfg, h, results, out_dir):
    by = _by_label(results)
    if not by:
        return {}
    lines = [f"# config={h} seeds={_seed_tag(cfg)}",
             "cadence,annual_return,sharpe,max_drawdown,floor_breaches"]
    agg = {}
    for lab, rs in by.items():
        med = asdict(median_metrics([_cell_metrics(r) for r in rs]))
        breaches = int(sum(r["stats"]["floor_breached"] for r in rs))
        lines.append(",".join([lab[1:]] + [_fmt(med[k]) for k in _METRIC_KEYS]
                              + [str(breaches)]))
        agg[lab] = {**med, "floor_breaches": breaches}
    _write_lines(os.path.join(out_dir, "cadence.csv"), lines)
    return agg


def _agg_estimate(cfg, h, results, out_dir):
    ok = _ok(results)
    if not ok:
        return {}
    stats = ok[0]["stats"]
    _write_json(os.path.join(out_dir, "estimate.json"), {"hash": h, **stats})
    return dict(stats)


# kind -> (parser, aggregator)
_KINDS = {
    "bandit-regret": (_parse_bandit, _agg_bandit),
    "bayes-regret": (_parse_bandit, _agg_bandit),
    "tournament": (_parse_tournament, _agg_tournament),
    "backtest": (_parse_backtest, _agg_backtest),
    "execution": (_parse_execution, _agg_execution),
    "estimate-stable": (_parse_estimate, _agg_estimate),
}


# ---------------------------------------------------------------------------
# run


@dataclass
class RunReport:
    out_dir: str
    config_hash: str
    cells: list
    failures: list


def _resolve_workers(workers):
    if workers is None:
        workers = os.environ.get("STABLETRADE_WORKERS")
    if workers is None:
        return os.cpu_count() or 1
    try:
        w = int(workers)
    except (TypeError, ValueError):
        raise ConfigError(f"worker count must be an integer, got {workers!r}") from None
    if w < 1:
        raise ConfigError("worker count must be >= 1")
    return w


def run(config, workers=None, force=False):
    """Execute every cell of a validated experiment and persist the result
    bundle.

    Results land in config.out_dir; a directory already holding another
    config's results is refused unless force is set.  Cells run seed by seed,
    possibly in parallel, and are folded back in their listed order, so the
    output bytes never depend on the worker count.
    """
    workers = _resolve_workers(workers)
    h = config.hash()
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    guard = os.path.join(out_dir, "config.json")
    if os.path.exists(guard) and not force:
        try:
            with open(guard) as fh:
                prev = json.load(fh).get("hash")
        except (OSError, json.JSONDecodeError):
            prev = None
        if prev != h:
            raise ConfigError(
                f"{out_dir} holds results for config {prev}, not {h}; "
                "pass --force to overwrite")
    # an estimate is one fit, whatever the seeds
    seeds = config.seeds[:1] if config.kind == "estimate-stable" else config.seeds
    cells = [(lab, s, job) for s in seeds for lab, job in config.cells]
    # never more worker processes than cores or cells
    workers = min(workers, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_cell, *zip(*cells)))
    else:
        results = [_run_cell(*c) for c in cells]

    _write_json(guard, {"hash": h, "config": config.canonical()})
    for r in results:
        if r["status"] == "ok" and r.get("rows") is not None:
            _write_trace(out_dir, h, r)
    aggregate = _KINDS[config.kind][1](config, h, results, out_dir)
    cell_summaries = []
    for r in results:
        entry = {"label": r["label"], "seed": r["seed"], "status": r["status"]}
        entry["stats" if r["status"] == "ok" else "error"] = (
            r["stats"] if r["status"] == "ok" else r["error"])
        cell_summaries.append(entry)
    _write_json(os.path.join(out_dir, "summary.json"),
                {"name": config.name, "kind": config.kind, "hash": h,
                 "seeds": config.seeds, "cells": cell_summaries,
                 "aggregate": aggregate})
    failures = [f"{r['label']}/s{r['seed']}: {r['error']}"
                for r in results if r["status"] != "ok"]
    return RunReport(out_dir=out_dir, config_hash=h, cells=cell_summaries,
                     failures=failures)


# ---------------------------------------------------------------------------
# verification checks; the acceptance tests call these directly


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _finish(name, t0, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       seconds=time.perf_counter() - t0)


def check_cf_fidelity():
    """Sampler vs closed-form characteristic function, modulus agreement."""
    t0 = time.perf_counter()
    settings = [(1.2, -0.8), (1.2, 0.0), (1.2, 0.8),
                (1.5, -0.8), (1.5, 0.8),
                (1.8, 0.0), (1.8, 0.8),
                (2.0, -0.8), (2.0, 0.0)]
    u = np.linspace(0.1, 2.0, 10)
    worst = 0.0
    for k, (a, b) in enumerate(settings):
        p = StableParams(a, b, 1.0, 0.0)
        x = sample(p, 100_000, np.random.default_rng(1000 + k))
        emp = np.exp(1j * u[:, None] * x[None, :]).mean(axis=1)
        gap = np.max(np.abs(np.abs(emp) - np.abs(char_fn(p, u))))
        worst = max(worst, float(gap))
    return _finish("cf-fidelity", t0, worst <= 0.03,
                   f"max |cf| gap {worst:.4f} over {len(settings)} settings, tol 0.03")


def check_ecf_accuracy():
    """Parameter recovery from the empirical characteristic function."""
    t0 = time.perf_counter()
    true = StableParams(1.5, 0.5, 1.0, 0.0)
    errs = np.empty((20, 4))
    for s in range(20):
        x = sample(true, 10_000, np.random.default_rng(2000 + s))
        q = estimate_ecf(x).params
        errs[s] = [abs(q.alpha - true.alpha), abs(q.beta - true.beta),
                   abs(q.sigma - true.sigma), abs(q.delta - true.delta)]
    mae = errs.mean(axis=0)
    detail = ("MAE alpha {:.3f} beta {:.3f} sigma {:.3f} delta {:.3f}, tol 0.1"
              .format(*mae))
    return _finish("ecf-accuracy", t0, np.all(mae <= 0.1), detail)


def check_posterior_oracle():
    """The agents' location step, run as a 60,000-step chain on a frozen
    history, vs a 101-point grid posterior."""
    t0 = time.perf_counter()
    rewards = sample(StableParams(1.5, 0.3, 1.0, 0.8), 200,
                     np.random.default_rng(7))
    belief = belief_from_history(rewards)
    chain = mh_location_kernel(belief, rewards, belief.prior_mu, 60_000, 0.1,
                               np.random.default_rng(8))
    kept = chain[10_000:]
    lo, hi = kept.min(), kept.max()
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, 101)
    logp = belief.log_posterior(rewards, grid)
    q = np.exp(logp - logp.max())
    q /= q.sum()
    h = grid[1] - grid[0]
    edges = np.concatenate([[grid[0] - h / 2], grid + h / 2])
    counts, _ = np.histogram(kept, bins=edges)
    p = counts / counts.sum()
    tv = 0.5 * np.sum(np.abs(p - q))
    return _finish("posterior-oracle", t0, tv <= 0.1,
                   f"total variation {tv:.3f} on a 101-point grid, tol 0.1")


def _check_run(tmp, name, raw):
    """One check's experiment, run by the harness with one worker into
    tmp/name: its report and its summary's aggregate."""
    rep = run(ExperimentConfig.from_dict(
        {**raw, "name": name, "out_dir": os.path.join(tmp, name)}), workers=1)
    with open(os.path.join(rep.out_dir, "summary.json")) as fh:
        return rep, json.load(fh)["aggregate"]


def _failed(name, t0, failures):
    return _finish(name, t0, False, f"failed cells: {'; '.join(failures)}")


def check_regret_sublinearity():
    """Contextual agents flatten and clearly beat the uniform reference."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        # mu is redrawn per seed and shared across agents; the gaussian agent
        # needs its posterior scale matched to the heavy-tail noise
        # dispersion here, the tighter lineage default locks in early
        rep, _ = _check_run(tmp, "regret", {
            "kind": "bayes-regret",
            "env": {"kind": "linear", "n_arms": 5, "dim": 10, "horizon": 2000},
            "agents": [{"algorithm": "cts", "v": 1.0}, {"algorithm": "acts"},
                       {"algorithm": "uniform"}],
            "seeds": list(range(20))})
        if rep.failures:
            return _failed("regret-sublinearity", t0, rep.failures)
        with open(os.path.join(rep.out_dir, "regret_mean.csv")) as fh:
            head, *rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    curves = dict(zip(head, np.array(rows, dtype=float).T))    # t, then each agent's mean
    ratios = {a: curves[a][-1] / curves[a][999] for a in ("cts", "acts")}
    edge = {a: 1.0 - curves[a][-1] / curves["uniform"][-1] for a in ("cts", "acts")}
    ok = (all(r < 1.8 for r in ratios.values())
          and all(e >= 0.40 for e in edge.values()))
    detail = ("growth cts {:.2f} acts {:.2f} (tol 1.8); edge over uniform "
              "cts {:.0%} acts {:.0%} (need 40%)"
              .format(ratios["cts"], ratios["acts"], edge["cts"], edge["acts"]))
    return _finish("regret-sublinearity", t0, ok, detail)


def check_degeneracy_equivalence():
    """The per-user variants with one user at lam = 0 replay their parents
    arm for arm."""
    t0 = time.perf_counter()
    spec = EnvSpec(kind="linear", n_arms=4, dim=6, horizon=100,
                   mu=np.linspace(0.0, 1.0, 6))
    e1, e2 = make_env(spec, 7), make_env(spec, 7)
    c1 = CtsAgent(4, 6, AgentConfig(algorithm="cts", v=0.25), seed=11)
    c2 = SctsAgent(4, 6, AgentConfig(algorithm="scts", v=0.25, lam=0.0),
                   seed=11, n_users=1)
    lin = play(e1, c1, 100).arms == play(e2, c2, 100).arms

    spec = EnvSpec(kind="plain", n_arms=3, horizon=100,
                   arm_means=[0.0, 0.4, 1.0])
    e1, e2 = make_env(spec, 9), make_env(spec, 9)
    a1 = ActsAgent(3, 1, AgentConfig(algorithm="acts"), seed=2)
    a2 = SactsAgent(3, 1, AgentConfig(algorithm="sacts", lam=0.0), seed=2,
                    n_users=1)
    pln = play(e1, a1, 100).arms == play(e2, a2, 100).arms
    detail = (f"100-round arm traces: one-user scts matches cts {lin}, "
              f"one-user sacts matches acts {pln}")
    return _finish("degeneracy", t0, lin and pln, detail)


def _toy_mdp():
    return MdpTables(
        n_states=2, n_actions=2, horizon=2,
        transitions=np.array([[0, 1], [0, 1]]),
        reward_means=np.array([[0.3, 0.1], [0.0, 1.0]]),
        start_states=[0])


def check_mdp_toy_optimality():
    """Stage learner recovers the enumeration-optimal policy on the 2x2x2 toy."""
    t0 = time.perf_counter()
    toy = _toy_mdp()
    target = true_q(toy).argmax(axis=2)
    noise = StableParams(1.8, 0.0, 0.3, 0.0)
    hits = 0
    for s in range(20):
        spec = EnvSpec(kind="adversarial_mdp", mdp=toy, noise=noise,
                       adversary="greedy")
        env = make_env(spec, seed=s)
        agent = make_agent(AgentConfig(algorithm="mdp_acts"), seed=s, mdp=toy)
        for _ in range(500):
            agent.run_episode(env)
        hits += bool(np.array_equal(agent.greedy_policy(), target))
    # noiseless rewards pin the value table exactly once every pair is visited
    env = make_env(EnvSpec(kind="adversarial_mdp", mdp=toy, noise=None), seed=0)
    agent = make_agent(AgentConfig(algorithm="mdp_acts"), seed=0, mdp=toy)
    for _ in range(60):
        agent.run_episode(env)
    exact = bool((agent.visits > 0).all()
                 and np.allclose(agent.point_q, true_q(toy), atol=1e-12))
    return _finish("mdp-toy", t0, hits >= 18 and exact,
                   f"optimal policy in {hits}/20 seeds (need 18); "
                   f"exact value table after coverage: {exact}")


def check_gradient_integrity():
    """Finite differences vs backprop on every deployed network shape."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    nets = [
        ("actor", Mlp([13, 64, 64, 2], out_act="tanh", seed=1), 13),
        ("critic", Mlp([15, 64, 64, 1], seed=2), 15),
        ("dqn", Mlp([9, 32, 3], seed=3), 9),
        ("probe", Mlp([3, 8, 1], out_act="tanh", seed=4), 3),
    ]
    worst_name, worst = "", 0.0
    for name, net, dim in nets:
        err = gradient_check(net, rng.normal(size=dim))
        if err > worst:
            worst_name, worst = name, float(err)
    return _finish("gradients", t0, worst < 1e-4,
                   f"worst relative error {worst:.2e} ({worst_name}), tol 1e-4")


def check_ddpg_learnability():
    """Actor-critic reaches near-omniscient profit on the alternating toy."""
    t0 = time.perf_counter()
    series = alternating_series(25)
    omn = perfect_foresight_curve(series)
    wins = 0
    ratios = []
    for s in range(20):
        env = VectorMarketEnv(series, cost_bps=0.0, reward_scale=0.05)
        cfg = TrainConfig(lam_e=0.0, warmup_steps=64, noise_scale=0.3)
        agent = DdpgAgent(env.state_dim, env.action_dim, config=cfg, seed=s)
        train(agent, env, 300)
        curve = run_policy(VectorMarketEnv(series, cost_bps=0.0, reward_scale=0.05),
                           agent.act)
        ratio = (curve[-1] - curve[0]) / (omn[-1] - omn[0])
        ratios.append(float(ratio))
        wins += ratio >= 0.9
    return _finish("ddpg-toy", t0, wins >= 16,
                   f"{wins}/20 seeds at >= 0.9x omniscient (need 16), "
                   f"median ratio {np.median(ratios):.2f}")


def check_cppi_floor():
    """The floor policy never breaches on bounded-loss markets, and its
    supervised trader draws down no more than the unsupervised one."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        # a floor of 0.8 * 100.0 = 80.0 exactly; k * max_loss = 0.6 <= 1
        floor, by_cadence = _check_run(tmp, "floor", {
            "kind": "execution",
            "env": {"d": 2, "days": 60, "drift": 0.0, "vol": 0.45, "max_loss": 0.3},
            "seeds": list(range(1000)),
            "params": {"initial_cash": 100.0, "cost_bps": 0.0, "floor": 0.8,
                       "multiplier": 2.0, "cadences": [1]}})
        drawdown, medians = _check_run(tmp, "drawdown", {
            "kind": "backtest",
            "env": {"d": 2, "days": 150, "vol": 0.35, "seed": 0, "alpha": 1.8,
                    "max_loss": 0.25},
            "agents": ["ddpg", "cppi_ddpg"],
            "seeds": list(range(20)),
            "params": {"backtest": {"episodes": 12}}})
        if floor.failures or drawdown.failures:
            return _failed("cppi-floor", t0, floor.failures + drawdown.failures)
    violations = by_cadence["c1"]["floor_breaches"]
    med_plain = medians["median"]["ddpg"]["max_drawdown"]
    med_floor = medians["median"]["cppi_ddpg"]["max_drawdown"]
    ok = violations == 0 and med_floor <= med_plain
    return _finish("cppi-floor", t0, ok,
                   f"{violations}/1000 floor breaches (need 0); median MaxD "
                   f"supervised {med_floor:.3f} vs plain {med_plain:.3f}")


def check_accounting_conservation():
    """Summed step rewards reproduce the recomputed asset to 1e-8."""
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(1000):
        rng = np.random.default_rng(s)
        series = synth_market(2, 30, vol=0.4, seed=s, alpha=1.7)
        env = TradingEnv(series, initial_cash=1000.0, cost_bps=17.0)
        state = env.reset()
        ledger = state.total_asset
        while not env.done:
            action = rng.standard_t(3, size=2) * 5.0
            state, reward, _ = env.step(action)
            ledger += reward
            worst = max(worst, abs(ledger - state.total_asset))
    return _finish("accounting", t0, worst <= 1e-8,
                   f"max |ledger - recomputed asset| {worst:.2e} over 1000 "
                   "random-action episodes, tol 1e-8")


def _repro_config(out_dir):
    cfg = ExperimentConfig.from_dict({
        "kind": "bandit-regret",
        "name": "repro-probe",
        "env": {"kind": "linear", "n_arms": 3, "dim": 3, "horizon": 200,
                "mu": [0.0, 0.5, 1.0]},
        "agents": [{"algorithm": "cts"}, {"algorithm": "uniform"}],
        "seeds": [0, 1],
        "params": {"rounds": 200},
    })
    cfg.out_dir = out_dir
    return cfg


def _read_all_bytes(d):
    return {name: open(os.path.join(d, name), "rb").read()
            for name in sorted(os.listdir(d))}


def check_trace_reproducibility():
    """Same config, same seeds, any worker count: identical output bytes."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        d1, d2, d3 = (os.path.join(tmp, n) for n in ("a", "b", "c"))
        run(_repro_config(d1), workers=1)
        run(_repro_config(d2), workers=1)
        run(_repro_config(d3), workers=2)
        b1, b2, b3 = _read_all_bytes(d1), _read_all_bytes(d2), _read_all_bytes(d3)
        serial = set(b1) == set(b2) and all(b1[k] == b2[k] for k in b1)
        parallel = set(b1) == set(b3) and all(b1[k] == b3[k] for k in b1)
        rerun_ok = True
        try:
            run(_repro_config(d1), workers=1)    # same hash, no force needed
        except ConfigError:
            rerun_ok = False
    ok = serial and parallel and rerun_ok
    return _finish("reproducibility", t0, ok,
                   f"byte-identical across runs: serial {serial}, "
                   f"2 workers {parallel}, in-place rerun {rerun_ok}")


def _check_table2_text(text, problems):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    labels = ["QL", "DQL", "SARSA", "CB-TS", "AC-TS"]
    if len(lines) != 6:
        problems.append(f"table2 has {len(lines)} lines, want header + 5 rows")
        return
    head = lines[0].split()
    if head != labels + ["Avg", "Wins"]:
        problems.append(f"table2 header {head}")
    for line, lab in zip(lines[1:], labels):
        cells = line.split()
        if cells[0] != lab:
            problems.append(f"table2 row label {cells[0]!r}, want {lab!r}")
        if len(cells) != 7 or not all(":" in c for c in cells[1:6]):
            problems.append(f"table2 row {lab} cells {cells[1:]}")
        if not cells[6].endswith("%"):
            problems.append(f"table2 row {lab} avg {cells[6]!r} lacks %")


def _check_table3_text(text, problems):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    labels = ["UP", "DQN", "DDPG", "CPPI-DDPG", "AD-TS"]
    if len(lines) != 6:
        problems.append(f"table3 has {len(lines)} lines, want header + 5 rows")
        return
    if lines[0].split() != ["AR", "SR", "MaxD"]:
        problems.append(f"table3 header {lines[0].split()}")
    for line, lab in zip(lines[1:], labels):
        cells = line.split()
        if cells[0] != lab:
            problems.append(f"table3 row label {cells[0]!r}, want {lab!r}")
        if len(cells) != 4:
            problems.append(f"table3 row {lab} has {len(cells) - 1} cells")
            continue
        for c in cells[1:]:
            if not (c.endswith("%") or c == "n/a"):
                problems.append(f"table3 cell {c!r} in row {lab}")


def check_artifact_formats():
    """Desk-scale runs emit the pairwise-wins and AR/SR/MaxD table shapes."""
    t0 = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        rep, _ = _check_run(tmp, "fmt-t2", {
            "kind": "tournament", "seeds": [0, 1],
            "params": {"days": 60, "episodes": 6}})
        if rep.failures:
            problems.append(f"tournament cells failed: {rep.failures}")
        else:
            with open(os.path.join(rep.out_dir, "table2.txt")) as fh:
                _check_table2_text(fh.read(), problems)

        rep, _ = _check_run(tmp, "fmt-t3", {
            "kind": "backtest", "seeds": [0, 1],
            "env": {"d": 2, "days": 120, "vol": 0.3, "seed": 3, "max_loss": 0.2},
            "params": {"backtest": {"episodes": 4}}})
        if rep.failures:
            problems.append(f"backtest cells failed: {rep.failures}")
        else:
            with open(os.path.join(rep.out_dir, "table3.txt")) as fh:
                _check_table3_text(fh.read(), problems)
    detail = "; ".join(problems) if problems else \
        "table2 and table3 artifacts match the published shapes"
    return _finish("formats", t0, not problems, detail)


CRITERIA = (
    ("cf-fidelity", check_cf_fidelity),
    ("ecf-accuracy", check_ecf_accuracy),
    ("posterior-oracle", check_posterior_oracle),
    ("regret-sublinearity", check_regret_sublinearity),
    ("degeneracy", check_degeneracy_equivalence),
    ("mdp-toy", check_mdp_toy_optimality),
    ("gradients", check_gradient_integrity),
    ("ddpg-toy", check_ddpg_learnability),
    ("cppi-floor", check_cppi_floor),
    ("accounting", check_accounting_conservation),
    ("repro", check_trace_reproducibility),
    ("formats", check_artifact_formats),
)

SUITES = {
    "stable": ("cf-fidelity", "ecf-accuracy"),
    "posterior": ("posterior-oracle",),
    "bandits": ("regret-sublinearity", "degeneracy", "mdp-toy"),
    "gradients": ("gradients",),
    "ddpg": ("ddpg-toy",),
    "market": ("cppi-floor", "accounting"),
    "harness": ("repro", "formats"),
    "all": tuple(name for name, _ in CRITERIA),
}
SUITES.update({name: (name,) for name, _ in CRITERIA})


@dataclass
class VerifyReport:
    suite: str
    checks: list
    passed: bool


def verify(suite):
    """Run one named check suite; failures are report content, not raises."""
    if suite not in SUITES:
        known = sorted(k for k in SUITES if k not in dict(CRITERIA))
        raise ConfigError(f"unknown verify suite {suite!r}; suites: {known}, "
                          "or any single check name")
    table = dict(CRITERIA)
    checks = []
    for name in SUITES[suite]:
        t0 = time.perf_counter()
        try:
            checks.append(table[name]())
        except Exception as exc:    # a crashed check is a failed check
            checks.append(CheckResult(
                name=name, passed=False,
                detail=f"crashed: {type(exc).__name__}: {exc}",
                seconds=time.perf_counter() - t0))
    return VerifyReport(suite=suite, checks=checks,
                        passed=all(c.passed for c in checks))


# ---------------------------------------------------------------------------
# entry point


def _parse_seed_list(text):
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds wants comma-separated integers, got {text!r}") from None


def _cmd_run(args):
    cfg = load_config(args.config)
    if args.seeds:
        cfg.seeds = _parse_seed_list(args.seeds)
        cfg.validate()
    out = args.out or os.environ.get("STABLETRADE_OUT")
    if out:
        cfg.out_dir = out
    report = run(cfg, workers=args.workers, force=args.force)
    n_ok = len(report.cells) - len(report.failures)
    print(f"{n_ok}/{len(report.cells)} cells ok -> {report.out_dir} "
          f"(config {report.config_hash})")
    for f in report.failures:
        print(f"failed cell {f}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_verify(args):
    rep = verify(args.suite)
    for c in rep.checks:
        print(json.dumps({"check": c.name, "passed": c.passed,
                          "seconds": round(c.seconds, 2), "detail": c.detail},
                         sort_keys=True))
    print(json.dumps({"suite": rep.suite, "passed": rep.passed}, sort_keys=True))
    return 0 if rep.passed else 1


def _cmd_estimate(args):
    xs = _read_reals(args.file)
    est = estimate_ecf(xs, n_freq=args.n_freq)
    print(json.dumps(_scrub(_estimate_payload(est, xs.size)),
                     indent=2, sort_keys=True))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="stabletrade",
        description="bandit, tournament and portfolio experiment harness")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute an experiment config file")
    p.add_argument("config", help="path to a JSON experiment config")
    p.add_argument("--seeds", help="comma-separated seed override, e.g. 0,1,2")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel cell workers (default: all cores)")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--force", action="store_true",
                   help="overwrite results written by a different config")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("verify", help="run a built-in check suite")
    p.add_argument("suite", help="suite name, e.g. stable, gradients, all")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("estimate-stable",
                       help="fit stable parameters to newline-delimited reals")
    p.add_argument("file", help="text file, one real per line")
    p.add_argument("--n-freq", type=int, default=10,
                   help="frequencies in the regression grid")
    p.set_defaults(fn=_cmd_estimate)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataError, ParamError, InsufficientDataError,
            NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
