"""Experiment harness behind the ``stabletrade`` command.

A single JSON file describes one experiment: which environment, which agents,
which seeds, where results land.  Building an ``ExperimentConfig`` runs its
kind's parser, which builds the settings (``EnvSpec``, ``AgentConfig``,
``BacktestConfig``, ``CppiConfig``, each checked when built) and markets and
turns them into the plan, one job over those inputs per (cell x seed), so
bad input fails at load and never inside a cell.  ``run`` parses the config
again for its plan, executes it, optionally across worker processes that
receive the jobs, and writes trace CSVs next to an aggregate summary and
plot-ready tables.  Every output file carries the config hash,
re-running a config with the same seeds reproduces identical bytes, and a
results directory refuses cells from a different config unless forced.
``stabletrade verify`` prints the report of ``acceptance.verify``.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import rl_agents
from .bandit_envs import EnvSpec, make_env, play, regret
from .errors import (_TABLE, ConfigError, DataError, InsufficientDataError, NumericError,
                     ParamError, _check_table, _int_at_least, _is_int, _known_keys, _number,
                     _one_of, _or_none)
from .market_sim import (
    _TRADING_CHECKS,
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
    TournamentResult,
    backtest_curve,
    format_table2,
    format_table3,
    tournament,
)
from .stable_core import _ECF_MIN_SAMPLES, estimate_ecf
from .ts_agents import AgentConfig, make_agent

FORMAT_VERSION = 1

_FILE = (lambda v: isinstance(v, str)), "a file path"
# the check tables of a market: a CSV file, or synthetic, with one entry per
# synth_market keyword; alpha and max_loss may also be null, their default
_CSV_CHECKS = {"csv": _FILE}
_MARKET_CHECKS = {
    "d": _int_at_least(1), "days": _int_at_least(2), "seed": _int_at_least(0),
    "drift": _number(gt=-1), "vol": _number(ge=0), "corr": _number(ge=-1, le=1),
    "alpha": _or_none(_number(gt=1, le=2)), "max_loss": _or_none(_number(gt=0, le=1)),
    "start_price": _number(gt=0),
}


# ---------------------------------------------------------------------------
# configuration


def _market_settings(raw):
    """A loaded CSV price series, or the checked synth_market keywords."""
    if "csv" in raw:
        return load_ohlcv(_check_table(raw, _CSV_CHECKS, "env")["csv"])
    _check_table(raw, _MARKET_CHECKS, "env")
    kw = {"d": 2, "days": 250}    # synth_market's defaults otherwise
    for key, v in raw.items():
        kw[key] = v if v is None or key in ("d", "days", "seed") else float(v)
    return kw


def _market_from(raw):
    """A price series from a CSV path or synthetic generator settings; a
    synthetic price path that overflows is a config error."""
    market = _market_settings(raw)
    if not isinstance(market, dict):
        return market
    try:
        return synth_market(**market)
    except ParamError as exc:
        raise ConfigError(f"{exc}: lower env.vol or env.drift") from None


@dataclass
class ExperimentConfig:
    """One experiment: an environment, agents to run on it, seeds, a target
    directory.  The hash covers everything that shapes the results (not the
    cosmetic name or the output location), so moved copies still match.

    Building one, also by ``from_dict`` or ``dataclasses.replace``, runs
    ``validate``, which returns the plan: (label, seed, job) triples in output
    order, where ``job(seed)`` runs one cell on the parsed inputs.  Change a
    config with ``dataclasses.replace``.  It is not frozen only because the
    benchmark assigns ``out_dir`` on a loaded config, so ``run`` validates
    again."""

    kind: str
    name: str = "experiment"
    env: dict = field(default_factory=dict)
    agents: list = field(default_factory=list)
    seeds: list = field(default_factory=lambda: [0])
    out_dir: str = "results"
    params: dict = field(default_factory=dict)
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if isinstance(self.agents, (list, tuple)):    # a bare name is the algorithm
            self.agents = [{"algorithm": a} if isinstance(a, str) else a for a in self.agents]
        self.validate()

    def validate(self):
        _check_table(vars(self), _CONFIG_CHECKS)
        parse, _, params = _KINDS[self.kind]
        _check_table(self.params, params, "params")
        cells = parse(self)
        labels = [lab for lab, _ in cells]
        for lab in labels:
            if not (isinstance(lab, str) and
                    lab.replace("_", "").replace("-", "").replace(".", "").isalnum()):
                raise ConfigError(f"label {lab!r} not usable in file names")
        if len(set(labels)) != len(labels):
            raise ConfigError("agent labels must be distinct, set label: on duplicates")
        # an estimate is one fit, whatever the seeds
        seeds = self.seeds[:1] if self.kind == "estimate-stable" else self.seeds
        return [(lab, s, job) for s in seeds for lab, job in cells]

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
        if "kind" not in _known_keys(raw, _CONFIG_CHECKS):
            raise ConfigError("experiment config needs a kind")
        return cls(**raw)


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
# experiment kinds: each parser checks its kind's params, env and agents and
# returns the cells as (label, job) pairs; a job is a picklable partial of a
# cell function over the parsed inputs, called with the cell seed


def _parse_bandit(cfg):
    params = cfg.params
    # a fixed-env study varies only the agent seed; the Bayes variant redraws
    # the environment with the cell seed (env_seed None) so averaging
    # estimates the prior mean
    env_seed = None
    if cfg.kind == "bandit-regret":
        env_seed = params.get("env_seed", 0)
    elif "env_seed" in params:
        raise ConfigError("bayes-regret draws the environment from each seed, "
                          "drop params.env_seed")
    spec = EnvSpec.from_dict(cfg.env)
    rounds = params.get("rounds", spec.horizon)
    if not cfg.agents:
        raise ConfigError("a bandit experiment needs at least one agent in agents")
    cells = []
    for a in cfg.agents:
        d = {k: v for k, v in a.items() if k != "label"}
        agent = AgentConfig.from_dict(d)
        alg = agent.algorithm
        if (alg == "mdp_acts") != (spec.kind == "adversarial_mdp"):
            raise ConfigError(f"agent {alg!r} does not fit env kind {spec.kind!r}: mdp_acts "
                              "plays adversarial_mdp episodes, every other agent arm rounds")
        cells.append((a.get("label", alg),
                      partial(_bandit_cell, spec, agent, rounds, env_seed)))
    return cells


def _bandit_cell(spec, agent_cfg, rounds, env_seed, seed):
    env = make_env(spec, seed if env_seed is None else env_seed)
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
    if cfg.env:
        raise ConfigError("tournaments build their own markets, drop env")
    days, episodes = params.get("days", 120), params.get("episodes", 40)
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
    series = _market_from(cfg.env)
    bt = BacktestConfig.from_dict(cfg.params.get("backtest", {}))
    agents = _roster(cfg, rl_agents.BACKTEST_AGENTS, {"algorithm", "label"})
    try:
        train_series, test_series = split(series, bt.split_ratio)
    except ConfigError as exc:
        source = "env.csv" if "csv" in cfg.env else "env.days"
        raise ConfigError(f"{exc}: params.backtest.split_ratio {bt.split_ratio} of the "
                          f"{series.n_days} days of {source}") from None
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
    if cfg.agents:
        raise ConfigError("execution runs trade the built-in floor policy, drop agents")
    market = _market_settings(cfg.env)
    if "seed" in cfg.env:
        raise ConfigError("execution draws one market per seed, drop env seed")
    if not isinstance(market, dict) and market.n_days < 2:
        raise ConfigError(f"env.csv {cfg.env['csv']!r} holds {market.n_days} day, "
                          "an execution run needs at least 2")
    if isinstance(market, dict):
        for seed in cfg.seeds:    # each cell draws its seed's market again
            _market_from({**cfg.env, "seed": seed})
    initial_cash = float(params.get("initial_cash", 100.0))
    cost_bps = float(params.get("cost_bps", 10.0))
    rule = CppiConfig(floor=float(params.get("floor", 0.85)) * initial_cash,
                      multiplier=float(params.get("multiplier", 2.0)))
    return [(f"c{c}", partial(_execution_cell, market, initial_cash, cost_bps, rule, c))
            for c in params.get("cadences", [1, 5, 21])]


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


def _read_reals(path, key=None):
    """Newline-delimited finite reals; blank lines and # comments are skipped.
    Messages name the file by the config key that gave it, if any."""
    name = f"{key} {path}" if key else path
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read samples from {name}: {exc}") from None
    out = []
    for i, line in enumerate(lines):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        try:
            out.append(float(s))
        except ValueError:
            raise DataError(f"{name} line {i + 1}: not a real number: {s!r}") from None
        if not np.isfinite(out[-1]):
            raise DataError(f"{name} line {i + 1}: not a finite number: {s!r}")
    if not out:
        raise DataError(f"{name} holds no samples")
    return np.asarray(out)


def _estimate_payload(est, n):
    p = est.params
    return {"alpha": p.alpha, "beta": p.beta, "sigma": p.sigma,
            "delta": p.delta, "n": int(n), "degenerate": bool(est.degenerate)}


def _parse_estimate(cfg):
    params = cfg.params
    if cfg.agents or cfg.env:
        raise ConfigError("estimate-stable takes only params.file")
    if "file" not in params:
        raise ConfigError("estimate-stable needs params.file")
    n_freq = params.get("n_freq", 10)
    path = params["file"]
    xs = _read_reals(path, key="params.file")
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


# the check tables of params, one per parser; a parser reads no other key
_BANDIT_PARAMS = {"rounds": _int_at_least(1), "env_seed": _int_at_least(0)}
_TOURNAMENT_PARAMS = {"days": _int_at_least(2), "episodes": _int_at_least(1)}
_BACKTEST_PARAMS = {"backtest": _TABLE}
_EXECUTION_PARAMS = {
    **_TRADING_CHECKS,
    "cadences": ((lambda v: isinstance(v, list) and v and all(_is_int(c, 1) for c in v)),
                 "a non-empty list of integers >= 1"),
}
_ESTIMATE_PARAMS = {"file": _FILE, "n_freq": _int_at_least(2)}

# kind -> (parser, aggregator, check table of params)
_KINDS = {
    "bandit-regret": (_parse_bandit, _agg_bandit, _BANDIT_PARAMS),
    "bayes-regret": (_parse_bandit, _agg_bandit, _BANDIT_PARAMS),
    "tournament": (_parse_tournament, _agg_tournament, _TOURNAMENT_PARAMS),
    "backtest": (_parse_backtest, _agg_backtest, _BACKTEST_PARAMS),
    "execution": (_parse_execution, _agg_execution, _EXECUTION_PARAMS),
    "estimate-stable": (_parse_estimate, _agg_estimate, _ESTIMATE_PARAMS),
}

# the check table of a config's top level, one entry per ExperimentConfig field
_CONFIG_CHECKS = {
    "kind": _one_of(_KINDS), "name": ((lambda v: isinstance(v, str)), "a string"),
    "env": _TABLE, "params": _TABLE,
    "format_version": ((lambda v: _is_int(v) and v == FORMAT_VERSION),
                       f"the integer {FORMAT_VERSION}, the version this build writes"),
    "agents": ((lambda v: isinstance(v, (list, tuple))
                and all(isinstance(a, dict) and "algorithm" in a for a in v)),
               "a list of algorithm names or tables with an algorithm"),
    "seeds": ((lambda v: isinstance(v, (list, tuple)) and v and all(_is_int(s, 0) for s in v)
               and len(set(v)) == len(v)), "a non-empty list of distinct integers >= 0"),
    "out_dir": ((lambda v: isinstance(v, (str, os.PathLike)) and v != ""),
                "a non-empty directory path"),
}


# ---------------------------------------------------------------------------
# run


@dataclass
class RunReport:
    out_dir: str
    config_hash: str
    cells: list
    failures: list


def _usable_cores():
    """Cores this process may run on: its CPU affinity where the platform
    reports one (``taskset`` narrows it), else the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _resolve_workers(workers):
    if workers is None:
        workers = os.environ.get("STABLETRADE_WORKERS")
    if workers is None:
        return _usable_cores()
    try:
        w = int(workers)
    except (TypeError, ValueError):
        raise ConfigError(f"worker count must be an integer, got {workers!r}") from None
    if w < 1:
        raise ConfigError("worker count must be >= 1")
    return w


# the BLAS libraries' thread counts, read when a process loads them
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


@contextmanager
def _one_blas_thread():
    """Sets one BLAS thread in the environment that worker processes start
    from, and restores this process's environment on exit. Each worker takes
    a core, so a BLAS thread pool per worker would only contend for them."""
    saved = {k: os.environ.get(k) for k in _ONE_BLAS_THREAD}
    os.environ.update(_ONE_BLAS_THREAD)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


def _collect(futures, plan):
    """The result of each submitted cell in plan order; a cell whose worker
    process died before it returned is a failed cell."""
    for future, (label, seed, _) in zip(futures, plan):
        try:
            yield future.result()
        except BrokenProcessPool:
            yield {"label": label, "seed": seed, "status": "error",
                   "error": "worker process died"}


def run(config, workers=None, force=False):
    """Execute every cell of the plan that ``config.validate()`` returns and
    persist the result bundle.

    Results land in config.out_dir; a directory already holding another
    config's results is refused unless force is set.  Cells run seed by seed,
    possibly in parallel in spawned worker processes that start with one
    BLAS thread each, and are folded back in their listed order, so the
    output bytes never depend on the worker count.
    """
    plan = config.validate()
    workers = _resolve_workers(workers)
    h = config.hash()
    out_dir = config.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir {out_dir} cannot be a directory: {exc.strerror}") from None
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
    # never more worker processes than cores or cells
    workers = min(workers, len(plan), _usable_cores())
    if workers > 1:
        with _one_blas_thread(), ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as ex:
            results = list(_collect([ex.submit(_run_cell, *c) for c in plan], plan))
    else:
        results = [_run_cell(*c) for c in plan]

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
# entry point


def _parse_seed_list(text):
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"--seeds wants comma-separated integers, got {text!r}") from None


def _cmd_run(args):
    cfg = load_config(args.config)
    # an override that is given applies, even an empty one, which the checks refuse
    changes = {} if args.out is None else {"out_dir": args.out}
    if args.seeds is not None:
        changes["seeds"] = _parse_seed_list(args.seeds)
    report = run(replace(cfg, **changes), workers=args.workers, force=args.force)
    n_ok = len(report.cells) - len(report.failures)
    print(f"{n_ok}/{len(report.cells)} cells ok -> {report.out_dir} "
          f"(config {report.config_hash})")
    for f in report.failures:
        print(f"failed cell {f}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_verify(args):
    # acceptance runs its experiments through this module, so it is
    # imported here rather than at the top
    from . import acceptance
    rep = acceptance.verify(args.suite)
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
                   help="parallel cell workers (default: all usable cores)")
    p.add_argument("--out", default=os.environ.get("STABLETRADE_OUT"),
                   help="output directory override (default: $STABLETRADE_OUT)")
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
