"""Span tracing of the stabletrade layers from outside the package.

``install`` replaces each traced function or method with a wrapper at every
name its callers look it up by: the class attribute for methods, and every
module global of the package that is bound to the function for module
functions (``from .stable_core import sample`` makes ``bandit_envs.sample``
one such name). Nothing inside the package changes.

A span is (name, start, end, parent). Spans stay in compact arrays in memory
until the run ends; ``write_spans`` then writes them out. A layer's self time
is its spans' durations minus the time covered by their child spans.
"""

import functools
import gzip
import importlib
import json
import time
from array import array

import numpy as np


def _size(x):
    return int(np.size(x))


def _n_draws(args, kwargs):
    return int(kwargs["n"] if "n" in kwargs else args[1])


def _posterior_points(args, kwargs):
    rewards, deltas = args[1], args[2]
    return len(rewards) * _size(deltas)


def _forward_rows(args, kwargs):
    x = np.asarray(args[1])
    return 1 if x.ndim == 1 else int(x.shape[0])


def _forward_flop(args, kwargs):
    # two flops per multiply-add of each dense layer's matrix product
    sizes = args[0].sizes
    per_row = sum(2 * a * b for a, b in zip(sizes[:-1], sizes[1:]))
    return per_row * _forward_rows(args, kwargs)


# span name -> (module, attribute path, {work counter: fn(args, kwargs)})
SPANS = {
    "stable_core.density": ("stable_core", "PdfTable.density",
                            {"points": lambda a, k: _size(a[1])}),
    "stable_core.pdftable_build": ("stable_core", "PdfTable.__init__", {}),
    "stable_core.tail_beyond": ("stable_core", "PdfTable.tail_beyond", {}),
    "stable_core.estimate_ecf": ("stable_core", "estimate_ecf", {}),
    "stable_core.sample": ("stable_core", "sample", {"draws": _n_draws}),
    "ts_agents.log_posterior": ("ts_agents", "ArmBelief.log_posterior",
                                {"points": _posterior_points}),
    "ts_agents.step": ("ts_agents", ("CtsAgent.step", "SctsAgent.step",
                                     "_StableBase.step"), {}),
    "ts_agents.tail_weights": ("ts_agents", "tail_weights", {}),
    "ts_agents.belief_from_history": ("ts_agents", "belief_from_history", {}),
    "bandit_envs.pull": ("bandit_envs", "BanditEnv.pull", {}),
    "bandit_envs.play": ("bandit_envs", "play", {}),
    "tinynet.forward": ("tinynet", "Mlp.forward",
                        {"rows": _forward_rows, "flop": _forward_flop}),
    "tinynet.backward": ("tinynet", "Mlp.backward", {}),
    "tinynet.opt_step": ("tinynet", "opt_step", {}),
    "tinynet.soft_update": ("tinynet", "soft_update", {}),
    "tinynet.clip_global_norm": ("tinynet", "clip_global_norm", {}),
    "rl_agents.replay_sample": ("rl_agents", "ReplayBuffer.sample", {}),
    "rl_agents.critic_update": ("rl_agents", "critic_update", {}),
    "rl_agents.actor_update": ("rl_agents", "actor_update", {}),
    "rl_agents.cppi_margin_loss": ("rl_agents", "cppi_margin_loss", {}),
    "rl_agents.env_step": ("rl_agents", ("VectorMarketEnv.step",
                                         "DiscreteTradingEnv.step"), {}),
    "rl_agents.train": ("rl_agents", "train", {}),
    "rl_agents.dqn_lite": ("rl_agents", "dqn_lite", {}),
    "rl_agents.td_control": ("rl_agents", "_td_control", {}),
    "rl_agents.backtest_curve": ("rl_agents", "backtest_curve", {}),
    "rl_agents.tournament": ("rl_agents", "tournament", {}),
    "market_sim.step": ("market_sim", "step", {}),
    "market_sim.cppi_expert_action": ("market_sim", "cppi_expert_action", {}),
    "market_sim.synth_market": ("market_sim", "synth_market", {}),
    "cli.run": ("cli", "run", {}),
    "cli.cell": ("cli", "_run_cell", {}),
    "cli.validate": ("cli", "ExperimentConfig.validate", {}),
}

# the experiment bodies; cli.overhead.s is cli.run's time outside them
_EXPERIMENT_SPANS = ("bandit_envs.play", "rl_agents.backtest_curve",
                     "rl_agents.tournament")

_MODULES = ("stable_core", "bandit_envs", "ts_agents", "tinynet", "market_sim",
            "rl_agents", "cli")

# (metric, unit): every per-layer metric a traced run reports
METRICS = (
    [(f"stable_core.density.{m}", u) for m, u in
     (("calls", "count"), ("points", "count"), ("s", "s"))]
    + [(f"stable_core.{n}.{m}", u) for n in
       ("pdftable_build", "tail_beyond", "estimate_ecf")
       for m, u in (("calls", "count"), ("s", "s"))]
    + [(f"stable_core.sample.{m}", u) for m, u in
       (("calls", "count"), ("draws", "count"), ("s", "s"))]
    + [(f"ts_agents.log_posterior.{m}", u) for m, u in
       (("calls", "count"), ("points", "count"), ("s", "s"))]
    + [("ts_agents.step.calls", "count"), ("ts_agents.step.s", "s"),
       ("ts_agents.tail_weights.s", "s"),
       ("ts_agents.belief_from_history.calls", "count"),
       ("bandit_envs.pull.calls", "count"), ("bandit_envs.pull.s", "s"),
       ("bandit_envs.play.s", "s")]
    + [(f"tinynet.forward.{m}", u) for m, u in
       (("calls", "count"), ("rows", "count"), ("flop", "flop"), ("s", "s"))]
    + [(f"tinynet.{n}.{m}", u) for n in ("backward", "opt_step", "soft_update")
       for m, u in (("calls", "count"), ("s", "s"))]
    + [("tinynet.clip_global_norm.s", "s")]
    + [(f"rl_agents.{n}.{m}", u) for n in
       ("replay_sample", "critic_update") for m, u in (("calls", "count"), ("s", "s"))]
    + [("rl_agents.actor_update.s", "s")]
    + [(f"rl_agents.{n}.{m}", u) for n in ("cppi_margin_loss", "env_step")
       for m, u in (("calls", "count"), ("s", "s"))]
    + [(f"rl_agents.{n}.s", "s") for n in ("train", "dqn_lite", "td_control")]
    + [(f"market_sim.{n}.{m}", u) for n in
       ("step", "cppi_expert_action", "synth_market")
       for m, u in (("calls", "count"), ("s", "s"))]
    + [("cli.overhead.s", "s"), ("cli.validate.calls", "count"),
       ("cli.bytes_written", "bytes"),
       ("trace.overhead_s", "s"), ("trace.spans", "count")]
)

# metrics that must repeat exactly from one traced run to the next
COUNT_METRICS = tuple(m for m, u in METRICS if u in ("count", "flop", "bytes"))


class Tracer:
    """Spans and work counters, recorded in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.work = {}
        self._stack = [-1]

    def wrap(self, name, fn, work):
        """fn wrapped to record one span per call; several functions may
        share one span name."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        counters = [(f"{name}.{key}", count) for key, count in work.items()]
        for key, _ in counters:
            self.work.setdefault(key, 0)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, count in counters:
                self.work[key] += count(args, kwargs)
            span = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()

        return traced

    def totals(self):
        """Per span name: (calls, self seconds, inclusive seconds)."""
        ids = np.array(self.span_name, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        own = np.bincount(ids, weights=dur - child, minlength=n)
        inclusive = np.bincount(ids, weights=dur, minlength=n)
        return {name: (int(calls[i]), float(own[i]), float(inclusive[i]))
                for i, name in enumerate(self.names)}

    def write_spans(self, path, provenance):
        """Gzipped CSV, one span per row, provenance as a leading comment."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("# " + json.dumps(provenance, sort_keys=True) + "\n")
            fh.write("span,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}\n")


def install(tracer, package="stabletrade"):
    """Wrap every target of SPANS at each name its callers look it up by."""
    modules = [importlib.import_module(f"{package}.{m}") for m in _MODULES]
    for name, (home, paths, work) in SPANS.items():
        for path in (paths if isinstance(paths, tuple) else (paths,)):
            owner = importlib.import_module(f"{package}.{home}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = tracer.wrap(name, original, work)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def layer_metrics(tracer, bytes_written):
    """Every METRICS entry except the tracing overhead, from one traced run."""
    totals = tracer.totals()
    out = {}
    for metric, _ in METRICS:
        span, _, field = metric.rpartition(".")
        if span in totals:
            calls, own, _ = totals[span]
            out[metric] = {"calls": calls, "s": own}.get(field, tracer.work.get(metric))
    out["cli.overhead.s"] = totals["cli.run"][2] - sum(
        totals[s][2] for s in _EXPERIMENT_SPANS)
    out["cli.bytes_written"] = int(bytes_written)
    out["trace.spans"] = len(tracer.start)
    return out
