"""The benchmark tracer's seams: every function or method that
``bench/tracer.py`` wraps must still exist under the name it looks up.

The tracer is loaded from its file and nothing is wrapped, so a refactor
that renames or moves a traced function fails here instead of breaking a
traced benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stabletrade import cli, market_sim
from stabletrade.rl_agents import DiscreteTradingEnv, VectorMarketEnv
from stabletrade.tinynet import Mlp

_TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

_TARGETS = [(name, home, path)
            for name, (home, paths, _) in tracer.SPANS.items()
            for path in (paths if isinstance(paths, tuple) else (paths,))]


@pytest.mark.parametrize("name, home, path", _TARGETS,
                         ids=[f"{n}:{p}" for n, _, p in _TARGETS])
def test_span_target_resolves_where_the_tracer_looks(name, home, path):
    owner = importlib.import_module(f"stabletrade.{home}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{name}: {home}.{path} is gone"
    assert callable(owner.__dict__[attr])


def test_every_traced_module_is_importable():
    for module in tracer._MODULES:
        importlib.import_module(f"stabletrade.{module}")


def test_forward_work_counters_read_sizes_and_rows():
    _, _, work = tracer.SPANS["tinynet.forward"]
    net = Mlp([15, 64, 64, 1], seed=0)
    batch = np.zeros((64, 15))
    assert work["rows"]((net, batch), {}) == 64
    assert work["rows"]((net, batch[0]), {}) == 1
    assert work["flop"]((net, batch), {}) == 64 * 2 * (15 * 64 + 64 * 64 + 64)


@pytest.mark.parametrize("make_env, action", [
    (DiscreteTradingEnv, lambda t: t % 3),
    (VectorMarketEnv, lambda t: np.array([0.5 if t % 2 else -0.5])),
], ids=["discrete", "vector"])
def test_one_episode_makes_one_market_step_per_day(monkeypatch, make_env, action):
    # the benchmark checks a run's step count against market_sim.step.calls;
    # a learner env that inlines or repeats the step breaks that check here
    calls = []
    real_step = market_sim.step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(market_sim, "step", counting_step)
    series = market_sim.synth_market(1, 30, seed=2)
    env = make_env(series)
    env.reset()
    t, done = 0, False
    while not done:
        _, _, done = env.step(action(t))
        t += 1
    assert len(calls) == series.n_days - 1 == t


# a traced toy backtest and tournament in a fresh process: installing the
# tracer rebinds module globals for good, so it stays out of this one
_TRACED_RUN = """
import json, os, sys, importlib.util
from stabletrade import cli
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
for name, raw in json.loads(sys.argv[3]).items():
    cfg = cli.ExperimentConfig.from_dict(raw)
    cfg.out_dir = os.path.join(sys.argv[2], name)
    assert not cli.run(cfg, workers=1).failures
experiment = {i for i, n in enumerate(tracer.names) if n in tracing._EXPERIMENT_SPANS}
nested = []
for span, parent in enumerate(tracer.parent):
    while tracer.span_name[span] in experiment and parent >= 0:
        if tracer.span_name[parent] in experiment:
            nested.append([tracer.names[tracer.span_name[k]] for k in (span, parent)])
            break
        parent = tracer.parent[parent]
calls = {n: c for n, (c, _, _) in tracer.totals().items()}
print(json.dumps({"calls": calls, "nested": nested}))
"""


def test_traced_runs_reach_the_learners_and_never_nest_experiments(tmp_path):
    # a runner that bound a learner at import would hide it from its span,
    # and an experiment span inside another would count its time twice in
    # cli.overhead.s
    configs = {
        "backtest": {"kind": "backtest", "env": {"d": 1, "days": 30, "seed": 0},
                     "agents": ["dqn", "ddpg", "ad_ts"], "seeds": [0],
                     "params": {"backtest": {"episodes": 1,
                                             "train": {"warmup_steps": 8, "batch": 8}}}},
        "tournament": {"kind": "tournament", "agents": ["ql", "dqn", "sarsa", "cb_ts"],
                       "seeds": [0], "params": {"days": 20, "episodes": 2}},
    }
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(_TRACER_PATH),
                          str(tmp_path), json.dumps(configs)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    calls = result["calls"]
    # ql and sarsa each reach _td_control; dqn trains in both runs
    assert calls["rl_agents.td_control"] == 2
    assert calls["rl_agents.dqn_lite"] == 2
    assert calls["rl_agents.train"] == 1
    assert calls["rl_agents.backtest_curve"] == 3
    assert calls["rl_agents.tournament"] == 1
    assert result["nested"] == []
