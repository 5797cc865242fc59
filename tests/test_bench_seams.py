"""The benchmark tracer's seams: every function or method that
``bench/tracer.py`` wraps must still exist under the name it looks up.

The tracer is loaded from its file and nothing is wrapped, so a refactor
that renames or moves a traced function fails here instead of breaking a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stabletrade import market_sim
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
