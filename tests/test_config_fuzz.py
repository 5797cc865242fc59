"""Load-only config fuzz over the check tables.

Each example takes a valid config, sets one key of one settings table to a
value of the wrong type, outside a range or not finite, and loads it.
Loading must either accept the config or refuse it with a ConfigError whose
message names that key (a DataError for a price file that cannot be read);
any other exception fails. Nothing runs, so the
examples stay at toy size and take milliseconds each.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletrade import bandit_envs, cli, rl_agents, ts_agents
from stabletrade.cli import ExperimentConfig
from stabletrade.errors import ConfigError, DataError

BANDIT = {"kind": "bandit-regret", "seeds": [0],
          "env": {"kind": "linear", "n_arms": 3, "dim": 3, "horizon": 50,
                  "mu": [0.0, 0.5, 1.0]},
          "agents": [{"algorithm": "acts"}], "params": {"rounds": 20}}
BACKTEST = {"kind": "backtest", "seeds": [0], "agents": ["up", "ddpg"],
            "env": {"d": 1, "days": 30}, "params": {"backtest": {"train": {}}}}

# (base config, path of the settings table in it, the table's check table)
TABLES = [
    (BANDIT, (), cli._CONFIG_CHECKS),
    (BANDIT, ("env",), bandit_envs._ENV_CHECKS),
    (BANDIT, ("agents", 0), ts_agents._AGENT_CHECKS),
    (BANDIT, ("params",), cli._BANDIT_PARAMS),
    ({**BANDIT, "kind": "bayes-regret", "params": {}}, ("params",), cli._BANDIT_PARAMS),
    ({"kind": "tournament", "seeds": [0], "params": {}}, ("params",), cli._TOURNAMENT_PARAMS),
    (BACKTEST, ("env",), cli._MARKET_CHECKS),
    ({**BACKTEST, "env": {"csv": None}}, ("env",), cli._CSV_CHECKS),
    (BACKTEST, ("params",), cli._BACKTEST_PARAMS),
    (BACKTEST, ("params", "backtest"), rl_agents._BACKTEST_CHECKS),
    (BACKTEST, ("params", "backtest", "train"), rl_agents._TRAIN_CHECKS),
    ({"kind": "execution", "seeds": [0], "env": {"d": 1, "days": 30}, "params": {}},
     ("params",), cli._EXECUTION_PARAMS),
    ({"kind": "estimate-stable", "seeds": [0], "params": {}}, ("params",),
     cli._ESTIMATE_PARAMS),
]
CASES = [(base, path, key) for base, path, table in TABLES for key in table]

# wrong types, range edges and non-finite numbers; no large counts, since
# loading a backtest builds its market
VALUES = [-1, 0, 1, 2, 3, -0.5, 0.5, 2.5, 1e4, float("nan"), float("inf"), -float("inf"),
          True, False, "x", "", None, [], {}]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A samples file for estimates and a 20-day price file for CSV markets."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "x.txt").write_text("".join(f"{(i * 37 % 101) / 10.0 - 5.0}\n" for i in range(60)))
    (root / "p.csv").write_text("date,ticker,open,high,low,close,volume\n" + "".join(
        f"2020-01-{day:02d},AAA,10,11,9,{10 + day % 3},100\n" for day in range(1, 21)))
    return str(root / "x.txt"), str(root / "p.csv")


def _config(base, files):
    """A copy of base that reads the files: the samples of an estimate, the
    prices of a CSV market."""
    raw = copy.deepcopy(base)
    if raw["kind"] == "estimate-stable":
        raw["params"]["file"] = files[0]
    if "csv" in raw.get("env", {}):
        raw["env"]["csv"] = files[1]
    return raw


def test_every_base_config_loads(files):
    for base, _, _ in TABLES:
        ExperimentConfig.from_dict(_config(base, files))


@settings(derandomize=True, database=None, deadline=None, max_examples=5000)
@given(case=st.sampled_from(CASES), value=st.sampled_from(VALUES))
def test_one_mutated_key_loads_or_is_refused_by_name(files, case, value):
    base, path, key = case
    raw = _config(base, files)
    table = raw
    for step in path:
        table = table[step]
    table[key] = value
    try:
        ExperimentConfig.from_dict(raw)
    except (ConfigError, DataError) as exc:
        # load_ohlcv refuses a price file it cannot read as a DataError
        assert isinstance(exc, ConfigError) or key == "csv", (path, key, value, repr(exc))
        assert key in str(exc), (path, key, value, str(exc))
