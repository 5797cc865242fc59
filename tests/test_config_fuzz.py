"""Load-only config fuzz over the check tables.

Each example takes a valid config, sets one key of one settings table to a
value of the wrong type, outside a range or not finite, and loads it.
Loading must either accept the config or refuse it with a ConfigError whose
message names that key (a DataError for a price file that cannot be read);
any other exception fails. Nothing runs, so the
examples stay at toy size and take milliseconds each.

The same values go straight into the settings classes, one field at a time:
building one either succeeds or is refused by name, and a built one other
than an ExperimentConfig cannot be changed.
"""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from stabletrade import bandit_envs, cli, market_sim, rl_agents, ts_agents
from stabletrade.bandit_envs import EnvSpec, MdpTables
from stabletrade.cli import ExperimentConfig
from stabletrade.errors import ConfigError, DataError
from stabletrade.market_sim import CppiConfig
from stabletrade.rl_agents import BacktestConfig, TrainConfig
from stabletrade.ts_agents import AgentConfig

BANDIT = {"kind": "bandit-regret", "seeds": [0],
          "env": {"kind": "linear", "n_arms": 3, "dim": 3, "horizon": 50,
                  "mu": [0.0, 0.5, 1.0]},
          "agents": [{"algorithm": "acts"}], "params": {"rounds": 20}}
PLAIN = {**BANDIT, "env": {"kind": "plain", "n_arms": 2, "dim": 1, "horizon": 50,
                           "arm_means": [0.0, 1.0]},
         "agents": [{"algorithm": "plain_ats"}]}
SEMIPARAM = {**BANDIT, "env": {**BANDIT["env"], "kind": "semiparam",
                               "v_max": 1.0, "v_step": 0.1}}
MDP = {**BANDIT, "env": {"kind": "adversarial_mdp", "horizon": 10, "adversary": "greedy",
                         "mdp": {"n_states": 2, "n_actions": 2, "horizon": 2,
                                 "transitions": [[0, 1], [0, 1]],
                                 "rewards": [[0.3, 0.1], [0.0, 1.0]],
                                 "start_states": [0]}},
       "agents": [{"algorithm": "mdp_acts"}]}
BACKTEST = {"kind": "backtest", "seeds": [0], "agents": ["up", "ddpg"],
            "env": {"d": 1, "days": 30}, "params": {"backtest": {"train": {}}}}

# (base config, path of the settings table in it, the table's check table)
TABLES = [
    (BANDIT, (), cli._CONFIG_CHECKS),
    # each env key is fuzzed on every kind, so also on one that reads it
    (BANDIT, ("env",), bandit_envs._ENV_CHECKS),
    (PLAIN, ("env",), bandit_envs._ENV_CHECKS),
    (SEMIPARAM, ("env",), bandit_envs._ENV_CHECKS),
    (MDP, ("env",), bandit_envs._ENV_CHECKS),
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


# (settings class, its check table, a valid field set), for building directly
TOY_TABLES = MdpTables(n_states=2, n_actions=2, horizon=2,
                       transitions=np.array([[0, 1], [0, 1]]),
                       reward_means=np.array([[0.3, 0.1], [0.0, 1.0]]), start_states=[0])
CLASSES = [
    (AgentConfig, ts_agents._AGENT_CHECKS, {"algorithm": "acts"}),
    (TrainConfig, rl_agents._TRAIN_CHECKS, {}),
    (BacktestConfig, rl_agents._BACKTEST_CHECKS, {}),
    (EnvSpec, bandit_envs._ENV_CHECKS, {"kind": "linear", "dim": 3, "mu": np.ones(3)}),
    (EnvSpec, bandit_envs._ENV_CHECKS, {"kind": "plain", "arm_means": [0.0, 1.0]}),
    (EnvSpec, bandit_envs._ENV_CHECKS, {"kind": "adversarial_mdp", "mdp": TOY_TABLES}),
    (MdpTables, bandit_envs._MDP_CHECKS, vars(TOY_TABLES)),
    (CppiConfig, market_sim._CPPI_CHECKS, {"floor": 80.0, "multiplier": 2.0}),
    (ExperimentConfig, cli._CONFIG_CHECKS, BANDIT),
]
BUILDS = [(cls, base, key) for cls, table, base in CLASSES for key in table]


def test_every_base_field_set_builds():
    for cls, _, base in CLASSES:
        cls(**base)


@settings(derandomize=True, database=None, deadline=None, max_examples=5000)
@given(build=st.sampled_from(BUILDS), value=st.sampled_from(VALUES))
def test_one_mutated_field_builds_or_is_refused_by_name(build, value):
    cls, base, key = build
    try:
        cls(**{**base, key: value})
    except (ConfigError, DataError) as exc:
        # an MDP table's contents that do not fit its sizes are a DataError
        assert isinstance(exc, ConfigError) or cls is MdpTables, (cls, key, value, repr(exc))
        assert key in str(exc), (cls.__name__, key, value, str(exc))


def test_built_settings_cannot_change():
    # an ExperimentConfig stays mutable: the benchmark's worker assigns
    # out_dir on a loaded one, and run checks it again
    for cls, _, base in CLASSES:
        if cls is ExperimentConfig:
            continue
        built = cls(**base)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, f.name, getattr(built, f.name))
