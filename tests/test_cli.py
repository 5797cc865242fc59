"""Harness tests: config schema and hashing, cell execution and artifacts,
overwrite guard, parallel determinism, CLI exit codes."""

import json
import os

import numpy as np
import pytest

from stabletrade import cli
from stabletrade.cli import ExperimentConfig, UniformAgent
from stabletrade.errors import ConfigError, DataError
from stabletrade.market_sim import synth_market
from stabletrade.rl_agents import BacktestConfig, backtest
from stabletrade.stable_core import StableParams, sample

LINEAR_ENV = {"kind": "linear", "n_arms": 3, "dim": 3, "horizon": 100,
              "mu": [0.0, 0.5, 1.0]}
MDP_TOY = {"n_states": 2, "n_actions": 2, "horizon": 2,
           "transitions": [[0, 1], [0, 1]], "rewards": [[0.3, 0.1], [0.0, 1.0]],
           "start_states": [0]}


def small_config(out_dir, **over):
    raw = {
        "kind": "bandit-regret",
        "name": "probe",
        "env": dict(LINEAR_ENV),
        "agents": [{"algorithm": "cts"}, {"algorithm": "uniform"}],
        "seeds": [0, 1],
        "params": {"rounds": 60},
        "out_dir": str(out_dir),
    }
    raw.update(over)
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# config schema


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"kind": "tournament", "styl": 1})


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig.from_dict({"kind": "sweep"})


def test_config_rejects_other_format_versions():
    with pytest.raises(ConfigError, match="format_version"):
        ExperimentConfig.from_dict({"kind": "tournament", "format_version": 9})


def test_config_rejects_empty_and_duplicate_seeds():
    with pytest.raises(ConfigError, match="non-empty"):
        ExperimentConfig.from_dict({"kind": "tournament", "seeds": []})
    with pytest.raises(ConfigError, match="distinct"):
        ExperimentConfig.from_dict({"kind": "tournament", "seeds": [1, 1]})


def test_config_rejects_unknown_env_key(tmp_path):
    env = dict(LINEAR_ENV, horizont=5)
    with pytest.raises(ConfigError, match="unknown env keys"):
        small_config(tmp_path, env=env)


def test_config_rejects_unknown_param_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown params"):
        small_config(tmp_path, params={"rounds": 10, "warmup": 2})


def test_bandit_config_needs_agents(tmp_path):
    with pytest.raises(ConfigError, match="at least one agent"):
        small_config(tmp_path, agents=[])


def test_bandit_agents_are_schema_checked(tmp_path):
    with pytest.raises(ConfigError, match="unknown agent config keys"):
        small_config(tmp_path, agents=[{"algorithm": "cts", "vv": 2}])
    with pytest.raises(ConfigError, match="no settings"):
        small_config(tmp_path, agents=[{"algorithm": "uniform", "v": 1.0}])


def test_roster_kinds_reject_unknown_agents():
    with pytest.raises(ConfigError, match="choose from"):
        ExperimentConfig.from_dict({"kind": "tournament", "agents": ["ql", "a2c"]})
    with pytest.raises(ConfigError, match="choose from"):
        ExperimentConfig.from_dict(
            {"kind": "backtest", "agents": ["up", "ppo"],
             "env": {"d": 2, "days": 60}})
    # each algorithm runs once: a second listing would only repeat its cells
    with pytest.raises(ConfigError, match="'ql' is listed twice"):
        ExperimentConfig.from_dict({"kind": "tournament", "agents": ["ql", "dqn", "ql"]})
    with pytest.raises(ConfigError, match="'up' is listed twice"):
        ExperimentConfig.from_dict(
            {"kind": "backtest", "agents": ["up", {"algorithm": "up", "label": "up2"}],
             "env": {"d": 2, "days": 60}})
    # tournament cells are rounds and its tables name algorithms: no labels
    with pytest.raises(ConfigError, match="tournament agents take only algorithm"):
        ExperimentConfig.from_dict(
            {"kind": "tournament", "agents": ["ql", {"algorithm": "dqn", "label": "d"}]})
    with pytest.raises(ConfigError, match="at least two agents"):
        ExperimentConfig.from_dict({"kind": "tournament", "agents": ["ql"]})


def test_tournament_rejects_env_table():
    with pytest.raises(ConfigError, match="their own markets"):
        ExperimentConfig.from_dict({"kind": "tournament",
                                    "env": {"d": 1, "days": 30}})


def test_execution_rejects_pinned_market_seed():
    with pytest.raises(ConfigError, match="per seed"):
        ExperimentConfig.from_dict({"kind": "execution",
                                    "env": {"d": 2, "days": 40, "seed": 5}})


def test_estimate_config_needs_file():
    with pytest.raises(ConfigError, match="params.file"):
        ExperimentConfig.from_dict({"kind": "estimate-stable"})


@pytest.mark.parametrize("kind", ["bandit-regret", "bayes-regret"])
@pytest.mark.parametrize("rounds", [-5, 0, 2.5, True])
def test_bandit_rounds_must_be_positive_integer(tmp_path, kind, rounds):
    with pytest.raises(ConfigError, match="params.rounds"):
        small_config(tmp_path, kind=kind, params={"rounds": rounds})


@pytest.mark.parametrize("env_seed", [-1, 2.5, "x", True])
def test_bandit_env_seed_must_be_nonnegative_integer(tmp_path, env_seed):
    with pytest.raises(ConfigError, match="params.env_seed"):
        small_config(tmp_path, params={"rounds": 10, "env_seed": env_seed})
    assert small_config(tmp_path, params={"env_seed": 0}).params["env_seed"] == 0


def test_bayes_regret_rejects_env_seed(tmp_path):
    # the Bayes variant redraws the environment from each cell seed
    with pytest.raises(ConfigError, match="params.env_seed"):
        small_config(tmp_path, kind="bayes-regret", params={"env_seed": 3})


@pytest.mark.parametrize("days", [1, 0, -3, 60.0, "60", False])
def test_tournament_days_must_be_integer_of_two_or_more(days):
    with pytest.raises(ConfigError, match="params.days"):
        ExperimentConfig.from_dict({"kind": "tournament", "params": {"days": days}})


@pytest.mark.parametrize("episodes", [0, -2, 4.0, "4", True])
def test_tournament_episodes_must_be_positive_integer(episodes):
    with pytest.raises(ConfigError, match="params.episodes"):
        ExperimentConfig.from_dict({"kind": "tournament",
                                    "params": {"episodes": episodes}})


@pytest.mark.parametrize("n_freq", [0, 1, -3, 4.0, "8", False])
def test_estimate_n_freq_must_be_integer_of_two_or_more(n_freq):
    with pytest.raises(ConfigError, match="params.n_freq"):
        ExperimentConfig.from_dict({"kind": "estimate-stable",
                                    "params": {"file": "x.txt", "n_freq": n_freq}})


def test_duplicate_labels_rejected(tmp_path):
    with pytest.raises(ConfigError, match="distinct"):
        small_config(tmp_path, agents=[{"algorithm": "cts"},
                                       {"algorithm": "cts"}])


def test_same_algorithm_twice_with_labels(tmp_path):
    cfg = small_config(tmp_path, agents=[
        {"algorithm": "cts", "label": "cts_tight", "v": 0.1},
        {"algorithm": "cts", "label": "cts_wide", "v": 1.0}])
    assert [label for label, _ in cfg.cells] == ["cts_tight", "cts_wide"]


def test_stable_params_from_list_and_dict():
    p = cli._stable_from([1.5, 0.2, 1.0, 0.0], "env.noise")
    assert (p.alpha, p.beta) == (1.5, 0.2)
    q = cli._stable_from({"alpha": 1.5, "beta": 0.2, "sigma": 1.0, "delta": 0.0},
                         "env.noise")
    assert q == p
    with pytest.raises(ConfigError, match="env.noise"):
        cli._stable_from([1.5, 0.2], "env.noise")
    with pytest.raises(ConfigError, match="env.noise"):
        cli._stable_from({"alpha": 1.5}, "env.noise")


def test_load_config_wraps_parse_errors(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cli.load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        cli.load_config(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# hashing


def test_hash_ignores_name_and_out_dir(tmp_path):
    a = small_config(tmp_path / "a")
    b = small_config(tmp_path / "b", name="other")
    assert a.hash() == b.hash()


def test_hash_tracks_seeds_and_env(tmp_path):
    a = small_config(tmp_path)
    assert a.hash() != small_config(tmp_path, seeds=[0, 1, 2]).hash()
    env = dict(LINEAR_ENV, horizon=200)
    assert a.hash() != small_config(tmp_path, env=env).hash()


def test_canonical_round_trips(tmp_path):
    a = small_config(tmp_path)
    again = ExperimentConfig.from_dict(a.canonical())
    assert again.hash() == a.hash()


# ---------------------------------------------------------------------------
# uniform baseline


def test_uniform_agent_contract():
    class Env:
        def pull(self, t, arm):
            return float(arm)

    class Ctx:
        t = 3

    agent = UniformAgent(4, seed=0)
    arms = [agent.step(Ctx(), Env())[0] for _ in range(200)]
    assert set(arms) <= {0, 1, 2, 3}
    assert len(set(arms)) == 4
    again = UniformAgent(4, seed=0)
    assert [again.step(Ctx(), Env())[0] for _ in range(200)] == arms


# ---------------------------------------------------------------------------
# bandit runs


def test_bandit_run_writes_the_bundle(tmp_path):
    cfg = small_config(tmp_path / "r")
    rep = cli.run(cfg, workers=1)
    assert rep.failures == []
    names = sorted(os.listdir(rep.out_dir))
    assert names == ["config.json", "regret_mean.csv", "summary.json",
                     "trace_cts_s0.csv", "trace_cts_s1.csv",
                     "trace_uniform_s0.csv", "trace_uniform_s1.csv"]
    lines = (tmp_path / "r" / "trace_cts_s0.csv").read_text().splitlines()
    assert lines[0] == f"# config={rep.config_hash} seed=0 cell=cts"
    assert lines[1] == "t,arm,reward,cum_regret"
    assert len(lines) == 62
    cum = [float(l.split(",")[3]) for l in lines[2:]]
    assert all(b >= a - 1e-12 for a, b in zip(cum, cum[1:]))

    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["hash"] == rep.config_hash
    assert {(c["label"], c["seed"], c["status"]) for c in summary["cells"]} == {
        ("cts", 0, "ok"), ("cts", 1, "ok"),
        ("uniform", 0, "ok"), ("uniform", 1, "ok")}
    assert set(summary["aggregate"]["total_regret_mean"]) == {"cts", "uniform"}

    mean_lines = (tmp_path / "r" / "regret_mean.csv").read_text().splitlines()
    assert mean_lines[0] == f"# config={rep.config_hash} seeds=0;1"
    assert mean_lines[1] == "t,cts,uniform"
    assert len(mean_lines) == 62


RERUN_KINDS = {
    "bandit": {},
    "tournament": {"kind": "tournament", "env": {}, "agents": ["ql", "cb_ts"],
                   "params": {"days": 30, "episodes": 2}},
    "backtest": {"kind": "backtest", "agents": ["up", "ad_ts"], "params": {},
                 "env": {"d": 2, "days": 60, "vol": 0.3, "seed": 3, "max_loss": 0.2}},
    "execution": {"kind": "execution", "agents": [], "env": {"d": 2, "days": 40},
                  "params": {"cadences": [1, 5], "floor": 0.8}},
    "estimate-stable": {"kind": "estimate-stable", "env": {}, "agents": [],
                        "params": {"file": "x.txt"}},
    "adversarial_mdp": {"env": {"kind": "adversarial_mdp", "mdp": MDP_TOY,
                                "noise": [1.8, 0.0, 0.3, 0.0]},
                        "agents": [{"algorithm": "mdp_acts"}], "params": {"rounds": 30}},
}


@pytest.mark.parametrize("kind", list(RERUN_KINDS))
def test_bandit_rerun_is_byte_identical(tmp_path, monkeypatch, kind):
    # worker processes run the parsed cells they unpickle
    monkeypatch.chdir(tmp_path)
    xs = np.random.default_rng(0).standard_t(3, size=200)
    (tmp_path / "x.txt").write_text("\n".join(repr(float(v)) for v in xs) + "\n")
    cfg1 = small_config(tmp_path / "a", **RERUN_KINDS[kind])
    cfg2 = small_config(tmp_path / "b", **RERUN_KINDS[kind])
    assert cli.run(cfg1, workers=1).failures == []
    cli.run(cfg2, workers=2)
    assert sorted(os.listdir(tmp_path / "a")) == sorted(os.listdir(tmp_path / "b"))
    for name in os.listdir(tmp_path / "a"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


class _RecordingPool:
    """ProcessPoolExecutor stand-in that records its size and runs the cells
    in this process, so no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("workers, cores, pool", [(8, 2, 2), (8, 16, 4), (3, 16, 3),
                                                  (8, 1, None), (8, None, None),
                                                  (1, 16, None)])
def test_run_pool_never_exceeds_cores_or_cells(tmp_path, monkeypatch, workers, cores, pool):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    _RecordingPool.sizes = []
    cfg = small_config(tmp_path / "r", seeds=[0, 1])   # 2 agents x 2 seeds = 4 cells
    rep = cli.run(cfg, workers=workers)
    assert rep.failures == []
    assert _RecordingPool.sizes == ([] if pool is None else [pool])


def test_fixed_env_seed_vs_bayes_redraw(tmp_path):
    base = {"agents": [{"algorithm": "uniform"}], "seeds": [0, 1]}
    fixed = small_config(tmp_path / "f", **base)
    cli.run(fixed, workers=1)
    bayes = small_config(tmp_path / "y", kind="bayes-regret", **base)
    cli.run(bayes, workers=1)

    def rewards(d, seed):
        lines = (d / f"trace_uniform_s{seed}.csv").read_text().splitlines()[2:]
        return [l.split(",")[2] for l in lines]

    # the fixed study keeps the seed-0 environment for every cell, the Bayes
    # study redraws it per seed; cell seed 0 coincides, cell seed 1 splits
    assert rewards(tmp_path / "f", 0) == rewards(tmp_path / "y", 0)
    assert rewards(tmp_path / "f", 1) != rewards(tmp_path / "y", 1)
    assert rewards(tmp_path / "y", 0) != rewards(tmp_path / "y", 1)


def test_overwrite_guard_and_force(tmp_path):
    out = tmp_path / "r"
    cli.run(small_config(out), workers=1)
    other = small_config(out, params={"rounds": 30})
    with pytest.raises(ConfigError, match="--force"):
        cli.run(other, workers=1)
    rep = cli.run(other, workers=1, force=True)
    assert rep.failures == []
    assert json.loads((out / "config.json").read_text())["hash"] == rep.config_hash


# a config that loads but whose ddpg cells fail at run time: a divergence
# limit this tight stops every critic in its first episodes
DIVERGING_BACKTEST = {"kind": "backtest", "env": {"d": 1, "days": 30},
                      "agents": ["up", "ddpg"], "seeds": [0, 1],
                      "params": {"backtest": {"train": {"divergence_limit": 1e-12}}}}


def test_cell_failures_are_recorded_not_raised(tmp_path):
    cfg = ExperimentConfig.from_dict({**DIVERGING_BACKTEST, "out_dir": str(tmp_path / "r")})
    rep = cli.run(cfg, workers=1)
    assert len(rep.failures) == 2    # one per seed
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    bad = [c for c in summary["cells"] if c["status"] == "error"]
    assert {c["label"] for c in bad} == {"ddpg"}
    assert all("critic diverged" in c["error"] for c in bad)
    assert set(summary["aggregate"]["median"]) == {"up"}


def test_non_finite_bandit_stats_fail_the_cell(tmp_path, capsys):
    # mu near the float limit overflows every mean reward: the cell fails
    # with the stat named instead of reporting a null regret
    path = write_config(tmp_path, env={**LINEAR_ENV, "mu": [1e308, 1e308, 1e308]})
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["run", str(path), "--workers", "1"]) == 1
    assert "failed cell uniform/s0: NumericError: total_regret" in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert [c["status"] for c in summary["cells"]] == ["error", "error"]
    assert all("total_regret is" in c["error"] for c in summary["cells"])


def test_mdp_bandit_traces_use_episode_rows(tmp_path):
    toy = {"n_states": 2, "n_actions": 2, "horizon": 2,
           "transitions": [[0, 1], [0, 1]],
           "rewards": [[0.3, 0.1], [0.0, 1.0]],
           "start_states": [0]}
    cfg = ExperimentConfig.from_dict({
        "kind": "bandit-regret",
        "env": {"kind": "adversarial_mdp", "mdp": toy,
                "noise": [1.8, 0.0, 0.3, 0.0]},
        "agents": [{"algorithm": "mdp_acts"}],
        "seeds": [0],
        "params": {"rounds": 40},
        "out_dir": str(tmp_path / "m")})
    rep = cli.run(cfg, workers=1)
    assert rep.failures == []
    lines = (tmp_path / "m" / "trace_mdp_acts_s0.csv").read_text().splitlines()
    assert lines[1] == "episode,return,regret,cum_regret"
    assert len(lines) == 42


# ---------------------------------------------------------------------------
# other kinds


def test_execution_run_emits_cadence_table(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "execution",
        "env": {"d": 2, "days": 60, "vol": 0.3, "max_loss": 0.2},
        "seeds": [0, 1],
        "params": {"cadences": [1, 5], "floor": 0.8},
        "out_dir": str(tmp_path / "e")})
    rep = cli.run(cfg, workers=1)
    assert rep.failures == []
    lines = (tmp_path / "e" / "cadence.csv").read_text().splitlines()
    assert lines[1] == "cadence,annual_return,sharpe,max_drawdown,floor_breaches"
    assert [l.split(",")[0] for l in lines[2:]] == ["1", "5"]
    assert os.path.exists(tmp_path / "e" / "trace_c1_s0.csv")
    assert os.path.exists(tmp_path / "e" / "trace_c5_s1.csv")


def test_backtest_run_with_cheap_agents(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "backtest",
        "env": {"d": 2, "days": 100, "vol": 0.3, "seed": 3, "max_loss": 0.2},
        "agents": ["up", "ad_ts"],
        "seeds": [0, 1],
        "out_dir": str(tmp_path / "b")})
    rep = cli.run(cfg, workers=1)
    assert rep.failures == []
    table = (tmp_path / "b" / "table3.txt").read_text().splitlines()
    assert table[1].split() == ["AR", "SR", "MaxD"]
    assert [l.split()[0] for l in table[2:]] == ["UP", "AD-TS"]
    lines = (tmp_path / "b" / "metrics.csv").read_text().splitlines()
    assert lines[1] == "agent,seed,annual_return,sharpe,max_drawdown"
    assert len(lines) == 6
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert set(summary["aggregate"]["median"]) == {"up", "ad_ts"}


def test_backtest_harness_medians_equal_library_rows(tmp_path):
    # a 60-day test split, long enough for the two ad_ts seeds to differ
    env = {"d": 2, "days": 200, "vol": 0.3, "seed": 3, "max_loss": 0.2}
    cfg = ExperimentConfig.from_dict({
        "kind": "backtest", "env": env, "agents": ["up", "ad_ts"],
        "seeds": [0, 1], "out_dir": str(tmp_path / "b")})
    assert cli.run(cfg, workers=1).failures == []
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    series = synth_market(2, 200, vol=0.3, seed=3, max_loss=0.2)
    lib = backtest(series, ["up", "ad_ts"], (0, 1), BacktestConfig())
    per_seed = [backtest(series, ["ad_ts"], (s,), BacktestConfig())["ad_ts"] for s in (0, 1)]
    assert per_seed[0] != per_seed[1]
    for name in ("up", "ad_ts"):
        m = lib[name]
        assert summary["aggregate"]["median"][name] == {
            "annual_return": m.annual_return, "sharpe": m.sharpe,
            "max_drawdown": m.max_drawdown}


def test_estimate_run_writes_json(tmp_path):
    xs = sample(StableParams(1.7, 0.2, 1.0, 0.5), 5000, np.random.default_rng(0))
    path = tmp_path / "x.txt"
    path.write_text("\n".join(repr(float(v)) for v in xs) + "\n")
    cfg = ExperimentConfig.from_dict({
        "kind": "estimate-stable",
        "params": {"file": str(path)},
        "out_dir": str(tmp_path / "est")})
    rep = cli.run(cfg, workers=1)
    assert rep.failures == []
    est = json.loads((tmp_path / "est" / "estimate.json").read_text())
    assert abs(est["alpha"] - 1.7) < 0.2
    assert est["n"] == 5000 and est["hash"] == rep.config_hash


# ---------------------------------------------------------------------------
# sample file parsing


def test_read_reals_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("# head\n1.5\n\n-2.25\n")
    np.testing.assert_array_equal(cli._read_reals(str(path)), [1.5, -2.25])


def test_read_reals_reports_bad_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("1.0\noops\n")
    with pytest.raises(DataError, match="line 2"):
        cli._read_reals(str(path))
    (tmp_path / "e.txt").write_text("\n# only comments\n")
    with pytest.raises(DataError, match="no samples"):
        cli._read_reals(str(tmp_path / "e.txt"))


# ---------------------------------------------------------------------------
# command line


def write_config(tmp_path, **over):
    cfg = {
        "kind": "bandit-regret",
        "env": dict(LINEAR_ENV),
        "agents": [{"algorithm": "uniform"}],
        "seeds": [0, 1],
        "params": {"rounds": 30},
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(over)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_run_ok_exit_zero(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2/2 cells ok" in out


def test_cli_run_seed_and_out_overrides(tmp_path):
    path = write_config(tmp_path)
    target = tmp_path / "elsewhere"
    assert cli.main(["run", str(path), "--seeds", "5", "--out", str(target)]) == 0
    assert sorted(os.listdir(target)) == ["config.json", "regret_mean.csv",
                                          "summary.json", "trace_uniform_s5.csv"]


def test_cli_env_var_out_override(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    target = tmp_path / "env_target"
    monkeypatch.setenv("STABLETRADE_OUT", str(target))
    assert cli.main(["run", str(path), "--workers", "1"]) == 0
    assert target.exists()
    assert not (tmp_path / "out").exists()


def test_cli_run_failures_exit_one(tmp_path, capsys):
    path = write_config(tmp_path, **DIVERGING_BACKTEST)
    assert cli.main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert "2/4 cells ok" in captured.out
    assert "failed cell ddpg/s0" in captured.err


def test_cli_run_guard_exit_two(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["run", str(path)]) == 0
    other = write_config(tmp_path, params={"rounds": 10})
    assert cli.main(["run", str(other)]) == 2
    assert "--force" in capsys.readouterr().err
    assert cli.main(["run", str(other), "--force"]) == 0


def test_cli_bad_config_exit_two(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"kind": "wat"}))
    assert cli.main(["run", str(path)]) == 2
    assert "unknown experiment kind" in capsys.readouterr().err


def test_cli_estimate_stable(tmp_path, capsys):
    xs = sample(StableParams(1.7, 0.2, 1.0, 0.5), 5000, np.random.default_rng(0))
    path = tmp_path / "x.txt"
    path.write_text("\n".join(repr(float(v)) for v in xs) + "\n")
    assert cli.main(["estimate-stable", str(path)]) == 0
    est = json.loads(capsys.readouterr().out)
    assert abs(est["alpha"] - 1.7) < 0.2
    assert est["n"] == 5000

    assert cli.main(["estimate-stable", str(tmp_path / "gone.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nzz\n")
    assert cli.main(["estimate-stable", str(bad)]) == 2


def test_cli_estimate_stable_rejects_short_frequency_grid(tmp_path, capsys):
    xs = np.random.default_rng(0).standard_t(3, size=500)
    path = tmp_path / "x.txt"
    path.write_text("\n".join(repr(float(v)) for v in xs) + "\n")
    for k in ("0", "1", "-3"):
        assert cli.main(["estimate-stable", str(path), "--n-freq", k]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_freq" in err


def test_cli_invalid_n_freq_and_rounds_configs_exit_two(tmp_path, capsys):
    (tmp_path / "x.txt").write_text("1.0\n")
    path = write_config(tmp_path, kind="estimate-stable", env={}, agents=[],
                        params={"file": str(tmp_path / "x.txt"), "n_freq": 1})
    assert cli.main(["run", str(path)]) == 2
    assert "n_freq" in capsys.readouterr().err
    path = write_config(tmp_path, params={"rounds": -5})
    assert cli.main(["run", str(path)]) == 2
    assert "rounds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("over, key", [
    ({"params": {"env_seed": "x"}}, "env_seed"),
    ({"kind": "bayes-regret", "params": {"env_seed": 1}}, "env_seed"),
    ({"kind": "tournament", "env": {}, "agents": [], "params": {"episodes": -2}},
     "episodes"),
    ({"kind": "tournament", "env": {}, "agents": [], "params": {"days": 1}}, "days"),
])
def test_cli_invalid_env_seed_and_tournament_configs_exit_two(tmp_path, capsys,
                                                              over, key):
    path = write_config(tmp_path, **over)
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"params.{key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("backtest, key", [
    ({"episodes": -2}, "backtest.episodes"),
    ({"episodes": 0}, "backtest.episodes"),
    ({"window": 0}, "backtest.window"),
    ({"window": 2.0}, "backtest.window"),
    ({"split_ratio": 1.5}, "backtest.split_ratio"),
    ({"split_ratio": 0}, "backtest.split_ratio"),
    ({"split_ratio": "0.7"}, "backtest.split_ratio"),
    ({"train": {"batch": 2.5}}, "train.batch"),
    ({"train": {"buffer_capacity": 1e5}}, "train.buffer_capacity"),
    ({"train": {"hidden": [0]}}, "train.hidden"),
    ({"train": {"hidden": [8, 4.5]}}, "train.hidden"),
    ({"train": {"hidden": 8}}, "train.hidden"),
    ({"train": {"n_candidates": -3}}, "train.n_candidates"),
    ({"train": {"pretrain_steps": -1}}, "train.pretrain_steps"),
    ({"train": {"pretrain_episodes": 1.5}}, "train.pretrain_episodes"),
    ({"train": {"warmup_steps": "64"}}, "train.warmup_steps"),
    ({"train": {"noise_kind": "ou"}}, "unknown training keys: ['noise_kind']"),
    ({"train": {"ou_theta": 0.15}}, "unknown training keys: ['ou_theta']"),
    ({"train": [1, 2]}, "train must be a table"),
    ([1, 2], "params.backtest must be a table"),
    ({"train": {"gamma": "x"}}, "train.gamma"),
    ({"train": {"tau": float("nan")}}, "train.tau"),
    ({"initial_cash": "x"}, "backtest.initial_cash"),
    ({"initial_cash": 0}, "backtest.initial_cash"),
    ({"cost_bps": -1}, "backtest.cost_bps"),
    ({"cost_bps": 1e4}, "backtest.cost_bps"),
    ({"floor_frac": 1.0}, "backtest.floor_frac"),
    ({"floor_frac": -0.1}, "backtest.floor_frac"),
    ({"multiplier": -2.0}, "backtest.multiplier"),
    ({"multiplier": True}, "backtest.multiplier"),
    ({"reward_scale": 0}, "backtest.reward_scale"),
    ({"reward_scale": float("inf")}, "backtest.reward_scale"),
])
def test_cli_invalid_backtest_params_exit_two(tmp_path, capsys, backtest, key):
    path = write_config(tmp_path, kind="backtest", env={"d": 1, "days": 30},
                        agents=["ddpg"], seeds=[0], params={"backtest": backtest})
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_backtest_params_at_their_lower_limits_are_valid():
    train = {"hidden": [], "n_candidates": 0, "pretrain_steps": 0,
             "pretrain_episodes": 0, "warmup_steps": 0, "batch": 1,
             "buffer_capacity": 1}
    cfg = BacktestConfig.from_dict({"episodes": 1, "window": 1, "split_ratio": 0.5,
                                    "train": train})
    assert cfg.train.hidden == () and cfg.episodes == 1
    ExperimentConfig.from_dict({"kind": "backtest", "env": {"d": 1, "days": 30},
                                "params": {"backtest": {"train": train}}})


@pytest.mark.parametrize("over, key", [
    ({"env": {"kind": "adversarial_mdp", "mdp": {**MDP_TOY, "n_states": "x"}}},
     "mdp.n_states"),
    ({"env": {"kind": "adversarial_mdp",
              "mdp": {**MDP_TOY, "transitions": [[0, 1], [1]]}}}, "mdp.transitions"),
    ({"env": {"kind": "adversarial_mdp", "mdp": {**MDP_TOY, "start_states": 0}}},
     "mdp.start_states"),
    ({"env": {**LINEAR_ENV, "noise": ["a", 0, 1, 0]}}, "env.noise"),
    ({"env": {**LINEAR_ENV, "mu": ["a", "b"]}}, "env.mu"),
    ({"seeds": ["z"]}, "seeds"),
    ({"seeds": [0, 1.5]}, "seeds"),
    ({"seeds": [-1]}, "seeds"),
    # integers only: nothing is truncated
    ({"env": {"kind": "adversarial_mdp", "mdp": {**MDP_TOY, "horizon": 2.9}}},
     "mdp.horizon"),
    ({"env": {"kind": "adversarial_mdp",
              "mdp": {**MDP_TOY, "transitions": [[0, 1.7], [0, 1]]}}}, "mdp.transitions"),
    ({"env": {"kind": "adversarial_mdp", "mdp": {**MDP_TOY, "start_states": "01"}}},
     "mdp.start_states"),
    ({"env": {**LINEAR_ENV, "user_mode": "random"}}, "unknown env keys: ['user_mode']"),
    ({"env": {**LINEAR_ENV, "n_arms": "x"}}, "env.n_arms"),
    ({"env": {**LINEAR_ENV, "n_arms": 0}}, "env.n_arms"),
    ({"env": {**LINEAR_ENV, "dim": 3.0}}, "env.dim"),
    ({"env": {**LINEAR_ENV, "horizon": 0}}, "env.horizon"),
    ({"env": {**LINEAR_ENV, "horizon": True}}, "env.horizon"),
    ({"env": {**LINEAR_ENV, "n_users": 0}}, "env.n_users"),
    ({"env": {**LINEAR_ENV, "n_users": "2"}}, "env.n_users"),
    ({"format_version": "x"}, "format_version"),
    ({"format_version": None}, "format_version"),
    ({"out_dir": 5}, "out_dir"),
    ({"out_dir": ""}, "out_dir"),
    # an algorithm must fit the env kind: episodes for mdp_acts, arms otherwise
    ({"agents": [{"algorithm": "mdp_acts"}]}, "'mdp_acts' does not fit env kind 'linear'"),
    ({"env": {"kind": "adversarial_mdp", "mdp": MDP_TOY}, "agents": [{"algorithm": "cts"}]},
     "'cts' does not fit env kind 'adversarial_mdp'"),
    ({"env": {"kind": "adversarial_mdp", "mdp": MDP_TOY},
      "agents": [{"algorithm": "uniform"}]}, "'uniform' does not fit env kind"),
    ({"env": {"kind": "plain", "n_arms": 2, "horizon": 30, "arm_means": [0, "a"]}},
     "env.arm_means"),
    # non-finite or mis-sized env values stop at load, not in every cell
    ({"env": {"kind": "plain", "n_arms": 2, "horizon": 30, "arm_means": [float("nan"), 1]}},
     "env.arm_means"),
    ({"env": {**LINEAR_ENV, "mu": [float("inf"), 1, 0]}}, "env.mu"),
    ({"env": {"kind": "plain", "n_arms": 3, "horizon": 30, "arm_means": [0, 1]}},
     "env.arm_means"),
    ({"env": {**LINEAR_ENV, "kind": "semiparam", "v_step": "x"}}, "env.v_step"),
    ({"env": {**LINEAR_ENV, "kind": "semiparam", "v_max": -1}}, "env.v_max"),
    ({"env": {**LINEAR_ENV, "resample_contexts": "yes"}}, "env.resample_contexts"),
    ({"env": {**LINEAR_ENV, "noise": [[1.8, 0, 1, 0]]}}, "env.noise"),
])
def test_cli_malformed_env_and_seed_values_exit_two(tmp_path, capsys, over, key):
    path = write_config(tmp_path, **over)
    assert cli.main(["run", str(path), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


BACKTEST_RUN = {"kind": "backtest", "agents": ["up"], "seeds": [0], "params": {}}
EXECUTION_RUN = {"kind": "execution", "agents": [], "seeds": [0],
                 "env": {"d": 1, "days": 30}}
ESTIMATE_RUN = {"kind": "estimate-stable", "agents": [], "env": {}, "seeds": [0]}
ONE_DAY_TRAIN_RUN = {**BACKTEST_RUN, "env": {"d": 1, "days": 50},
                     "params": {"backtest": {"split_ratio": 0.01}}}


@pytest.mark.parametrize("over, key", [
    ({**BACKTEST_RUN, "env": {"days": "x"}}, "env.days"),
    ({**BACKTEST_RUN, "env": {"d": 1.0}}, "env.d"),
    ({**BACKTEST_RUN, "env": {"seed": -1}}, "env.seed"),
    ({**BACKTEST_RUN, "env": {"vol": -1}}, "env.vol"),
    ({**BACKTEST_RUN, "env": {"corr": 2}}, "env.corr"),
    ({**BACKTEST_RUN, "env": {"corr": -1.5}}, "env.corr"),
    ({**BACKTEST_RUN, "env": {"max_loss": -1}}, "env.max_loss"),
    ({**BACKTEST_RUN, "env": {"max_loss": 1.5}}, "env.max_loss"),
    ({**BACKTEST_RUN, "env": {"drift": "nan"}}, "env.drift"),
    ({**BACKTEST_RUN, "env": {"drift": float("nan")}}, "env.drift"),
    ({**BACKTEST_RUN, "env": {"vol": float("inf")}}, "env.vol"),
    ({**BACKTEST_RUN, "env": {"alpha": 2.5}}, "env.alpha"),
    ({**BACKTEST_RUN, "env": {"start_price": 0}}, "env.start_price"),
    ({**EXECUTION_RUN, "params": {"cadences": ["q"]}}, "params.cadences"),
    ({**EXECUTION_RUN, "params": {"cadences": [0]}}, "params.cadences"),
    ({**EXECUTION_RUN, "params": {"cadences": 5}}, "params.cadences"),
    ({"agents": [{"algorithm": "acts", "refresh_every": "7"}]}, "agent.refresh_every"),
    ({"agents": [{"algorithm": "cts", "v": "big"}]}, "agent.v"),
    ({"agents": [{"algorithm": "cts", "v": -1.0}]}, "agent.v"),
    ({"agents": [{"algorithm": "cts", "mc_probs": 2.5}]}, "agent.mc_probs"),
    ({"agents": [{"algorithm": "scts", "lam": "high"}]}, "agent.lam"),
    ({"agents": [{"algorithm": "acts", "mh_step_scale": 0}]}, "agent.mh_step_scale"),
    ({"agents": [{"algorithm": "acts", "warmup": 0}]}, "agent.warmup"),
    ({**BACKTEST_RUN, "env": {"csv": "no-such-prices.csv"}}, "env.csv"),
    ({**EXECUTION_RUN, "params": {"floor": 1.5}}, "params.floor"),
    ({**EXECUTION_RUN, "params": {"floor": 1.0}}, "params.floor"),
    ({**EXECUTION_RUN, "params": {"initial_cash": "x"}}, "params.initial_cash"),
    ({**EXECUTION_RUN, "params": {"initial_cash": -5}}, "params.initial_cash"),
    ({**EXECUTION_RUN, "params": {"cost_bps": float("nan")}}, "params.cost_bps"),
    ({**EXECUTION_RUN, "params": {"multiplier": -1}}, "params.multiplier"),
    # met at load, before any cell runs
    ({**BACKTEST_RUN, "env": {"days": 4}}, "test split too short"),
    ({**ESTIMATE_RUN, "params": {"file": "no-such-samples.txt"}}, "no-such-samples.txt"),
    ({**ESTIMATE_RUN, "params": {"file": "."}}, "cannot read samples"),
    ({**ESTIMATE_RUN, "params": {"file": "binary.txt"}}, "cannot read samples"),
    ({**ESTIMATE_RUN, "params": {"file": "bad.txt"}}, "line 2"),
    ({**ESTIMATE_RUN, "params": {"file": "nan.txt"}}, "not a finite number"),
    ({**ESTIMATE_RUN, "params": {"file": "short.txt"}}, "need at least 50"),
    ({**ESTIMATE_RUN, "params": {"file": ["x.txt"]}}, "params.file"),
    ({**BACKTEST_RUN, "env": [1, 2]}, "env must be a table"),
    ({"agents": [{"algorithm": "cts", "label": 5}]}, "label 5"),
    ({"agents": 5}, "agents must be a list"),
    ({**EXECUTION_RUN, "env": {"csv": "oneday.csv"}, "params": {}},
     "env.csv 'oneday.csv' holds 1 day"),
    # a key the algorithm never reads would only change the config hash
    ({"agents": [{"algorithm": "cts", "lam": 5}]}, "'cts' never reads agent.lam"),
    ({"agents": [{"algorithm": "acts", "mc_probs": 7}]}, "'acts' never reads agent.mc_probs"),
    ({"agents": [{"algorithm": "cts", "refresh_every": 3, "warmup": 9}]},
     "'cts' never reads agent.refresh_every, agent.warmup"),
    ({**EXECUTION_RUN, "env": None, "params": {}}, "env must be a table"),
    ({**EXECUTION_RUN, "env": 5, "params": {}}, "env must be a table"),
    # a one-day train part stops a roster with a learner at load
    ({**ONE_DAY_TRAIN_RUN, "agents": ["up", "dqn"]}, "params.backtest.split_ratio"),
])
def test_cli_malformed_market_cadence_and_agent_values_exit_two(tmp_path, capsys,
                                                                 monkeypatch, over, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "binary.txt").write_bytes(b"\xff\xfe\x00\x81\n")
    (tmp_path / "bad.txt").write_text("1.0\noops\n")
    (tmp_path / "nan.txt").write_text("1.0\nnan\n")
    (tmp_path / "short.txt").write_text("".join(f"{i}\n" for i in range(10)))
    (tmp_path / "oneday.csv").write_text("date,ticker,open,high,low,close,volume\n"
                                         "2020-01-02,AAA,10,11,9,10,100\n")
    path = write_config(tmp_path, **over)
    assert cli.main(["run", str(path), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "out").exists()


def test_one_day_train_part_still_runs_agents_that_only_trade_the_test_part(tmp_path):
    path = write_config(tmp_path, **{**ONE_DAY_TRAIN_RUN, "agents": ["up", "ad_ts"]})
    assert cli.main(["run", str(path), "--workers", "1"]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert set(summary["aggregate"]["median"]) == {"up", "ad_ts"}


def test_cli_too_few_samples_exit_two_without_traceback(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("".join(f"{i}\n" for i in range(1, 11)))
    assert cli.main(["estimate-stable", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "50 samples" in err
    assert "Traceback" not in err


def test_cli_verify_suite_report(capsys):
    assert cli.main(["verify", "degeneracy"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(l) for l in lines]
    assert rows[-1] == {"suite": "degeneracy", "passed": True}
    assert rows[0]["check"] == "degeneracy" and rows[0]["passed"] is True
    assert "seconds" in rows[0] and "detail" in rows[0]


def test_cli_verify_unknown_suite(capsys):
    assert cli.main(["verify", "everything"]) == 2
    assert "unknown verify suite" in capsys.readouterr().err


def test_verify_reports_crashed_checks(monkeypatch):
    broken = dict(cli.CRITERIA)

    def boom():
        raise RuntimeError("probe blew up")

    monkeypatch.setattr(cli, "CRITERIA", tuple(
        (n, boom if n == "degeneracy" else f) for n, f in broken.items()))
    rep = cli.verify("degeneracy")
    assert not rep.passed
    assert "probe blew up" in rep.checks[0].detail


def test_suites_cover_every_criterion():
    named = set(dict(cli.CRITERIA))
    assert set(cli.SUITES["all"]) == named
    assert set().union(*cli.SUITES.values()) == named
    # every criterion is reachable on its own for piecemeal verification
    for name in named:
        assert cli.SUITES[name] == (name,)
