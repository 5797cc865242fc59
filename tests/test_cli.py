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
    assert cfg.labels() == ["cts_tight", "cts_wide"]


def test_stable_params_from_list_and_dict():
    p = cli._stable_from([1.5, 0.2, 1.0, 0.0])
    assert (p.alpha, p.beta) == (1.5, 0.2)
    q = cli._stable_from({"alpha": 1.5, "beta": 0.2, "sigma": 1.0, "delta": 0.0})
    assert q == p
    with pytest.raises(ConfigError):
        cli._stable_from([1.5, 0.2])
    with pytest.raises(ConfigError):
        cli._stable_from({"alpha": 1.5})


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


def test_bandit_rerun_is_byte_identical(tmp_path):
    cfg1 = small_config(tmp_path / "a")
    cfg2 = small_config(tmp_path / "b")
    cli.run(cfg1, workers=1)
    cli.run(cfg2, workers=2)
    for name in os.listdir(tmp_path / "a"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


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


def test_cell_failures_are_recorded_not_raised(tmp_path):
    # mdp_acts on an armed environment cannot be built; the cell fails alone
    cfg = small_config(tmp_path / "r", agents=[{"algorithm": "cts"},
                                               {"algorithm": "mdp_acts"}])
    rep = cli.run(cfg, workers=1)
    assert len(rep.failures) == 2    # one per seed
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    bad = [c for c in summary["cells"] if c["status"] == "error"]
    assert {c["label"] for c in bad} == {"mdp_acts"}
    assert all("error" in c for c in bad)
    assert set(summary["aggregate"]["total_regret_mean"]) == {"cts"}


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
    lib = backtest(series, ["up", "ad_ts"], seeds=(0, 1), cfg=BacktestConfig())
    assert lib.per_seed["ad_ts"][0] != lib.per_seed["ad_ts"][1]
    for name in ("up", "ad_ts"):
        m = lib.rows[name]
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
    path = write_config(tmp_path, agents=[{"algorithm": "mdp_acts"}])
    assert cli.main(["run", str(path)]) == 1
    assert "failed cell" in capsys.readouterr().err


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
