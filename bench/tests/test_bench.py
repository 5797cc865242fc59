"""The benchmark's own tests: toy-size runs of every workload, and proof that
each correctness check rejects a deliberately corrupted bundle.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from stabletrade import cli  # noqa: E402


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """Two repeats of every workload's toy config, run in this process."""
    out = {}
    for name in workloads.NAMES:
        config, _ = workloads.build(name, 0, size="toy")
        dirs = []
        for k in range(2):
            cfg = cli.ExperimentConfig.from_dict(config)
            cfg.out_dir = str(tmp_path_factory.mktemp(f"{name}-{k}"))
            report = cli.run(cfg, workers=1)
            assert not report.failures
            dirs.append(cfg.out_dir)
        out[name] = (config, dirs)
    return out


@pytest.fixture
def bundle(bundles, tmp_path, request):
    """A private copy of one workload's first bundle, free to corrupt."""
    config, dirs = bundles[request.param]
    target = tmp_path / "bundle"
    shutil.copytree(dirs[0], target)
    return config, str(target)


def _edit(path, old, new, count=1):
    with open(path) as fh:
        text = fh.read()
    assert old in text, f"{old!r} not in {path}"
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, count))


def _edit_row(path, row, column, value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    cells = lines[data[row]].split(",")
    cells[column] = value
    lines[data[row]] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_summary(path, change):
    with open(path) as fh:
        summary = json.load(fh)
    change(summary)
    with open(path, "w") as fh:
        json.dump(summary, fh)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_bundles_pass_every_check(bundles, name):
    config, dirs = bundles[name]
    assert checks.check_bundle(config, dirs[0]) == []
    assert checks.compare_bundles(dirs) == []


def test_compare_bundles_sees_one_changed_byte(bundles, tmp_path):
    _, dirs = bundles["tournament"]
    copy = tmp_path / "copy"
    shutil.copytree(dirs[1], copy)
    _edit(copy / "wins.csv", "50.0", "50.5")
    problems = checks.compare_bundles([dirs[0], str(copy)])
    assert problems and "wins.csv" in problems[0]


@pytest.mark.parametrize("bundle", ["bandit-linear"], indirect=True)
def test_bandit_trace_regret_is_recomputed(bundle):
    config, d = bundle
    _edit_row(os.path.join(d, "trace_cts_s0.csv"), 40, 3, "0.125")
    assert any("cum_regret at t=40" in p for p in checks.check_bundle(config, d))


@pytest.mark.parametrize("bundle", ["bandit-linear"], indirect=True)
def test_bandit_regret_mean_is_the_seed_average(bundle):
    config, d = bundle
    _edit_row(os.path.join(d, "regret_mean.csv"), 10, 1, "3.5")
    assert any(p.startswith("regret_mean.csv: cts at t=10")
               for p in checks.check_bundle(config, d))


@pytest.mark.parametrize("bundle", ["bandit-linear"], indirect=True)
def test_bandit_check_needs_learners_below_uniform(bundle):
    config, d = bundle
    for seed in config["seeds"]:
        a, u = (os.path.join(d, f"trace_{lab}_s{seed}.csv") for lab in ("acts", "uniform"))
        os.replace(a, a + ".tmp")
        os.replace(u, a)
        os.replace(a + ".tmp", u)
    problems = checks.check_bundle(config, d)
    assert any("acts mean total regret" in p and "not below uniform" in p
               for p in problems)


@pytest.mark.parametrize("bundle", ["backtest-ddpg"], indirect=True)
def test_backtest_checks_reject_corruption(bundle):
    config, d = bundle
    _edit_row(os.path.join(d, "metrics.csv"), 3, 3, "1.5")
    assert any(p.startswith("metrics.csv") for p in checks.check_bundle(config, d))


@pytest.mark.parametrize("bundle", ["backtest-ddpg"], indirect=True)
def test_backtest_table3_must_hold_the_medians(bundle):
    config, d = bundle
    path = os.path.join(d, "table3.txt")
    with open(path) as fh:
        up_row = [ln for ln in fh.read().splitlines() if ln.startswith("UP")][0]
    _edit(path, up_row, up_row.replace(up_row.split()[1], "99.99%"))
    assert any(p.startswith("table3.txt: UP annual_return")
               for p in checks.check_bundle(config, d))


@pytest.mark.parametrize("bundle", ["backtest-ddpg"], indirect=True)
def test_backtest_up_curve_is_the_grid_average(bundle):
    config, d = bundle
    _edit_row(os.path.join(d, "trace_up_s0.csv"), 5, 1, "101.0")
    assert any("grid average" in p for p in checks.check_bundle(config, d))


@pytest.mark.parametrize("bundle", ["backtest-ddpg"], indirect=True)
def test_backtest_curves_must_be_positive(bundle):
    config, d = bundle
    _edit_row(os.path.join(d, "trace_ddpg_s1.csv"), 4, 1, "-3.0")
    assert any("finite and positive" in p for p in checks.check_bundle(config, d))


@pytest.mark.parametrize("bundle", ["tournament"], indirect=True)
def test_tournament_checks_reject_a_swapped_win_cell(bundle):
    config, d = bundle
    path = os.path.join(d, "wins.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = [i for i, ln in enumerate(lines) if ln.count(",") == 2 and "wins_pct" not in ln]
    i, j = next((a, b) for a in rows for b in rows
                if lines[a].split(",")[2] != lines[b].split(",")[2])
    ci, cj = lines[i].split(","), lines[j].split(",")
    ci[2], cj[2] = cj[2], ci[2]
    lines[i], lines[j] = ",".join(ci), ",".join(cj)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any(p.startswith("wins.csv") for p in checks.check_bundle(config, d))


@pytest.mark.parametrize("bundle", ["tournament"], indirect=True)
def test_tournament_checks_reject_wrong_averages_and_tables(bundle):
    config, d = bundle
    _edit_summary(os.path.join(d, "summary.json"),
                  lambda s: s["aggregate"]["avg_wins"].update(ql=99.0))
    assert any(p.startswith("summary avg_wins[ql]") for p in checks.check_bundle(config, d))

    path = os.path.join(d, "table2.txt")
    with open(path) as fh:
        row = [ln for ln in fh.read().splitlines() if ln.startswith("SARSA")][0]
    _edit(path, row, row.replace(row.split()[-1], "99.9%"))
    assert any(p.startswith("table2.txt: SARSA average")
               for p in checks.check_bundle(config, d))


@pytest.mark.parametrize("bundle", ["tournament"], indirect=True)
def test_tournament_wins_follow_the_round_returns(bundle):
    config, d = bundle
    path = os.path.join(d, "trace_round_s0.csv")
    with open(path) as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines()[2:]]
    ranked = sorted(range(len(rows)), key=lambda i: float(rows[i][1]))
    best, worst = ranked[-1], ranked[0]
    _edit_row(path, best + 1, 1, rows[worst][1])    # the round's winner now
    _edit_row(path, worst + 1, 1, rows[best][1])    # loses, and the loser wins
    assert any("recomputed" in p for p in checks.check_bundle(config, d))


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.METRICS)
    assert all(m["name"] == "setup_s" or m["bound"] <= spec["end_to_end"][0]["bound"]
               for m in spec["end_to_end"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_toy_run_reports_every_layer(name):
    proc = _run_bench("--workload", name, "--seed", "2", "--seconds", "1",
                      "--trace", "1", "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m for m, _ in tracer.METRICS]
    _, steps = workloads.build(name, 2, size="toy")
    assert result["metrics"][workloads.STEP_LAYER[name]]["value"] == steps
    with open(os.path.join(BENCH, "out", name, "result.json")) as fh:
        record = json.load(fh)["provenance"]
    assert record["config_seeds"] and record["run_seconds"] == 1
    assert {"cores", "platform"} <= set(record["machine"]) and "numpy" in record["versions"]


def test_untraced_toy_run_reports_end_to_end_metrics():
    proc = _run_bench("--workload", "tournament", "--seed", "0", "--seconds", "1",
                      "--trace", "0", "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 3 * 2
    assert list(result["metrics"]) == [m for m, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    with open(os.path.join(BENCH, "out", "tournament", "result.json")) as fh:
        repeats = json.load(fh)["repeats"]
    assert len(repeats) >= run.MIN_REPEATS
    for r in repeats:    # raw figures and the speed scale stay on record
        assert r["probe_s"] > 0 and r["run_s"] > 0
        assert r["speed"] == pytest.approx(run.REFERENCE_PROBE_S / r["probe_s"])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench("--workload", "tournament", "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
