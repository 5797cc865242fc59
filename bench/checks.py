"""Correctness checks on the harness's result bundles.

Each check recomputes a published number on its own from the bundle's
per-cell traces (or from the workload's inputs) and compares, or tests a
property the method must have. A check returns a list of problems; an empty
list means the bundle passed.

The inputs themselves (the bandit environment's contexts and weight, the
synthetic market's prices) come from the package's generators, because
they are inputs, not results.
"""

import csv
import itertools
import json
import math
import os
import statistics

import numpy as np

from stabletrade import cli
from stabletrade.bandit_envs import EnvSpec, make_env

TRADING_DAYS = 252.0
_T2_LABELS = {"ql": "QL", "dqn": "DQL", "sarsa": "SARSA", "cb_ts": "CB-TS",
              "ac_ts": "AC-TS"}
_T3_LABELS = {"up": "UP", "dqn": "DQN", "ddpg": "DDPG", "cppi_ddpg": "CPPI-DDPG",
              "ad_ts": "AD-TS"}


def _close(a, b, rel=1e-9, tol=1e-9):
    if a is None or b is None or math.isnan(a) or math.isnan(b):
        return (a is None or math.isnan(a)) and (b is None or math.isnan(b))
    return abs(a - b) <= tol + rel * max(abs(a), abs(b))


def _read_table(path):
    """(header, rows) of a CSV whose comment lines start with #."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _read_text_table(path):
    """{row label: cells} of a whitespace table after its header line."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return {ln.split()[0]: ln.split()[1:] for ln in lines[1:]}


def _labels(config):
    return [a.get("label", a["algorithm"]) for a in config["agents"]]


def _ok_cells(summary):
    return {(c["label"], c["seed"]) for c in summary["cells"] if c["status"] == "ok"}


def check_bundle(config, out_dir):
    """Every check that applies to the bundle of this config."""
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    kind = config["kind"]
    if kind == "bayes-regret":
        return check_bandit(config, out_dir, summary)
    if kind == "backtest":
        return check_backtest(config, out_dir, summary)
    if kind == "tournament":
        return check_tournament(config, out_dir, summary)
    return [f"no checks for experiment kind {kind!r}"]


# ---------------------------------------------------------------------------
# bandit regret


def _regret_curve(env, arms):
    """Cumulative pseudo-regret from the env's contexts . mu and the arms."""
    total, out = 0.0, []
    for t, arm in enumerate(arms):
        means = np.asarray(env.context(t).contexts, dtype=float) @ env.mu
        total += float(means.max()) - float(means[arm])
        out.append(total)
    return out


def check_bandit(config, out_dir, summary):
    problems = []
    env_cfg = config["env"]
    rounds = int(config["params"]["rounds"])
    labels = _labels(config)
    ok = _ok_cells(summary)
    traced = {lab: [] for lab in labels}
    own_totals = {lab: [] for lab in labels}
    for seed in config["seeds"]:
        env = make_env(EnvSpec(kind="linear", n_arms=env_cfg["n_arms"],
                               dim=env_cfg["dim"], horizon=env_cfg["horizon"]), seed)
        for lab in labels:
            if (lab, seed) not in ok:
                continue
            name = f"trace_{lab}_s{seed}.csv"
            header, rows = _read_table(os.path.join(out_dir, name))
            if header != ["t", "arm", "reward", "cum_regret"] or len(rows) != rounds:
                problems.append(f"{name}: header {header}, {len(rows)} rows, "
                                f"want t,arm,reward,cum_regret and {rounds}")
                continue
            arms = [int(r[1]) for r in rows]
            cum = [float(r[3]) for r in rows]
            if [int(r[0]) for r in rows] != list(range(1, rounds + 1)):
                problems.append(f"{name}: rounds are not numbered 1..{rounds}")
            if not all(math.isfinite(float(r[2])) for r in rows):
                problems.append(f"{name}: non-finite reward")
            own = _regret_curve(env, arms)
            bad = [t for t in range(rounds) if not _close(cum[t], own[t])]
            if bad:
                t = bad[0]
                problems.append(f"{name}: cum_regret at t={t + 1} is {cum[t]!r}, "
                                f"recomputed {own[t]!r} ({len(bad)} rows differ)")
            traced[lab].append(cum)
            own_totals[lab].append(own[-1])

    header, rows = _read_table(os.path.join(out_dir, "regret_mean.csv"))
    cols = [lab for lab in labels if traced[lab]]
    if header != ["t"] + cols or len(rows) != rounds:
        problems.append(f"regret_mean.csv: header {header}, {len(rows)} rows")
    else:
        for k, lab in enumerate(cols, start=1):
            mean = np.mean(np.asarray(traced[lab]), axis=0)
            bad = [t for t in range(rounds) if not _close(float(rows[t][k]), mean[t])]
            if bad:
                problems.append(f"regret_mean.csv: {lab} at t={bad[0] + 1} is "
                                f"{rows[bad[0]][k]}, mean of seed traces "
                                f"{mean[bad[0]]!r}")

    means = {lab: statistics.fmean(v) for lab, v in own_totals.items() if v}
    reported = summary["aggregate"].get("total_regret_mean", {})
    for lab, value in means.items():
        if not _close(reported.get(lab), value):
            problems.append(f"summary total_regret_mean[{lab}] is "
                            f"{reported.get(lab)!r}, recomputed {value!r}")
    if "uniform" in means:
        for lab, value in means.items():
            if lab != "uniform" and not value < means["uniform"]:
                problems.append(f"{lab} mean total regret {value:.3f} is not below "
                                f"uniform's {means['uniform']:.3f}")
    return problems


# ---------------------------------------------------------------------------
# backtest


def own_metrics(curve):
    """(annual return, Sharpe, max drawdown) of a daily asset curve."""
    t_days = len(curve) - 1
    ar = (curve[-1] / curve[0]) ** (TRADING_DAYS / t_days) - 1.0
    rets = [b / a - 1.0 for a, b in zip(curve[:-1], curve[1:])]
    mean = math.fsum(rets) / len(rets)
    sd = math.sqrt(math.fsum((r - mean) ** 2 for r in rets) / (len(rets) - 1))
    sr = float("nan") if sd == 0.0 else mean / sd * math.sqrt(TRADING_DAYS)
    peak, maxd = curve[0], 0.0
    for v in curve:
        peak = max(peak, v)
        maxd = max(maxd, (peak - v) / peak)
    return ar, sr, maxd


def own_up_curve(close, initial_cash, resolution=10):
    """Mean wealth over every constant-rebalanced portfolio on the simplex
    grid of the given resolution, rebalanced daily at no cost."""
    d = close.shape[1]
    grid = [np.array(c, dtype=float) / resolution
            for c in itertools.product(range(resolution + 1), repeat=d)
            if sum(c) == resolution]
    wealth = [1.0] * len(grid)
    curve = [initial_cash]
    for t in range(1, close.shape[0]):
        rel = close[t] / close[t - 1]
        wealth = [w * float(np.dot(g, rel)) for w, g in zip(wealth, grid)]
        curve.append(initial_cash * math.fsum(wealth) / len(wealth))
    return curve


def _parse_pct(cell):
    return float("nan") if cell == "n/a" else float(cell.rstrip("%"))


def _table_matches(printed, value, decimals):
    """printed holds 100 * value rounded to the given decimals."""
    if math.isnan(value) or math.isnan(printed):
        return math.isnan(value) and math.isnan(printed)
    return abs(printed - 100.0 * value) <= 0.5 * 10 ** -decimals + 1e-9


def check_backtest(config, out_dir, summary):
    problems = []
    series = cli._market_from(config["env"])
    bt = config["params"].get("backtest", {})
    cash = float(bt.get("initial_cash", 100.0))
    n_train = math.ceil(float(bt.get("split_ratio", 0.7)) * series.n_days)
    test_close = series.close[n_train:]
    ok = _ok_cells(summary)
    stats = {(c["label"], c["seed"]): c.get("stats") for c in summary["cells"]}
    _, metric_rows = _read_table(os.path.join(out_dir, "metrics.csv"))
    listed = {(r[0], int(r[1])): [float(v) for v in r[2:]] for r in metric_rows}
    own = {}
    for lab in _labels(config):
        for seed in config["seeds"]:
            if (lab, seed) not in ok:
                continue
            name = f"trace_{lab}_s{seed}.csv"
            header, rows = _read_table(os.path.join(out_dir, name))
            curve = [float(r[1]) for r in rows]
            if header != ["day", "asset"] or len(curve) != test_close.shape[0]:
                problems.append(f"{name}: header {header}, {len(curve)} days, "
                                f"want day,asset and {test_close.shape[0]}")
                continue
            if not all(math.isfinite(v) and v > 0.0 for v in curve):
                problems.append(f"{name}: curve not finite and positive")
                continue
            if lab == "up":
                ref = own_up_curve(test_close, cash)
                bad = [t for t in range(len(ref)) if not _close(curve[t], ref[t])]
                if bad:
                    problems.append(f"{name}: day {bad[0]} is {curve[bad[0]]!r}, "
                                    f"grid average {ref[bad[0]]!r}")
            mine = own_metrics(curve)
            own[(lab, seed)] = mine
            s = stats[(lab, seed)]
            reported = [s["annual_return"], s["sharpe"], s["max_drawdown"]]
            for field, want, got_sum, got_csv in zip(
                    ("annual_return", "sharpe", "max_drawdown"), mine, reported,
                    listed.get((lab, seed), [None] * 3)):
                if not _close(got_sum, want):
                    problems.append(f"summary {lab}/s{seed} {field} is {got_sum!r}, "
                                    f"recomputed {want!r}")
                if not _close(got_csv, want):
                    problems.append(f"metrics.csv {lab}/s{seed} {field} is "
                                    f"{got_csv!r}, recomputed {want!r}")

    table = _read_text_table(os.path.join(out_dir, "table3.txt"))
    medians = summary["aggregate"].get("median", {})
    for lab in _labels(config):
        per_seed = [own[(lab, s)] for s in config["seeds"] if (lab, s) in own]
        if not per_seed:
            continue
        med = [float(np.median([m[k] for m in per_seed])) for k in range(3)]
        row = table.get(_T3_LABELS[lab])
        if row is None or len(row) != 3:
            problems.append(f"table3.txt: row for {_T3_LABELS[lab]} is {row}")
            continue
        for k, (field, decimals) in enumerate(
                (("annual_return", 2), ("sharpe", 1), ("max_drawdown", 2))):
            if not _table_matches(_parse_pct(row[k]), med[k], decimals):
                problems.append(f"table3.txt: {_T3_LABELS[lab]} {field} {row[k]}, "
                                f"median of seeds {100 * med[k]:.4f}%")
            if not _close(medians.get(lab, {}).get(field), med[k]):
                problems.append(f"summary median {lab} {field} is "
                                f"{medians.get(lab, {}).get(field)!r}, "
                                f"median of seeds {med[k]!r}")
    return problems


# ---------------------------------------------------------------------------
# tournament


def own_wins(returns, names, seeds):
    """Pairwise win percentages over rounds, ties split 50:50."""
    wins = {}
    for a in names:
        for b in names:
            if a == b:
                wins[a, b] = 50.0
                continue
            score = [100.0 if returns[a][s] > returns[b][s]
                     else 50.0 if returns[a][s] == returns[b][s] else 0.0
                     for s in seeds]
            wins[a, b] = math.fsum(score) / len(score)
    return wins


def check_tournament(config, out_dir, summary):
    problems = []
    names = [a["algorithm"] for a in config["agents"]]
    seeds = [s for s in config["seeds"] if ("round", s) in _ok_cells(summary)]
    returns = {n: {} for n in names}
    for seed in seeds:
        name = f"trace_round_s{seed}.csv"
        header, rows = _read_table(os.path.join(out_dir, name))
        got = {r[0]: float(r[1]) for r in rows}
        if header != ["agent", "round_return"] or sorted(got) != sorted(names):
            problems.append(f"{name}: header {header}, agents {sorted(got)}")
            return problems
        if not all(math.isfinite(v) for v in got.values()):
            problems.append(f"{name}: non-finite round return")
        for n in names:
            returns[n][seed] = got[n]
    if not seeds:
        return problems
    wins = own_wins(returns, names, seeds)

    _, rows = _read_table(os.path.join(out_dir, "wins.csv"))
    listed = {(r[0], r[1]): float(r[2]) for r in rows}
    for (a, b), w in wins.items():
        if not _close(listed.get((a, b)), w):
            problems.append(f"wins.csv {a} vs {b} is {listed.get((a, b))!r}, "
                            f"recomputed {w!r}")
        if a != b and not _close(listed.get((a, b), 0.0) + listed.get((b, a), 0.0), 100.0):
            problems.append(f"wins.csv {a} vs {b} and {b} vs {a} do not sum to 100")

    reported = summary["aggregate"]
    avg = {}
    for a in names:
        row = [listed.get((a, b), float("nan")) for b in names if b != a]
        avg[a] = math.fsum(row) / len(row)
        if not _close(reported.get("avg_wins", {}).get(a), avg[a]):
            problems.append(f"summary avg_wins[{a}] is "
                            f"{reported.get('avg_wins', {}).get(a)!r}, "
                            f"off-diagonal row mean {avg[a]!r}")
        for b in names:
            if not _close(reported.get("wins", {}).get(a, {}).get(b), wins[a, b]):
                problems.append(f"summary wins {a} vs {b} differs from recomputed")

    rows = _read_text_table(os.path.join(out_dir, "table2.txt"))
    for a in names:
        cells = rows.get(_T2_LABELS[a])
        if cells is None or len(cells) != len(names) + 1:
            problems.append(f"table2.txt: row for {_T2_LABELS[a]} is {cells}")
            continue
        for b, cell in zip(names, cells):
            won, lost = (float(x) for x in cell.split(":"))
            if abs(won - wins[a, b]) > 0.5 or abs(lost - (100.0 - wins[a, b])) > 0.5:
                problems.append(f"table2.txt: {_T2_LABELS[a]} vs {_T2_LABELS[b]} "
                                f"reads {cell}, recomputed {wins[a, b]:g}")
        if abs(_parse_pct(cells[-1]) - avg[a]) > 0.05 + 1e-9:
            problems.append(f"table2.txt: {_T2_LABELS[a]} average {cells[-1]}, "
                            f"recomputed {avg[a]:.3f}")
    return problems


# ---------------------------------------------------------------------------
# repeats


def compare_bundles(dirs):
    """Problems where a repeat's bundle differs from the first one's bytes."""
    def read(d):
        return {n: open(os.path.join(d, n), "rb").read() for n in sorted(os.listdir(d))}

    first = read(dirs[0])
    problems = []
    for d in dirs[1:]:
        other = read(d)
        if sorted(other) != sorted(first):
            problems.append(f"{d} holds files {sorted(other)}, first repeat "
                            f"{sorted(first)}")
            continue
        changed = [n for n in first if first[n] != other[n]]
        if changed:
            problems.append(f"{d} differs from the first repeat in {changed}")
    return problems
