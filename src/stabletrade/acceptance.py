"""The acceptance gate: twelve go/no-go checks of what the package claims.

``verify`` runs the built-in check suites (closed-form oracles, gradient
probes, floor guarantees, reproducibility) and returns a machine-readable
report; ``stabletrade verify`` prints it and the acceptance tests read it, so
both run every check the same way.  A check returns (passed, detail);
``verify`` is the one place that names a check from ``CRITERIA``, times it
and turns a crash into a failed result.
"""

import json
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .bandit_envs import EnvSpec, MdpTables, make_env, play, true_q
from .cli import ExperimentConfig, run
from .errors import ConfigError
from .market_sim import TradingEnv, synth_market
from .rl_agents import (BacktestConfig, TrainConfig, alternating_series, backtest_curve,
                        perfect_foresight_curve)
from .stable_core import StableParams, char_fn, estimate_ecf, sample
from .tinynet import Mlp, gradient_check
from .ts_agents import (ActsAgent, AgentConfig, CtsAgent, SactsAgent, SctsAgent,
                        belief_from_history, make_agent, mh_location_kernel)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass
class VerifyReport:
    suite: str
    checks: list
    passed: bool


def check_cf_fidelity():
    """Sampler vs closed-form characteristic function, modulus agreement."""
    settings = [(1.2, -0.8), (1.2, 0.0), (1.2, 0.8),
                (1.5, -0.8), (1.5, 0.8),
                (1.8, 0.0), (1.8, 0.8),
                (2.0, -0.8), (2.0, 0.0)]
    u = np.linspace(0.1, 2.0, 10)
    worst = 0.0
    for k, (a, b) in enumerate(settings):
        p = StableParams(a, b, 1.0, 0.0)
        x = sample(p, 100_000, np.random.default_rng(1000 + k))
        emp = np.exp(1j * u[:, None] * x[None, :]).mean(axis=1)
        gap = np.max(np.abs(np.abs(emp) - np.abs(char_fn(p, u))))
        worst = max(worst, float(gap))
    return worst <= 0.03, f"max |cf| gap {worst:.4f} over {len(settings)} settings, tol 0.03"


def check_ecf_accuracy():
    """Parameter recovery from the empirical characteristic function."""
    true = StableParams(1.5, 0.5, 1.0, 0.0)
    errs = np.empty((20, 4))
    for s in range(20):
        x = sample(true, 10_000, np.random.default_rng(2000 + s))
        q = estimate_ecf(x).params
        errs[s] = [abs(q.alpha - true.alpha), abs(q.beta - true.beta),
                   abs(q.sigma - true.sigma), abs(q.delta - true.delta)]
    mae = errs.mean(axis=0)
    return np.all(mae <= 0.1), ("MAE alpha {:.3f} beta {:.3f} sigma {:.3f} delta {:.3f}, "
                                "tol 0.1".format(*mae))


def check_posterior_oracle():
    """The agents' location step, run as a 60,000-step chain on a frozen
    history, vs a 101-point grid posterior."""
    rewards = sample(StableParams(1.5, 0.3, 1.0, 0.8), 200,
                     np.random.default_rng(7))
    belief = belief_from_history(rewards)
    chain = mh_location_kernel(belief, rewards, belief.prior_mu, 60_000, 0.1,
                               np.random.default_rng(8))
    kept = chain[10_000:]
    lo, hi = kept.min(), kept.max()
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, 101)
    logp = belief.log_posterior(rewards, grid)
    q = np.exp(logp - logp.max())
    q /= q.sum()
    h = grid[1] - grid[0]
    edges = np.concatenate([[grid[0] - h / 2], grid + h / 2])
    counts, _ = np.histogram(kept, bins=edges)
    p = counts / counts.sum()
    tv = 0.5 * np.sum(np.abs(p - q))
    return tv <= 0.1, f"total variation {tv:.3f} on a 101-point grid, tol 0.1"


def _check_run(tmp, name, raw, workers=1):
    """One check's experiment, run by the harness into tmp/name: its report
    and its summary's aggregate."""
    rep = run(ExperimentConfig.from_dict(
        {**raw, "name": name, "out_dir": os.path.join(tmp, name)}), workers=workers)
    with open(os.path.join(rep.out_dir, "summary.json")) as fh:
        return rep, json.load(fh)["aggregate"]


def _failed(failures):
    return False, f"failed cells: {'; '.join(failures)}"


def check_regret_sublinearity():
    """Contextual agents flatten and clearly beat the uniform reference."""
    with tempfile.TemporaryDirectory() as tmp:
        # mu is redrawn per seed and shared across agents; the gaussian agent
        # needs its posterior scale matched to the heavy-tail noise
        # dispersion here, the tighter lineage default locks in early
        rep, _ = _check_run(tmp, "regret", {
            "kind": "bayes-regret",
            "env": {"kind": "linear", "n_arms": 5, "dim": 10, "horizon": 2000},
            "agents": [{"algorithm": "cts", "v": 1.0}, {"algorithm": "acts"},
                       {"algorithm": "uniform"}],
            "seeds": list(range(20))})
        if rep.failures:
            return _failed(rep.failures)
        with open(os.path.join(rep.out_dir, "regret_mean.csv")) as fh:
            head, *rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    curves = dict(zip(head, np.array(rows, dtype=float).T))    # t, then each agent's mean
    ratios = {a: curves[a][-1] / curves[a][999] for a in ("cts", "acts")}
    edge = {a: 1.0 - curves[a][-1] / curves["uniform"][-1] for a in ("cts", "acts")}
    ok = (all(r < 1.8 for r in ratios.values())
          and all(e >= 0.40 for e in edge.values()))
    return ok, ("growth cts {:.2f} acts {:.2f} (tol 1.8); edge over uniform "
                "cts {:.0%} acts {:.0%} (need 40%)"
                .format(ratios["cts"], ratios["acts"], edge["cts"], edge["acts"]))


def check_degeneracy_equivalence():
    """The per-user variants, their parents' code at n_users = 1, replay
    them arm for arm at lam = 0: lam and user routing do nothing there."""
    spec = EnvSpec(kind="linear", n_arms=4, dim=6, horizon=100,
                   mu=np.linspace(0.0, 1.0, 6))
    e1, e2 = make_env(spec, 7), make_env(spec, 7)
    c1 = CtsAgent(4, 6, AgentConfig(algorithm="cts", v=0.25), seed=11)
    c2 = SctsAgent(4, 6, AgentConfig(algorithm="scts", v=0.25, lam=0.0),
                   seed=11, n_users=1)
    lin = play(e1, c1, 100).arms == play(e2, c2, 100).arms

    spec = EnvSpec(kind="plain", n_arms=3, horizon=100,
                   arm_means=[0.0, 0.4, 1.0])
    e1, e2 = make_env(spec, 9), make_env(spec, 9)
    a1 = ActsAgent(3, 1, AgentConfig(algorithm="acts"), seed=2)
    a2 = SactsAgent(3, 1, AgentConfig(algorithm="sacts", lam=0.0), seed=2,
                    n_users=1)
    pln = play(e1, a1, 100).arms == play(e2, a2, 100).arms
    return lin and pln, (f"100-round arm traces: one-user scts matches cts {lin}, "
                         f"one-user sacts matches acts {pln}")


def _toy_mdp():
    return MdpTables(
        n_states=2, n_actions=2, horizon=2,
        transitions=np.array([[0, 1], [0, 1]]),
        reward_means=np.array([[0.3, 0.1], [0.0, 1.0]]),
        start_states=[0])


def check_mdp_toy_optimality():
    """Stage learner recovers the enumeration-optimal policy on the 2x2x2 toy."""
    toy = _toy_mdp()
    target = true_q(toy).argmax(axis=2)
    noise = StableParams(1.8, 0.0, 0.3, 0.0)
    hits = 0
    for s in range(20):
        spec = EnvSpec(kind="adversarial_mdp", mdp=toy, noise=noise,
                       adversary="greedy")
        env = make_env(spec, seed=s)
        agent = make_agent(AgentConfig(algorithm="mdp_acts"), seed=s, mdp=toy)
        for _ in range(500):
            agent.run_episode(env)
        hits += bool(np.array_equal(agent.greedy_policy(), target))
    # noiseless rewards pin the value table exactly once every pair is visited
    env = make_env(EnvSpec(kind="adversarial_mdp", mdp=toy, noise=None), seed=0)
    agent = make_agent(AgentConfig(algorithm="mdp_acts"), seed=0, mdp=toy)
    for _ in range(60):
        agent.run_episode(env)
    exact = bool((agent.visits > 0).all()
                 and np.allclose(agent.point_q, true_q(toy), atol=1e-12))
    return hits >= 18 and exact, (f"optimal policy in {hits}/20 seeds (need 18); "
                                  f"exact value table after coverage: {exact}")


def check_gradient_integrity():
    """Finite differences vs backprop on every deployed network shape."""
    rng = np.random.default_rng(3)
    nets = [
        ("actor", Mlp([13, 64, 64, 2], out_act="tanh", seed=1), 13),
        ("critic", Mlp([15, 64, 64, 1], seed=2), 15),
        ("dqn", Mlp([9, 32, 3], seed=3), 9),
        ("probe", Mlp([3, 8, 1], out_act="tanh", seed=4), 3),
    ]
    worst_name, worst = "", 0.0
    for name, net, dim in nets:
        err = gradient_check(net, rng.normal(size=dim))
        if err > worst:
            worst_name, worst = name, float(err)
    return worst < 1e-4, f"worst relative error {worst:.2e} ({worst_name}), tol 1e-4"


def check_ddpg_learnability():
    """Actor-critic reaches near-omniscient profit on the alternating toy."""
    series = alternating_series(25)
    omn = perfect_foresight_curve(series)
    cfg = BacktestConfig(episodes=300, cost_bps=0.0, reward_scale=0.05, train=TrainConfig(
        lam_e=0.0, warmup_steps=64, noise_scale=0.3))
    wins = 0
    ratios = []
    for s in range(20):
        curve = backtest_curve("ddpg", series, series, s, cfg)
        ratio = (curve[-1] - curve[0]) / (omn[-1] - omn[0])
        ratios.append(float(ratio))
        wins += ratio >= 0.9
    return wins >= 16, (f"{wins}/20 seeds at >= 0.9x omniscient (need 16), "
                        f"median ratio {np.median(ratios):.2f}")


def check_cppi_floor():
    """The floor policy never breaches on bounded-loss markets, and its
    supervised trader draws down no more than the unsupervised one."""
    with tempfile.TemporaryDirectory() as tmp:
        # a floor of 0.8 * 100.0 = 80.0 exactly; k * max_loss = 0.6 <= 1
        floor, by_cadence = _check_run(tmp, "floor", {
            "kind": "execution",
            "env": {"d": 2, "days": 60, "drift": 0.0, "vol": 0.45, "max_loss": 0.3},
            "seeds": list(range(1000)),
            "params": {"initial_cash": 100.0, "cost_bps": 0.0, "floor": 0.8,
                       "multiplier": 2.0, "cadences": [1]}})
        drawdown, medians = _check_run(tmp, "drawdown", {
            "kind": "backtest",
            "env": {"d": 2, "days": 150, "vol": 0.35, "seed": 0, "alpha": 1.8,
                    "max_loss": 0.25},
            "agents": ["ddpg", "cppi_ddpg"],
            "seeds": list(range(20)),
            "params": {"backtest": {"episodes": 12}}})
        if floor.failures or drawdown.failures:
            return _failed(floor.failures + drawdown.failures)
    violations = by_cadence["c1"]["floor_breaches"]
    med_plain = medians["median"]["ddpg"]["max_drawdown"]
    med_floor = medians["median"]["cppi_ddpg"]["max_drawdown"]
    return violations == 0 and med_floor <= med_plain, (
        f"{violations}/1000 floor breaches (need 0); median MaxD "
        f"supervised {med_floor:.3f} vs plain {med_plain:.3f}")


def check_accounting_conservation():
    """Summed step rewards reproduce the recomputed asset to 1e-8."""
    worst = 0.0
    for s in range(1000):
        rng = np.random.default_rng(s)
        series = synth_market(2, 30, vol=0.4, seed=s, alpha=1.7)
        env = TradingEnv(series, initial_cash=1000.0, cost_bps=17.0)
        state = env.reset()
        ledger = state.total_asset
        while not env.done:
            action = rng.standard_t(3, size=2) * 5.0
            state, reward, _ = env.step(action)
            ledger += reward
            worst = max(worst, abs(ledger - state.total_asset))
    return worst <= 1e-8, (f"max |ledger - recomputed asset| {worst:.2e} over 1000 "
                           "random-action episodes, tol 1e-8")


def _read_all_bytes(d):
    return {name: open(os.path.join(d, name), "rb").read()
            for name in sorted(os.listdir(d))}


def check_trace_reproducibility():
    """Same config, same seeds, any worker count: identical output bytes."""
    probe = {
        "kind": "bandit-regret",
        "env": {"kind": "linear", "n_arms": 3, "dim": 3, "horizon": 200,
                "mu": [0.0, 0.5, 1.0]},
        "agents": [{"algorithm": "cts"}, {"algorithm": "uniform"}],
        "seeds": [0, 1],
        "params": {"rounds": 200},
    }
    with tempfile.TemporaryDirectory() as tmp:
        # each run in its own directory under one name, which the bundle records
        def bundle(run_dir, workers):
            rep, _ = _check_run(os.path.join(tmp, run_dir), "repro-probe", probe, workers)
            return _read_all_bytes(rep.out_dir)

        b1, b2, b3 = bundle("a", 1), bundle("b", 1), bundle("c", 2)
        serial = set(b1) == set(b2) and all(b1[k] == b2[k] for k in b1)
        parallel = set(b1) == set(b3) and all(b1[k] == b3[k] for k in b1)
        rerun_ok = True
        try:
            bundle("a", 1)    # same hash, no force needed
        except ConfigError:
            rerun_ok = False
    return serial and parallel and rerun_ok, (f"byte-identical across runs: serial {serial}, "
                                              f"2 workers {parallel}, in-place rerun {rerun_ok}")


def _check_table2_text(text, problems):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    labels = ["QL", "DQL", "SARSA", "CB-TS", "AC-TS"]
    if len(lines) != 6:
        problems.append(f"table2 has {len(lines)} lines, want header + 5 rows")
        return
    head = lines[0].split()
    if head != labels + ["Avg", "Wins"]:
        problems.append(f"table2 header {head}")
    for line, lab in zip(lines[1:], labels):
        cells = line.split()
        if cells[0] != lab:
            problems.append(f"table2 row label {cells[0]!r}, want {lab!r}")
        if len(cells) != 7 or not all(":" in c for c in cells[1:6]):
            problems.append(f"table2 row {lab} cells {cells[1:]}")
        if not cells[6].endswith("%"):
            problems.append(f"table2 row {lab} avg {cells[6]!r} lacks %")


def _check_table3_text(text, problems):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    labels = ["UP", "DQN", "DDPG", "CPPI-DDPG", "AD-TS"]
    if len(lines) != 6:
        problems.append(f"table3 has {len(lines)} lines, want header + 5 rows")
        return
    if lines[0].split() != ["AR", "SR", "MaxD"]:
        problems.append(f"table3 header {lines[0].split()}")
    for line, lab in zip(lines[1:], labels):
        cells = line.split()
        if cells[0] != lab:
            problems.append(f"table3 row label {cells[0]!r}, want {lab!r}")
        if len(cells) != 4:
            problems.append(f"table3 row {lab} has {len(cells) - 1} cells")
            continue
        for c in cells[1:]:
            if not (c.endswith("%") or c == "n/a"):
                problems.append(f"table3 cell {c!r} in row {lab}")


def check_artifact_formats():
    """Desk-scale runs emit the pairwise-wins and AR/SR/MaxD table shapes."""
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        rep, _ = _check_run(tmp, "fmt-t2", {
            "kind": "tournament", "seeds": [0, 1],
            "params": {"days": 60, "episodes": 6}})
        if rep.failures:
            problems.append(f"tournament cells failed: {rep.failures}")
        else:
            with open(os.path.join(rep.out_dir, "table2.txt")) as fh:
                _check_table2_text(fh.read(), problems)

        rep, _ = _check_run(tmp, "fmt-t3", {
            "kind": "backtest", "seeds": [0, 1],
            "env": {"d": 2, "days": 120, "vol": 0.3, "seed": 3, "max_loss": 0.2},
            "params": {"backtest": {"episodes": 4}}})
        if rep.failures:
            problems.append(f"backtest cells failed: {rep.failures}")
        else:
            with open(os.path.join(rep.out_dir, "table3.txt")) as fh:
                _check_table3_text(fh.read(), problems)
    return not problems, ("; ".join(problems) if problems else
                          "table2 and table3 artifacts match the published shapes")


CRITERIA = (
    ("cf-fidelity", check_cf_fidelity),
    ("ecf-accuracy", check_ecf_accuracy),
    ("posterior-oracle", check_posterior_oracle),
    ("regret-sublinearity", check_regret_sublinearity),
    ("degeneracy", check_degeneracy_equivalence),
    ("mdp-toy", check_mdp_toy_optimality),
    ("gradients", check_gradient_integrity),
    ("ddpg-toy", check_ddpg_learnability),
    ("cppi-floor", check_cppi_floor),
    ("accounting", check_accounting_conservation),
    ("repro", check_trace_reproducibility),
    ("formats", check_artifact_formats),
)

SUITES = {
    "stable": ("cf-fidelity", "ecf-accuracy"),
    "posterior": ("posterior-oracle",),
    "bandits": ("regret-sublinearity", "degeneracy", "mdp-toy"),
    "gradients": ("gradients",),
    "ddpg": ("ddpg-toy",),
    "market": ("cppi-floor", "accounting"),
    "harness": ("repro", "formats"),
    "all": tuple(name for name, _ in CRITERIA),
}
SUITES.update({name: (name,) for name, _ in CRITERIA})


def verify(suite):
    """Run one named check suite; failures are report content, not raises.
    Each check is named from CRITERIA and timed here, and a check that
    raises is a failed check whose detail names the exception."""
    if suite not in SUITES:
        known = sorted(k for k in SUITES if k not in dict(CRITERIA))
        raise ConfigError(f"unknown verify suite {suite!r}; suites: {known}, "
                          "or any single check name")
    table = dict(CRITERIA)
    checks = []
    for name in SUITES[suite]:
        t0 = time.perf_counter()
        try:
            passed, detail = table[name]()
        except Exception as exc:    # a crashed check is a failed check
            passed, detail = False, f"crashed: {type(exc).__name__}: {exc}"
        checks.append(CheckResult(name=name, passed=bool(passed), detail=detail,
                                  seconds=time.perf_counter() - t0))
    return VerifyReport(suite=suite, checks=checks,
                        passed=all(c.passed for c in checks))
