"""Acceptance gate: twelve go/no-go checks, one test per criterion.

Each test runs the matching check from the verify registry (the CLI's
``verify`` command runs the same functions), prints a single PASS/FAIL line
with the measured numbers, and enforces the runtime budget where one applies.
"""

from stabletrade import cli


def _gate(number, title, check, budget=None):
    res = check()
    status = "PASS" if res.passed else "FAIL"
    line = f"{status} criterion {number}: {title} [{res.seconds:.1f}s] {res.detail}"
    print(line)
    assert res.passed, line
    if budget is not None:
        assert res.seconds < budget, \
            f"criterion {number} overran its {budget}s budget: {res.seconds:.1f}s"


def test_criterion_01_sampler_matches_closed_form_cf():
    _gate(1, "stable sampler vs closed-form characteristic function",
          cli.check_cf_fidelity, budget=30)


def test_criterion_02_ecf_parameter_recovery():
    _gate(2, "stable parameter recovery from the empirical cf",
          cli.check_ecf_accuracy, budget=60)


def test_criterion_03_mh_chain_matches_grid_posterior():
    _gate(3, "agents' location step vs 101-point grid posterior",
          cli.check_posterior_oracle, budget=60)


def test_criterion_04_contextual_regret_sublinear_and_beats_uniform():
    _gate(4, "contextual agents flatten and beat uniform",
          cli.check_regret_sublinearity, budget=600)


def test_criterion_05_zero_coupling_replays_parents_exactly():
    _gate(5, "one-user scts and sacts replay cts and acts",
          cli.check_degeneracy_equivalence)


def test_criterion_06_mdp_toy_policy_and_exact_values():
    _gate(6, "stage learner recovers the toy optimum with exact values",
          cli.check_mdp_toy_optimality)


def test_criterion_07_network_gradients_match_finite_differences():
    _gate(7, "backprop vs finite differences on deployed networks",
          cli.check_gradient_integrity)


def test_criterion_08_ddpg_reaches_near_omniscient_profit():
    _gate(8, "actor-critic near-omniscient on the alternating toy",
          cli.check_ddpg_learnability, budget=600)


def test_criterion_09_floor_never_breached_and_drawdown_ordered():
    _gate(9, "floor holds on bounded-loss markets, supervised MaxD no worse",
          cli.check_cppi_floor)


def test_criterion_10_accounting_identity_conserved():
    _gate(10, "reward ledger reproduces the recomputed asset",
          cli.check_accounting_conservation)


def test_criterion_11_reruns_are_byte_identical():
    _gate(11, "identical seeds give identical output bytes",
          cli.check_trace_reproducibility)


def test_criterion_12_table_artifacts_match_published_shapes():
    _gate(12, "tournament and backtest tables keep their shapes",
          cli.check_artifact_formats)
