"""Acceptance gate: twelve go/no-go checks, one test per criterion.

Each test runs its criterion through ``acceptance.verify``, the runner that
``stabletrade verify`` uses, prints a single PASS/FAIL line with the measured
numbers, and enforces the runtime budget where one applies.
"""

from stabletrade import acceptance


def _gate(number, title, name, budget=None):
    res = acceptance.verify(name).checks[0]
    status = "PASS" if res.passed else "FAIL"
    line = f"{status} criterion {number}: {title} [{res.seconds:.1f}s] {res.detail}"
    print(line)
    assert res.passed, line
    if budget is not None:
        assert res.seconds < budget, \
            f"criterion {number} overran its {budget}s budget: {res.seconds:.1f}s"


def test_criterion_01_sampler_matches_closed_form_cf():
    _gate(1, "stable sampler vs closed-form characteristic function",
          "cf-fidelity", budget=30)


def test_criterion_02_ecf_parameter_recovery():
    _gate(2, "stable parameter recovery from the empirical cf",
          "ecf-accuracy", budget=60)


def test_criterion_03_mh_chain_matches_grid_posterior():
    _gate(3, "agents' location step vs 101-point grid posterior",
          "posterior-oracle", budget=60)


def test_criterion_04_contextual_regret_sublinear_and_beats_uniform():
    _gate(4, "contextual agents flatten and beat uniform",
          "regret-sublinearity", budget=600)


def test_criterion_05_zero_coupling_replays_parents_exactly():
    _gate(5, "one-user scts and sacts replay cts and acts",
          "degeneracy")


def test_criterion_06_mdp_toy_policy_and_exact_values():
    _gate(6, "stage learner recovers the toy optimum with exact values",
          "mdp-toy")


def test_criterion_07_network_gradients_match_finite_differences():
    _gate(7, "backprop vs finite differences on deployed networks",
          "gradients")


def test_criterion_08_ddpg_reaches_near_omniscient_profit():
    _gate(8, "actor-critic near-omniscient on the alternating toy",
          "ddpg-toy", budget=600)


def test_criterion_09_floor_never_breached_and_drawdown_ordered():
    _gate(9, "floor holds on bounded-loss markets, supervised MaxD no worse",
          "cppi-floor")


def test_criterion_10_accounting_identity_conserved():
    _gate(10, "reward ledger reproduces the recomputed asset",
          "accounting")


def test_criterion_11_reruns_are_byte_identical():
    _gate(11, "identical seeds give identical output bytes",
          "repro")


def test_criterion_12_table_artifacts_match_published_shapes():
    _gate(12, "tournament and backtest tables keep their shapes",
          "formats")
