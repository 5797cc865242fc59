import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletrade import stable_core
from stabletrade.errors import InsufficientDataError, ParamError
from stabletrade.stable_core import (
    PdfTable,
    StableParams,
    cdf,
    char_fn,
    estimate_ecf,
    pdf,
    sample,
    tail_order_check,
    tail_prob,
)

# ---------------------------------------------------------------- parameters


def test_param_domain():
    StableParams(1.5, 0.5, 1.0, 0.0)
    StableParams(2.0, -1.0, 0.1, -3.0)
    with pytest.raises(ParamError):
        StableParams(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ParamError):
        StableParams(2.1, 0.0, 1.0, 0.0)
    with pytest.raises(ParamError):
        StableParams(1.5, 1.2, 1.0, 0.0)
    with pytest.raises(ParamError):
        StableParams(1.5, 0.0, 0.0, 0.0)
    with pytest.raises(ParamError):
        StableParams(1.5, 0.0, 1.0, np.inf)


def test_mean_gaussian_endpoint_exact():
    # tan(pi) in floats is not 0, the endpoint must be special-cased
    assert StableParams(2.0, 0.7, 1.3, 4.25).mean() == 4.25
    assert StableParams(2.0, -1.0, 2.0, -1.5).mean() == -1.5


def test_mean_symmetric():
    assert StableParams(1.5, 0.0, 2.0, 7.0).mean() == 7.0


def test_mean_skewed_value():
    p = StableParams(1.5, 0.5, 1.0, 0.0)
    # tan(3 pi / 4) = -1
    assert p.mean() == pytest.approx(0.5, abs=1e-12)


# ------------------------------------------------------------------- char_fn


def test_char_fn_at_zero():
    p = StableParams(1.7, -0.4, 2.0, 1.0)
    assert char_fn(p, 0.0) == pytest.approx(1.0 + 0.0j)


def test_char_fn_unit_frequency_closed_form():
    # at sigma |u| = 1 the skew term vanishes and the value is exp(-1)
    p = StableParams(1.5, 0.5, 1.0, 0.0)
    assert char_fn(p, 1.0) == pytest.approx(np.exp(-1.0) + 0.0j, abs=1e-12)


def test_char_fn_gaussian_case():
    p = StableParams(2.0, 0.0, 1.0, 0.0)
    for u in (0.3, 1.0, 2.5):
        assert char_fn(p, u) == pytest.approx(np.exp(-u * u), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(1.05, 2.0),
    beta=st.floats(-1.0, 1.0),
    sigma=st.floats(0.1, 5.0),
    delta=st.floats(-10.0, 10.0),
    u=st.floats(1e-6, 20.0),
)
def test_char_fn_conjugate_symmetry_and_modulus(alpha, beta, sigma, delta, u):
    p = StableParams(alpha, beta, sigma, delta)
    lo, hi = char_fn(p, -u), char_fn(p, u)
    assert lo == pytest.approx(np.conj(hi), rel=1e-10, abs=1e-12)
    assert abs(hi) <= 1.0 + 1e-12


def test_char_fn_modulus_vs_million_draws():
    p = StableParams(1.5, 0.5, 1.0, 0.0)
    rng = np.random.default_rng(101)
    x = sample(p, 10 ** 6, rng)
    for u in (0.25, 0.5, 1.0, 2.0):
        emp = np.exp(1j * u * x).mean()
        assert abs(abs(emp) - abs(char_fn(p, u))) < 0.01


# -------------------------------------------------------------------- sample


def test_sample_gaussian_variance():
    p = StableParams(2.0, 0.0, 1.0, 0.0)
    x = sample(p, 10 ** 5, np.random.default_rng(7))
    assert np.var(x) == pytest.approx(2.0, rel=0.02)


def test_sample_symmetric_median():
    p = StableParams(1.5, 0.0, 1.0, 3.0)
    x = sample(p, 10 ** 5, np.random.default_rng(8))
    assert abs(np.median(x) - 3.0) < 0.05


def test_sample_ecf_agreement():
    p = StableParams(1.3, 0.8, 2.0, 0.0)
    x = sample(p, 10 ** 5, np.random.default_rng(9))
    for u in (0.1, 0.5, 1.0):
        emp = np.exp(1j * u * x).mean()
        assert abs(abs(emp) - abs(char_fn(p, u))) < 0.02


def test_sample_mean_matches_mean():
    p = StableParams(1.7, 0.6, 1.0, 2.0)
    x = sample(p, 10 ** 6, np.random.default_rng(10))
    assert np.mean(x) == pytest.approx(p.mean(), abs=0.05)


def test_sample_determinism():
    p = StableParams(1.4, -0.3, 0.7, 1.0)
    a = sample(p, 1000, np.random.default_rng(123))
    b = sample(p, 1000, np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)


def test_sample_empirical_cf_grid_invariant():
    # ten-frequency agreement in modulus, the calibration bar for the sampler
    for seed, p in [
        (21, StableParams(1.5, 0.5, 1.0, 0.0)),
        (22, StableParams(1.9, -0.8, 0.5, -2.0)),
        (23, StableParams(2.0, 0.0, 1.5, 3.0)),
    ]:
        x = sample(p, 10 ** 5, np.random.default_rng(seed))
        u = np.linspace(0.1, 1.0, 10) / p.sigma
        emp = np.exp(1j * u[:, None] * x[None, :]).mean(axis=1)
        assert np.max(np.abs(np.abs(emp) - np.abs(char_fn(p, u)))) < 0.03


# ----------------------------------------------------------------------- pdf


def test_pdf_gaussian_peak():
    p = StableParams(2.0, 0.0, 1.0, 0.0)
    assert pdf(p, 0.0) == pytest.approx(1.0 / np.sqrt(4.0 * np.pi), abs=1e-6)


def test_pdf_symmetric_about_delta():
    p = StableParams(1.5, 0.0, 1.0, 2.0)
    for off in (0.3, 0.7, 1.9, 4.0):
        assert pdf(p, 2.0 + off) == pytest.approx(pdf(p, 2.0 - off), abs=1e-9)


def test_pdf_matches_kde_of_samples():
    # oracle: Gaussian-kernel density of 1e6 draws, IQR bandwidth
    p = StableParams(1.5, 0.5, 1.0, 0.0)
    x = sample(p, 10 ** 6, np.random.default_rng(42))
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    h = 0.4 * iqr / 1.34 * x.size ** -0.2
    kde = np.mean(np.exp(-0.5 * ((1.0 - x) / h) ** 2)) / (h * np.sqrt(2.0 * np.pi))
    assert pdf(p, 1.0) == pytest.approx(kde, abs=0.005)


def test_pdf_integrates_to_one():
    p = StableParams(1.7, 0.3, 1.0, 0.0)
    xs = np.linspace(-50.0, 50.0, 2001)
    vals = pdf(p, xs, tol=1e-7)
    assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-3)


def test_pdf_deep_tail_warns_and_returns_zero():
    p = StableParams(1.5, 0.0, 1.0, 0.0)
    with pytest.warns(RuntimeWarning):
        assert pdf(p, 1e8) == 0.0


def test_pdf_nonnegative_spot_checks():
    p = StableParams(1.8, 0.8, 1.0, 0.0)
    assert np.all(pdf(p, np.linspace(-30, 30, 61)) >= 0.0)


# ---------------------------------------------------------------- cdf / tail


def test_cdf_against_pdf_integral():
    p = StableParams(1.8, 0.0, 1.0, 2.0)
    xs = np.linspace(-40.0, 1.0, 1200)
    approx = np.trapezoid(pdf(p, xs, tol=1e-8), xs)
    assert cdf(p, 1.0) == pytest.approx(approx, abs=1e-3)


def test_tail_prob_empirical():
    p = StableParams(1.8, 0.0, 1.0, 2.0)
    x = sample(p, 10 ** 6, np.random.default_rng(3))
    assert tail_prob(p, 1.0) == pytest.approx(np.mean(x > 1.0), abs=2e-3)


def test_cdf_monotone():
    p = StableParams(1.4, 0.6, 1.0, 0.0)
    xs = np.linspace(-6, 6, 25)
    vals = cdf(p, xs)
    assert np.all(np.diff(vals) >= -1e-12)


# -------------------------------------------------------------------- tables


def test_pdf_table_matches_quadrature():
    t = PdfTable(1.5, 0.5, 1.0)
    p = StableParams(1.5, 0.5, 1.0, 0.0)
    m = p.mean()
    for x in (-2.0, 0.0, 0.5, 1.0, 5.0, 30.0):
        assert t.density(x - m) == pytest.approx(pdf(p, x), abs=2e-5)


def test_pdf_table_location_shift():
    t = PdfTable(1.6, -0.4, 2.0)
    p = StableParams(1.6, -0.4, 2.0, 3.0)
    assert t.density(4.0 - p.mean()) == pytest.approx(pdf(p, 4.0), abs=2e-5)


def test_pdf_table_tail_extension():
    t = PdfTable(1.5, 0.0, 1.0, span=40.0, n=2 ** 12)
    far = t.density(np.array([25.0, 60.0, 200.0, 1000.0]))
    assert np.all(far > 0.0)
    assert np.all(np.diff(far) < 0.0)
    # slope in log-log is the stable tail order -(alpha + 1)
    slope = (np.log(far[2]) - np.log(far[1])) / (np.log(200.0) - np.log(60.0))
    assert slope == pytest.approx(-2.5, abs=0.05)


def test_pdf_table_logpdf_floor():
    t = PdfTable(2.0, 0.0, 1.0, span=40.0, n=2 ** 12)
    assert np.isfinite(t.logpdf(1e6))


def _two_pass_density(t, x):
    """PdfTable.density with one scan and one replacement pass per tail: the
    reference the single tail pass must match bit for bit."""
    z = np.asarray(x, dtype=float)
    out = np.interp(z, t.grid_x, t.grid_p)
    far_hi = z > t.edge
    far_lo = z < -t.edge
    if np.any(far_hi):
        ratio = np.where(far_hi, z / t.edge, 1.0)
        out = np.where(far_hi, t.edge_hi * ratio ** -(t.alpha + 1.0), out)
    if np.any(far_lo):
        ratio = np.where(far_lo, -z / t.edge, 1.0)
        out = np.where(far_lo, t.edge_lo * ratio ** -(t.alpha + 1.0), out)
    return out


@pytest.mark.parametrize("alpha, beta, sigma", [(1.5, 0.6, 1.0), (1.8, -0.9, 0.3),
                                                (2.0, 0.0, 2.0)])
def test_pdf_table_density_matches_two_pass_tails_bit_for_bit(alpha, beta, sigma):
    t = PdfTable(alpha, beta, sigma)
    e = t.edge
    at_edge = [e, -e, np.nextafter(e, 0.0), np.nextafter(-e, 0.0),
               np.nextafter(e, np.inf), np.nextafter(-e, -np.inf)]
    far = np.geomspace(1.01 * e, 1e6 * e, 40)
    x = np.concatenate([np.linspace(-0.99 * e, 0.99 * e, 4001), at_edge, far, -far])
    x = np.random.default_rng(0).permutation(x)
    for loc in (0.0, 0.37 * sigma, -2.5 * e):
        z = x - loc
        np.testing.assert_array_equal(t.density(z), _two_pass_density(t, z))
        np.testing.assert_array_equal(t.logpdf(z), np.log(np.maximum(_two_pass_density(t, z),
                                                                     1e-300)))
    for v in [0.5 * e, 3.0 * e, -3.0 * e] + at_edge:
        new, old = t.density(v), _two_pass_density(t, v)
        assert np.ndim(new) == np.ndim(old) == 0
        assert new == old


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


_RANDOM_TABLES = [pytest.param(*v, id=f"random-{i}") for i, v in enumerate(
    np.random.default_rng(3).uniform([1.01, -1.0, 0.05], [2.0, 1.0, 5.0], size=(8, 3)))]


@pytest.mark.parametrize("alpha, beta, sigma", [
    (1.05, 0.7, 1.0), (1.3, -0.4, 0.2), (1.8, 0.9, 3.0), (2.0, 0.0, 1.0)] + _RANDOM_TABLES)
def test_pdf_table_skipping_underflowed_cf_changes_no_bit(monkeypatch, alpha, beta, sigma):
    """The build computes the CF only below its underflow; every table array
    must equal the one from the CF computed at every frequency, zero signs
    included."""
    t = PdfTable(alpha, beta, sigma)
    monkeypatch.setattr(stable_core, "_CF_UNDERFLOW", np.inf)
    full = PdfTable(alpha, beta, sigma)
    assert vars(t).keys() == vars(full).keys()
    for key, value in vars(full).items():
        assert _same_bits(getattr(t, key), value), key
    assert _same_bits(t.grid_x, full.grid_x)


@pytest.mark.parametrize("alpha, beta, sigma, grid", [
    (1.5, 0.6, 1.0, {}), (1.8, -0.9, 0.3, {}), (2.0, 0.0, 2.0, {}),
    (1.5, 0.0, 1.0, {"span": 40.0, "n": 2 ** 12})])
def test_pdf_table_lookup_matches_np_interp_bit_for_bit(alpha, beta, sigma, grid):
    """density and logpdf against np.interp on the whole FFT grid plus the
    two-pass tails, through both lookups: the computed knot index (large
    calls) and np.interp on the inner knots (calls below the crossover)."""
    t = PdfTable(alpha, beta, sigma, **grid)
    gx, e = t.grid_x, t.edge
    x = np.concatenate([
        gx, np.nextafter(gx, np.inf), np.nextafter(gx, -np.inf),   # every knot
        0.5 * (gx[1:] + gx[:-1]),                                  # midpoints
        [gx[-1], e, -e, np.nextafter(e, 0.0), np.nextafter(-e, 0.0),
         np.nextafter(e, np.inf), np.nextafter(-e, -np.inf), 1e300, -1e300],
    ])
    small = stable_core._DIRECT_MIN_POINTS - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for loc in (0.0, 0.37 * sigma, -2.5 * e):
            z = x - loc
            ref = _two_pass_density(t, z)
            log_ref = np.log(np.maximum(ref, 1e-300))
            np.testing.assert_array_equal(t.density(z), ref)
            np.testing.assert_array_equal(t.logpdf(z), log_ref)
            for i in range(0, z.size, small):
                np.testing.assert_array_equal(t.density(z[i:i + small]), ref[i:i + small])
                np.testing.assert_array_equal(t.logpdf(z[i:i + small]), log_ref[i:i + small])
        # NaN stays NaN and +-inf takes the tail, on both lookups and at 0-d
        odd = np.array([np.nan, np.inf, -np.inf, 0.0])
        for v in (odd, np.tile(odd, small), *odd, *(np.asarray(v) for v in odd)):
            new, old = t.density(v), _two_pass_density(t, v)
            assert type(new) is type(old) and np.shape(new) == np.shape(old)
            np.testing.assert_array_equal(new, old)
            log_new = t.logpdf(v)
            log_old = np.log(np.maximum(old, 1e-300))
            assert type(log_new) is type(log_old) and np.shape(log_new) == np.shape(log_old)
            np.testing.assert_array_equal(log_new, log_old)
        for v in (0.5 * e, 3.0 * e, -3.0 * e, e, -e):
            for arg in (v, np.asarray(v)):
                new, old = t.density(arg), _two_pass_density(t, arg)
                assert type(new) is type(old) and np.shape(new) == ()
                assert new == old
                assert type(t.logpdf(arg)) is np.float64


# ------------------------------------------------------------------ estimate


def test_estimate_ecf_gaussian_endpoint():
    p = StableParams(2.0, 0.0, 1.0, 5.0)
    x = sample(p, 10 ** 4, np.random.default_rng(2024))
    est = estimate_ecf(x)
    assert not est.degenerate
    assert est.params.alpha >= 1.9
    assert est.params.delta == pytest.approx(5.0, abs=0.1)


def test_estimate_ecf_asymmetric():
    p = StableParams(1.6, -0.7, 2.0, 1.0)
    x = sample(p, 10 ** 4, np.random.default_rng(31))
    est = estimate_ecf(x).params
    assert est.alpha == pytest.approx(1.6, abs=0.1)
    assert est.beta == pytest.approx(-0.7, abs=0.25)
    assert est.sigma == pytest.approx(2.0, rel=0.10)
    assert est.delta == pytest.approx(1.0, abs=0.25)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_estimate_ecf_self_consistency(seed):
    p = StableParams(1.5, 0.5, 1.0, 0.0)
    x = sample(p, 10 ** 5, np.random.default_rng(seed))
    est = estimate_ecf(x).params
    assert est.alpha == pytest.approx(1.5, abs=0.05)
    assert est.beta == pytest.approx(0.5, abs=0.05)
    assert est.sigma == pytest.approx(1.0, abs=0.05)
    assert est.delta == pytest.approx(0.0, abs=0.05)


def test_estimate_ecf_degenerate_constant():
    est = estimate_ecf(np.full(100, 3.25))
    assert est.degenerate
    assert est.params.alpha == 2.0
    assert est.params.delta == 3.25


@pytest.mark.parametrize("n_freq", [0, 1, -3])
def test_estimate_ecf_rejects_short_frequency_grid(n_freq):
    x = np.random.default_rng(0).standard_t(3, size=500)
    with pytest.raises(ParamError, match="n_freq"):
        estimate_ecf(x, n_freq=n_freq)


def test_estimate_ecf_insufficient():
    with pytest.raises(InsufficientDataError):
        estimate_ecf(np.zeros(49))


# ----------------------------------------------------------------------- tail


def test_tail_check_heavy():
    p = StableParams(1.3, 0.0, 1.0, 0.0)
    x = sample(p, 10 ** 5, np.random.default_rng(55))
    chk = tail_order_check(x, 1.3)
    assert 1.0 <= chk.tail_exponent <= 1.6
    assert not chk.wide_confidence


def test_tail_check_gaussian_reads_thin():
    x = np.random.default_rng(56).normal(size=10 ** 5)
    chk = tail_order_check(x, 2.0)
    assert chk.tail_exponent >= 1.7


def test_tail_check_small_sample_flag():
    p = StableParams(1.5, 0.0, 1.0, 0.0)
    x = sample(p, 100, np.random.default_rng(57))
    assert tail_order_check(x, 1.5).wide_confidence


def test_tail_check_too_few():
    with pytest.raises(InsufficientDataError):
        tail_order_check(np.ones(5), 1.5)
