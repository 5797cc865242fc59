"""Alpha-stable distributions: closed-form CF, CMS sampling, numerical density,
empirical-CF parameter estimation and a Hill-type tail diagnostic.

Parameter domain is restricted to the finite-mean regime alpha in (1, 2].
Conventions:

  * char_fn evaluates the closed-form characteristic function
        exp(-sigma^a |u|^a (1 + i b sign(u)(|sigma u|^(1-a) - 1)) + i u delta)
    exactly as written (expanded algebraically so u -> 0 is regular).
  * sample draws via Chambers-Mallows-Stuck in the standard S1 form, scaled and
    located so that the sample mean equals mean() = delta - b sigma tan(pi a / 2).
  * pdf/cdf invert the characteristic function of the sampling distribution, so
    pdf is exactly the density of what sample() produces. The closed form above
    and the sampling form share the same modulus exp(-sigma^a |u|^a); they differ
    only in the phase of the skew term.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParamError

_LN_INV_CF_FLOOR = np.log(1e12)   # |CF| at the integration cutoff is 1e-12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_MAX_PANELS = 16384
_SIGMA_FLOOR = 1e-12
_ECF_MIN_SAMPLES = 50    # estimate_ecf refuses fewer samples
# exp(-x) rounds to exactly 0 from x = 745.2 on; PdfTable leaves the CF
# entries with (sigma u)^alpha past this at zero instead of computing them
_CF_UNDERFLOW = 746.0
# PdfTable.density: point count from which the computed knot index beats
# np.interp's search, and the index estimate's downward bias in knot widths
_DIRECT_MIN_POINTS = 600
_KNOT_BIAS = 2.0 ** -20


def _tan_half(alpha):
    # tan(pi alpha / 2); exactly zero at the Gaussian endpoint
    if alpha == 2.0:
        return 0.0
    return float(np.tan(np.pi * alpha / 2.0))


@dataclass(frozen=True)
class StableParams:
    """Stability alpha in (1, 2], skew beta in [-1, 1], scale sigma > 0, location delta."""

    alpha: float
    beta: float
    sigma: float
    delta: float

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise ParamError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ParamError(f"beta must lie in [-1, 1], got {self.beta}")
        if not (self.sigma > 0.0) or not np.isfinite(self.sigma):
            raise ParamError(f"sigma must be positive and finite, got {self.sigma}")
        if not np.isfinite(self.delta):
            raise ParamError(f"delta must be finite, got {self.delta}")

    def mean(self):
        return self.delta - self.beta * self.sigma * _tan_half(self.alpha)


def char_fn(params, u):
    """Closed-form CF at frequency u (scalar or array)."""
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    a = (params.sigma * au) ** params.alpha
    # sigma^a |u|^a * |sigma u|^(1-a) reduces to sigma |u|; the expanded form
    # avoids 0 * inf at u = 0 and overflow for tiny |u|
    psi = -a + 1j * params.beta * np.sign(u) * (a - params.sigma * au) + 1j * u * params.delta
    out = np.exp(psi)
    if out.ndim == 0:
        return complex(out)
    return out


def _sampling_cf(params, u):
    """CF of the sampling distribution: standard S1 skew term, location = mean()."""
    u = np.asarray(u, dtype=float)
    a = (params.sigma * np.abs(u)) ** params.alpha
    psi = -a * (1.0 - 1j * params.beta * np.sign(u) * _tan_half(params.alpha))
    return np.exp(psi + 1j * u * params.mean())


def _cms_standard(alpha, beta, n, rng):
    """Standard S1 draw (scale 1, location 0, zero mean for alpha > 1)."""
    v = (rng.uniform(size=n) - 0.5) * np.pi
    w = rng.exponential(size=n)
    if alpha == 2.0:
        return 2.0 * np.sqrt(w) * np.sin(v)
    zeta = beta * _tan_half(alpha)
    b0 = np.arctan(zeta) / alpha
    s0 = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
    return (
        s0
        * np.sin(alpha * (v + b0))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + b0)) / w) ** ((1.0 - alpha) / alpha)
    )


def sample(params, n, rng):
    """n draws; same rng state and parameters give identical sequences."""
    if n < 0:
        raise ParamError(f"n must be non-negative, got {n}")
    x = _cms_standard(params.alpha, params.beta, int(n), rng)
    return params.mean() + params.sigma * x


def _freq_cutoff(params):
    return _LN_INV_CF_FLOOR ** (1.0 / params.alpha) / params.sigma


def _panel_nodes(upper, n_panels):
    edges = np.linspace(0.0, upper, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return u, w


def _invert(params, x, kind, tol):
    """Adaptive Gauss-Legendre panels on [0, U] with |CF(U)| below 1e-12.

    kind 'pdf':  (1/pi) int Re[e^(-iux) phi(u)] du
    kind 'cdf':  1/2 - (1/pi) int Im[e^(-iux) phi(u)] / u du   (Gil-Pelaez)
    """
    upper = _freq_cutoff(params)
    rate = abs(x - params.mean()) + params.sigma
    n0 = int(np.ceil(upper * rate / np.pi))
    if n0 > _MAX_PANELS:
        warnings.warn(
            f"quadrature cannot resolve x={x!r} this deep in the tail; returning 0.0",
            RuntimeWarning,
        )
        return 0.0 if kind == "pdf" else (0.0 if x < params.mean() else 1.0)
    n_panels = int(np.clip(n0, 16, _MAX_PANELS))
    prev = None
    for _ in range(7):
        u, w = _panel_nodes(upper, n_panels)
        f = np.exp(-1j * u * x) * _sampling_cf(params, u)
        if kind == "pdf":
            val = float(np.sum(w * f.real)) / np.pi
        else:
            val = 0.5 - float(np.sum(w * f.imag / u)) / np.pi
        if prev is not None and abs(val - prev) < tol:
            break
        prev = val
        if n_panels >= _MAX_PANELS:
            break
        n_panels = min(2 * n_panels, _MAX_PANELS)
    if kind == "pdf":
        return max(val, 0.0)
    return float(np.clip(val, 0.0, 1.0))


def pdf(params, x, tol=1e-9):
    """Density at x (scalar or array) by numerical Fourier inversion."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _invert(params, float(xs), "pdf", tol)
    return np.array([_invert(params, float(v), "pdf", tol) for v in xs.ravel()]).reshape(xs.shape)


def cdf(params, x, tol=1e-9):
    """Distribution function by Gil-Pelaez inversion."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        return _invert(params, float(xs), "cdf", tol)
    return np.array([_invert(params, float(v), "cdf", tol) for v in xs.ravel()]).reshape(xs.shape)


def tail_prob(params, c, tol=1e-9):
    """P(X > c) for X distributed per params."""
    return 1.0 - cdf(params, c, tol=tol)


class PdfTable:
    """Density tabulated once per (alpha, beta, sigma) on an FFT grid, evaluated by
    linear interpolation with a power-law extension past half the grid span.

    Location enters only as a shift (the S1 location equals the mean for
    alpha > 1), so one table serves every delta. Built for likelihood loops that
    would otherwise pay a full quadrature per point.
    """

    def __init__(self, alpha, beta, sigma, span=200.0, n=2 ** 15):
        self.alpha = alpha
        self.beta = beta
        self.sigma = sigma
        ref = StableParams(alpha, beta, sigma, 0.0)
        shift = ref.mean()          # tabulate with the mean at zero
        half_width = span * sigma
        dx = 2.0 * half_width / n
        du = 2.0 * np.pi / (n * dx)
        u = np.arange(n // 2 + 1) * du
        x0 = -half_width
        # past the underflow the CF and so every entry is zero: skip them
        u = u[:np.searchsorted(u, _CF_UNDERFLOW ** (1.0 / alpha) / sigma)]
        phi = np.zeros(n // 2 + 1, dtype=complex)
        phi[:u.size] = np.conj(_sampling_cf(ref, u)) * np.exp(1j * u * (x0 + shift))
        dens = np.fft.irfft(phi, n=n).real / dx
        del u, phi
        self._x0, self._dx, self._n = x0, dx, n
        grid_x = self.grid_x
        self.grid_p = np.maximum(dens, 0.0)
        del dens
        # interpolate only on the inner half; beyond it FFT aliasing grows, so
        # extend with the stable tail order |z|^-(alpha+1) matched at the edge
        self.edge = 0.5 * half_width
        self.edge_lo = float(np.interp(-self.edge, grid_x, self.grid_p))
        self.edge_hi = float(np.interp(self.edge, grid_x, self.grid_p))
        # the knots that bracket the inner region, one extra on each side so
        # every |z| <= edge lies between two of them; np.interp on these knots
        # equals np.interp on the whole grid there
        inner = np.flatnonzero(np.abs(grid_x) <= self.edge)
        lo, hi = inner[0] - 1, inner[-1] + 2
        self._knot_x = grid_x[lo:hi].copy()
        self._knot_p = self.grid_p[lo:hi]
        del grid_x
        # np.interp's slope formula, once per table
        self._slopes = np.diff(self._knot_p) / np.diff(self._knot_x)
        self._inv_dx = 1.0 / dx
        self._t0 = self._knot_x[0] * self._inv_dx + _KNOT_BIAS
        # cumulative view over the inner region, tails integrated analytically
        self._inner_x = self._knot_x[1:-1]
        dens = self._knot_p[1:-1]
        seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(self._inner_x)
        mass_left = self.edge_lo * self.edge / self.alpha
        mass_right = self.edge_hi * self.edge / self.alpha
        cum = mass_left + np.concatenate([[0.0], np.cumsum(seg)])
        self._total_mass = cum[-1] + mass_right
        self._inner_cdf = cum / self._total_mass

    @property
    def grid_x(self):
        """The FFT grid's knots, rebuilt on demand; lookups never need them all."""
        return self._x0 + np.arange(self._n) * self._dx

    def _interp_direct(self, z):
        """np.interp(z, grid_x, grid_p) for |z| <= edge, bit for bit, with the
        knot index computed from the uniform spacing instead of searched.

        The biased estimate is the knot at or one below z; one comparison with
        the next knot settles it. z is clamped to the knots first, so points
        past them get a finite value for the caller to replace, and NaN stays
        NaN without a warning.
        """
        kx = self._knot_x
        zc = np.maximum(z, kx[0])
        np.minimum(zc, kx[-1], out=zc)
        t = zc * self._inv_dx
        t -= self._t0
        np.fmax(t, 0.0, out=t)       # NaN to 0, so the cast stays quiet
        k = t.astype(np.intp)
        k = k + (kx[1:].take(k) <= zc)
        out = kx.take(k)
        np.subtract(zc, out, out=out)
        out *= self._slopes.take(k, mode="clip")
        out += self._knot_p.take(k)
        return out

    def density(self, x):
        z = np.asarray(x, dtype=float)
        if z.size < _DIRECT_MIN_POINTS:
            # below the crossover np.interp's per-call cost is lower
            out = np.interp(z, self._knot_x, self._knot_p)
        else:
            out = self._interp_direct(z)
        far = np.abs(z) > self.edge
        if far.any():
            # both tails in one pass over the far points only; the side's edge
            # density follows the sign of z, and |z| equals -z on the low side
            zf = z[far]
            edge_p = np.where(zf > 0.0, self.edge_hi, self.edge_lo)
            out = np.asarray(out)    # np.interp gives a scalar for 0-d z
            out[far] = edge_p * (np.abs(zf) / self.edge) ** -(self.alpha + 1.0)
        return out

    def logpdf(self, x):
        d = self.density(x)
        if d.ndim == 0:             # a numpy scalar or a 0-d array
            return np.log(np.maximum(d, 1e-300))
        np.maximum(d, 1e-300, out=d)
        return np.log(d, out=d)

    def tail_beyond(self, c, mean_loc=0.0):
        """P(X > c) from the tabulated cumulative, analytic in the extensions."""
        z = float(c) - mean_loc
        if z > self.edge:
            mass = self.edge_hi * self.edge / self.alpha * (z / self.edge) ** -self.alpha
            return float(mass / self._total_mass)
        if z < -self.edge:
            mass = self.edge_lo * self.edge / self.alpha * (-z / self.edge) ** -self.alpha
            return float(1.0 - mass / self._total_mass)
        return float(1.0 - np.interp(z, self._inner_x, self._inner_cdf))


@dataclass(frozen=True)
class EcfEstimate:
    params: StableParams
    degenerate: bool = False


def estimate_ecf(samples, n_freq=10):
    """Regression on the empirical characteristic function.

    Log-modulus regression recovers (alpha, sigma); the unwrapped phase regressed
    on [u, sigma^a tan(pi a/2) u^a] recovers the mean and beta, and delta follows
    from the mean relation. Frequency grid: n_freq >= 2 equispaced points in
    (0, 1/sigma0] with sigma0 an interquartile-range pre-estimate.
    """
    if n_freq < 2:
        raise ParamError(f"n_freq must be at least 2, got {n_freq}")
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < _ECF_MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {_ECF_MIN_SAMPLES} samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ParamError("samples must be finite")
    if np.ptp(x) == 0.0:
        return EcfEstimate(StableParams(2.0, 0.0, _SIGMA_FLOOR, float(x[0])), degenerate=True)

    q75, q25 = np.percentile(x, [75.0, 25.0])
    s0 = (q75 - q25) / 2.0
    if s0 <= 0.0:
        s0 = float(np.std(x))
    u = np.arange(1, n_freq + 1) / (n_freq * s0)
    ecf = np.exp(1j * u[:, None] * x[None, :]).mean(axis=1)

    mod = np.clip(np.abs(ecf), 1e-12, 1.0 - 1e-12)
    y = np.log(-np.log(mod))
    design = np.column_stack([np.log(u), np.ones_like(u)])
    slope, intercept = np.linalg.lstsq(design, y, rcond=None)[0]
    alpha = float(np.clip(slope, 1.05, 2.0))
    sigma = float(max(np.exp(intercept / alpha), _SIGMA_FLOOR))

    phase = np.unwrap(np.angle(ecf))
    tanterm = _tan_half(alpha)
    if abs(tanterm) < 1e-6:
        # skew is unidentifiable at the Gaussian endpoint
        beta = 0.0
        m = float(np.linalg.lstsq(u[:, None], phase, rcond=None)[0][0])
    else:
        design_p = np.column_stack([u, sigma ** alpha * tanterm * u ** alpha])
        m, bcoef = np.linalg.lstsq(design_p, phase, rcond=None)[0]
        beta = float(np.clip(bcoef, -1.0, 1.0))
        m = float(m)
    delta = m + beta * sigma * tanterm
    return EcfEstimate(StableParams(alpha, beta, sigma, delta), degenerate=False)


@dataclass(frozen=True)
class TailCheck:
    tail_exponent: float
    consistent: bool
    wide_confidence: bool


def tail_order_check(samples, alpha, top_frac=0.05, band=0.3):
    """Hill estimate on the top |samples| order statistics, compared to alpha.

    Diagnostic only. wide_confidence flags runs with fewer than 1e3 points, where
    the Hill estimator is noisy.
    """
    x = np.abs(np.asarray(samples, dtype=float).ravel())
    x = x[x > 0.0]
    if x.size < 20:
        raise InsufficientDataError(f"need at least 20 nonzero samples, got {x.size}")
    x = np.sort(x)[::-1]
    k = max(10, int(np.floor(x.size * top_frac)))
    k = min(k, x.size - 1)
    hill = 1.0 / float(np.mean(np.log(x[:k] / x[k])))
    return TailCheck(
        tail_exponent=hill,
        consistent=bool(abs(hill - alpha) <= band),
        wide_confidence=bool(x.size < 1000),
    )
