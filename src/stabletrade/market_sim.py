"""Discrete-time portfolio trading: accounting, CPPI, data handling, metrics.

The accounting identity everything rests on: after trading at today's close
and marking to tomorrow's, A(t+1) - A(t) = h'(p' - p) - transaction costs,
exactly. Sells execute before buys so proceeds can fund purchases; buys are
clipped so cash stays non-negative including costs; no shorting.
"""

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, ParamError, _check_table, _number
from .stable_core import StableParams, sample

TRADING_DAYS = 252.0


@dataclass
class PortfolioState:
    """Prices p, holdings h, cash b on day t. A state is a value: ``step``
    builds a new one and nothing writes to one once built, so its total
    asset b + p'h is computed once, here."""

    p: np.ndarray
    h: np.ndarray
    b: float
    t: int = 0
    total_asset: float = field(init=False, repr=False)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        self.b = float(self.b)
        if self.b < 0:
            raise ParamError("cash balance must be non-negative")
        self.total_asset = self.b + float(self.p.dot(self.h))
        if self.total_asset <= 0:
            raise ParamError("total asset must be positive")


# the check-table entries of the trading settings that backtest and execution
# configs share; the floor is a share of the initial cash
_TRADING_CHECKS = {"initial_cash": _number(gt=0), "cost_bps": _number(ge=0, lt=1e4),
                   "floor": _number(ge=0, lt=1), "multiplier": _number(ge=0)}


# the check table of a CPPI rule, whose floor is in cash
_CPPI_CHECKS = {"floor": _number(ge=0), "multiplier": _TRADING_CHECKS["multiplier"]}


@dataclass(frozen=True)
class CppiConfig:
    floor: float
    multiplier: float

    def __post_init__(self):
        _check_table(vars(self), _CPPI_CHECKS, "cppi")


def cppi_exposure(asset, cfg):
    """Risky exposure k * max(A - F, 0), capped at A."""
    return float(min(cfg.multiplier * max(asset - cfg.floor, 0.0), asset))


def cppi_expert_action(state, cfg):
    """Trade toward an equal-weight risky basket worth the CPPI exposure."""
    a = state.total_asset
    e = cppi_exposure(a, cfg)
    d = state.p.shape[0]
    target_value = np.full(d, e / d)
    return target_value / state.p - state.h


def step(state, action, next_prices, cost_bps=10.0):
    """Execute the trade at today's close, mark to next_prices.

    Returns (new state, reward). Reward is the total-asset change.
    """
    action = np.asarray(action, dtype=float)
    next_prices = np.asarray(next_prices, dtype=float)
    if action.shape != state.h.shape or next_prices.shape != state.p.shape:
        raise ParamError("action/price dimension mismatch")
    c = cost_bps / 1e4
    # numpy takes an array zero faster than a Python 0.0, and ``dot`` the
    # 1-D products faster than ``@``; both give the same bits
    zero = np.zeros(action.shape)
    sells = np.minimum(np.maximum(-action, zero), state.h)
    buys = np.maximum(action, zero)
    cash = state.b + float(sells.dot(state.p)) * (1.0 - c)
    buy_notional = float(buys.dot(state.p))
    if buy_notional * (1.0 + c) > cash and buy_notional > 0.0:
        buys = buys * (cash / ((1.0 + c) * buy_notional))
        buy_notional = float(buys.dot(state.p))
    cash -= buy_notional * (1.0 + c)
    if -1e-9 * (1.0 + buy_notional) < cash < 0.0:
        cash = 0.0
    holdings = state.h - sells + buys
    before = state.total_asset
    new = PortfolioState(p=next_prices, h=holdings, b=cash, t=state.t + 1)
    return new, new.total_asset - before


# ---------------------------------------------------------------------------
# data


@dataclass
class OhlcvSeries:
    """Daily closes (days x stocks), the only prices trading reads."""

    dates: list
    tickers: list
    close: np.ndarray

    @property
    def n_days(self):
        return len(self.dates)

    @property
    def n_stocks(self):
        return len(self.tickers)

    def window(self, lo, hi):
        """Day-index slice [lo, hi)."""
        return OhlcvSeries(dates=self.dates[lo:hi], tickers=self.tickers,
                           close=self.close[lo:hi])


_COLUMNS = ["date", "ticker", "open", "high", "low", "close", "volume"]


def load_ohlcv(path):
    """CSV with header date,ticker,open,high,low,close,volume.

    Every field is checked: the four prices positive, all five values
    finite.  Every (date, ticker) cell must appear exactly once and every
    ticker must cover every date; offending rows are named in errors.  The
    series keeps the closes.
    """
    try:
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"env.csv {str(path)!r} cannot be read: {exc}") from None
    header = lines[0] if lines else None
    if header is None or [c.strip() for c in header] != _COLUMNS:
        raise DataError(f"expected header {','.join(_COLUMNS)}")
    rows = []
    for idx, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        if len(row) != 7:
            raise DataError(f"row {idx}: expected 7 fields, got {len(row)}")
        date, ticker = row[0].strip(), row[1].strip()
        try:
            vals = [float(v) for v in row[2:]]
        except ValueError:
            raise DataError(f"row {idx}: non-numeric value") from None
        if not all(np.isfinite(vals)):
            raise DataError(f"row {idx}: non-finite value")
        if min(vals[:4]) <= 0.0:
            raise DataError(f"row {idx}: non-positive price")
        rows.append((idx, date, ticker, vals[3]))
    if not rows:
        raise DataError("no data rows")
    dates = sorted({r[1] for r in rows})
    tickers = sorted({r[2] for r in rows})
    date_i = {d: i for i, d in enumerate(dates)}
    tick_i = {tk: i for i, tk in enumerate(tickers)}
    shape = (len(dates), len(tickers))
    close = np.full(shape, np.nan)
    seen = {}
    for idx, date, ticker, price in rows:
        key = (date, ticker)
        if key in seen:
            raise DataError(f"row {idx}: duplicate of row {seen[key]} ({date}, {ticker})")
        seen[key] = idx
        close[date_i[date], tick_i[ticker]] = price
    if np.isnan(close).any():
        i, j = np.argwhere(np.isnan(close))[0]
        raise DataError(f"missing row for ({dates[i]}, {tickers[j]})")
    return OhlcvSeries(dates=dates, tickers=tickers, close=close)


def split(series, ratio=0.7):
    """Chronological split: the first ceil(ratio * days) days train, and the
    rest, which needs two days to score, tests."""
    n = int(np.ceil(ratio * series.n_days))
    if series.n_days - n < 2:
        raise ConfigError("test split too short to score")
    return series.window(0, n), series.window(n, series.n_days)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Metrics:
    annual_return: float
    sharpe: float
    max_drawdown: float


def metrics(curve):
    """Annualized return, Sharpe ratio, max drawdown from daily asset values."""
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 1 or curve.size < 2:
        raise ParamError("need at least two curve points")
    t_days = curve.size - 1
    ar = float((curve[-1] / curve[0]) ** (TRADING_DAYS / t_days) - 1.0)
    rets = curve[1:] / curve[:-1] - 1.0
    # a sample deviation needs two returns: one return, like returns that
    # never move, gives no Sharpe ratio
    sd = float(np.std(rets, ddof=1)) if rets.size > 1 else 0.0
    if sd == 0.0:
        sr = float("nan")
    else:
        sr = float(np.mean(rets) / sd * np.sqrt(TRADING_DAYS))
    peaks = np.maximum.accumulate(curve)
    maxd = float(np.max((peaks - curve) / peaks))
    return Metrics(annual_return=ar, sharpe=sr, max_drawdown=maxd)


def median_metrics(ms):
    """Field-wise median over a list of Metrics."""
    return Metrics(*(float(np.median([getattr(m, f.name) for m in ms]))
                     for f in fields(Metrics)))


# ---------------------------------------------------------------------------
# synthetic data


def _corr_factor(d, rho):
    m = np.full((d, d), rho, dtype=float)
    np.fill_diagonal(m, 1.0)
    vals, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def synth_market(d, days, drift=0.05, vol=0.2, corr=0.3, seed=0,
                 alpha=None, max_loss=None, start_price=100.0):
    """Correlated geometric walks, optionally with stable innovations.

    drift and vol are annual; alpha switches the innovations to a standardized
    stable draw (alpha = 2 recovers the Gaussian exactly); max_loss bounds the
    single-day simple loss, the regime the floor guarantee needs. A price
    path that overflows, or falls to zero, is refused.
    """
    if d < 1 or days < 2:
        raise ParamError("need at least one stock and two days")
    rng = np.random.default_rng(seed)
    if alpha is None:
        z = rng.standard_normal(size=(days - 1, d))
    else:
        inn = StableParams(alpha, 0.0, 2.0 ** -0.5, 0.0)
        z = sample(inn, (days - 1) * d, rng).reshape(days - 1, d)
    z = z @ _corr_factor(d, corr).T
    log_ret = np.log1p(drift) / TRADING_DAYS + (vol / np.sqrt(TRADING_DAYS)) * z
    close = np.empty((days, d))
    close[0] = start_price
    with np.errstate(over="ignore", invalid="ignore"):
        factors = np.exp(log_ret)
        if max_loss is not None:
            factors = np.maximum(factors, 1.0 - max_loss)
        close[1:] = start_price * np.cumprod(factors, axis=0)
    if not np.all((close > 0.0) & (close < np.inf)):
        raise ParamError(f"the price path of seed {seed} is not finite and positive "
                         f"at drift {drift:g} and vol {vol:g}")
    return OhlcvSeries(dates=[f"d{idx:05d}" for idx in range(days)],
                       tickers=[f"S{j}" for j in range(d)], close=close)


# ---------------------------------------------------------------------------
# episode wrapper


class TradingEnv:
    """Steps a portfolio through a price series day by day and records the
    daily equity curve: the total asset of every state the episode reached."""

    def __init__(self, series, initial_cash=10000.0, cost_bps=10.0):
        if series.n_days < 2:
            raise ParamError("series too short to trade")
        self.series = series
        self.initial_cash = float(initial_cash)
        self.cost_bps = float(cost_bps)
        self.last_day = series.n_days - 1
        self.state = None
        self.curve = None

    def reset(self):
        self.state = PortfolioState(
            p=self.series.close[0].copy(),
            h=np.zeros(self.series.n_stocks),
            b=self.initial_cash,
            t=0,
        )
        self.curve = [self.state.total_asset]
        return self.state

    @property
    def done(self):
        return self.state.t >= self.last_day

    def step(self, action):
        state = self.state
        if state is None:
            raise ParamError("reset before stepping")
        if state.t >= self.last_day:
            raise ParamError("episode finished")
        state, reward = step(state, action, self.series.close[state.t + 1],
                             cost_bps=self.cost_bps)
        self.state = state
        self.curve.append(state.total_asset)
        return state, reward, state.t >= self.last_day


def run_policy(env, policy):
    """One episode of policy(observation) -> action on a TradingEnv or a
    learner env built on one; returns the daily equity curve (n_days values)."""
    obs = env.reset()
    while not env.done:
        obs, _, _ = env.step(policy(obs))
    return np.asarray(env.curve)
