import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabletrade.errors import ConfigError, DataError, ParamError
from stabletrade.market_sim import (
    CppiConfig,
    Metrics,
    OhlcvSeries,
    PortfolioState,
    TradingEnv,
    cppi_expert_action,
    cppi_exposure,
    load_ohlcv,
    metrics,
    run_policy,
    split,
    step,
    synth_market,
)
from stabletrade.stable_core import tail_order_check


def test_state_invariants():
    with pytest.raises(ParamError):
        PortfolioState(p=[10.0], h=[0.0], b=-1.0)
    with pytest.raises(ParamError):
        PortfolioState(p=[10.0], h=[0.0], b=0.0)
    s = PortfolioState(p=[10.0, 20.0], h=[1.0, 2.0], b=5.0)
    assert s.total_asset == pytest.approx(55.0)


def test_cppi_config_validation():
    with pytest.raises(ConfigError):
        CppiConfig(floor=80.0, multiplier=-1.0).validate()
    with pytest.raises(ConfigError):
        CppiConfig(floor=100.0, multiplier=2.0).validate(initial_asset=100.0)
    CppiConfig(floor=80.0, multiplier=2.0).validate(initial_asset=100.0)


def test_exposure_basic():
    assert cppi_exposure(100.0, CppiConfig(floor=80.0, multiplier=2.0)) == pytest.approx(40.0)


def test_exposure_at_floor():
    assert cppi_exposure(80.0, CppiConfig(floor=80.0, multiplier=2.0)) == 0.0


def test_exposure_below_floor():
    assert cppi_exposure(70.0, CppiConfig(floor=80.0, multiplier=3.0)) == 0.0


def test_exposure_cap_and_flag():
    # k * (A - F) = 200 exceeds the asset, so the exposure is capped at A
    assert cppi_exposure(100.0, CppiConfig(floor=50.0, multiplier=4.0)) == pytest.approx(100.0)


def test_step_zero_action_reward_is_price_pnl():
    s = PortfolioState(p=[10.0, 20.0], h=[3.0, 1.0], b=50.0)
    nxt = np.array([11.0, 19.0])
    s2, r = step(s, np.zeros(2), nxt, cost_bps=10.0)
    # h (p' - p) = 3*1 + 1*(-1) = 2
    assert r == pytest.approx(2.0)
    assert s2.b == pytest.approx(50.0)
    assert np.allclose(s2.h, [3.0, 1.0])
    assert s2.t == 1


def test_step_buy_cash_arithmetic():
    s = PortfolioState(p=[5.0], h=[0.0], b=100.0)
    s2, _ = step(s, np.array([10.0]), np.array([5.0]), cost_bps=10.0)
    assert s2.b == pytest.approx(49.95, abs=1e-12)
    assert s2.h[0] == pytest.approx(10.0)


def test_step_sell_clipped_at_holdings():
    s = PortfolioState(p=[10.0], h=[2.0], b=0.0)
    s2, _ = step(s, np.array([-5.0]), np.array([10.0]), cost_bps=0.0)
    assert s2.h[0] == 0.0
    assert s2.b == pytest.approx(20.0)


def test_step_buy_clipped_by_cash():
    s = PortfolioState(p=[10.0], h=[0.0], b=100.0)
    s2, _ = step(s, np.array([100.0]), np.array([10.0]), cost_bps=100.0)
    # affordable notional x solves x * 1.01 = 100
    assert s2.b == pytest.approx(0.0, abs=1e-10)
    assert s2.h[0] == pytest.approx(100.0 / 10.0 / 1.01)


def test_step_sell_proceeds_fund_buys():
    s = PortfolioState(p=[10.0, 10.0], h=[5.0, 0.0], b=0.0)
    s2, _ = step(s, np.array([-5.0, 4.0]), np.array([10.0, 10.0]), cost_bps=0.0)
    assert s2.h[0] == 0.0
    assert s2.h[1] == pytest.approx(4.0)
    assert s2.b == pytest.approx(10.0)


def test_step_dimension_mismatch():
    s = PortfolioState(p=[10.0], h=[0.0], b=100.0)
    with pytest.raises(ParamError):
        step(s, np.zeros(2), np.array([10.0]))
    with pytest.raises(ParamError):
        step(s, np.zeros(1), np.array([10.0, 11.0]))


def test_accounting_identity_replay():
    # A(t+1) - A(t) must equal mark-to-market pnl minus costs, replayed from scratch
    rng = np.random.default_rng(7)
    d = 3
    series = synth_market(d, 101, vol=0.4, seed=11)
    s = PortfolioState(p=series.close[0].copy(), h=np.zeros(d), b=10000.0)
    c = 10.0 / 1e4
    cash, hold = 10000.0, np.zeros(d)
    for t in range(100):
        action = rng.normal(scale=5.0, size=d)
        nxt = series.close[t + 1]
        prev_asset = s.total_asset
        s, r = step(s, action, nxt, cost_bps=10.0)
        sells = np.minimum(np.maximum(-action, 0.0), hold)
        cash += float(sells @ series.close[t]) * (1.0 - c)
        buys = np.maximum(action, 0.0)
        notional = float(buys @ series.close[t])
        if notional * (1.0 + c) > cash and notional > 0.0:
            buys = buys * (cash / ((1.0 + c) * notional))
            notional = float(buys @ series.close[t])
        cash -= notional * (1.0 + c)
        hold = hold - sells + buys
        traded = float(sells @ series.close[t]) + notional
        assert abs(s.b - cash) < 1e-8
        assert np.max(np.abs(s.h - hold)) < 1e-8
        pnl = float(hold @ (nxt - series.close[t])) - c * traded
        assert abs(r - pnl) < 1e-8
        assert abs((s.total_asset - prev_asset) - r) < 1e-8


def test_total_asset_is_cash_plus_holdings_value_after_every_step():
    # computed once at construction, it must equal b + p'h of the state it
    # describes, bit for bit, on every day of an episode
    rng = np.random.default_rng(3)
    series = synth_market(2, 60, vol=0.5, seed=4)
    env = TradingEnv(series, initial_cash=1000.0)
    s = env.reset()
    assert s.total_asset == s.b + float(s.p @ s.h)
    while not env.done:
        s, _, _ = env.step(rng.normal(scale=4.0, size=2))
        assert s.total_asset == s.b + float(s.p @ s.h)
    assert s.t == env.last_day == series.n_days - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cash_and_holdings_never_negative(seed):
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 4)
    series = synth_market(int(d), 30, vol=0.5, seed=int(seed) + 1)
    s = PortfolioState(p=series.close[0].copy(), h=np.zeros(int(d)), b=1000.0)
    for t in range(29):
        action = rng.standard_cauchy(size=int(d)) * 3.0
        s, _ = step(s, action, series.close[t + 1], cost_bps=25.0)
        assert s.b >= -1e-9
        assert np.all(s.h >= 0.0)


def test_expert_equal_weight_example():
    s = PortfolioState(p=[10.0, 20.0], h=[0.0, 0.0], b=100.0)
    cfg = CppiConfig(floor=80.0, multiplier=1.0)
    a = cppi_expert_action(s, cfg)
    assert a[0] == pytest.approx(1.0)
    assert a[1] == pytest.approx(0.5)
    s2, _ = step(s, a, s.p, cost_bps=10.0)
    # post-trade risky value hits the 20 target up to the cost drag
    assert float(s2.p @ s2.h) == pytest.approx(20.0, abs=0.1)


def test_expert_divests_at_floor():
    s = PortfolioState(p=[10.0], h=[5.0], b=50.0)
    cfg = CppiConfig(floor=100.0, multiplier=2.0)
    a = cppi_expert_action(s, cfg)
    assert a[0] == pytest.approx(-5.0)


def test_expert_zero_trade_at_target():
    cfg = CppiConfig(floor=80.0, multiplier=1.0)
    s = PortfolioState(p=[10.0, 20.0], h=[1.0, 0.5], b=80.0)
    a = cppi_expert_action(s, cfg)
    assert np.allclose(a, 0.0, atol=1e-12)


def test_cppi_floor_never_breached_with_bounded_loss():
    # k * max_loss <= 1 and zero costs: the floor survives every path
    cfg = CppiConfig(floor=8000.0, multiplier=4.0)
    for seed in range(10):
        series = synth_market(2, 252, vol=0.6, seed=seed, max_loss=0.25)
        env = TradingEnv(series, initial_cash=10000.0, cost_bps=0.0)
        curve = run_policy(env, lambda s: cppi_expert_action(s, cfg))
        assert np.min(curve) >= 8000.0 - 1e-6


def test_cppi_floor_with_costs_stays_close():
    cfg = CppiConfig(floor=8000.0, multiplier=4.0)
    series = synth_market(2, 252, vol=0.6, seed=3, max_loss=0.25)
    env = TradingEnv(series, initial_cash=10000.0, cost_bps=10.0)
    curve = run_policy(env, lambda s: cppi_expert_action(s, cfg))
    assert np.min(curve) >= 8000.0 * (1.0 - 0.01)


# ---------------------------------------------------------------------------
# data loading


def _write_csv(tmp_path, rows, header="date,ticker,open,high,low,close,volume"):
    path = tmp_path / "prices.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


GOOD_ROWS = [
    "2020-01-02,AAA,10,11,9,10.5,1000",
    "2020-01-02,BBB,20,22,19,21,500",
    "2020-01-03,AAA,10.5,12,10,11,1100",
    "2020-01-03,BBB,21,23,20,22,600",
]


def test_load_ohlcv_roundtrip(tmp_path):
    series = load_ohlcv(_write_csv(tmp_path, GOOD_ROWS))
    assert series.dates == ["2020-01-02", "2020-01-03"]
    assert series.tickers == ["AAA", "BBB"]
    assert series.close[0, 0] == 10.5
    assert series.close[1, 1] == 22.0


def test_load_ohlcv_unsorted_input_ok(tmp_path):
    series = load_ohlcv(_write_csv(tmp_path, GOOD_ROWS[::-1]))
    assert series.dates == ["2020-01-02", "2020-01-03"]
    assert series.close[0, 0] == 10.5


def test_load_ohlcv_missing_cell_named(tmp_path):
    with pytest.raises(DataError, match=r"2020-01-03.*BBB"):
        load_ohlcv(_write_csv(tmp_path, GOOD_ROWS[:3]))


def test_load_ohlcv_duplicate_named(tmp_path):
    rows = GOOD_ROWS + ["2020-01-03,BBB,21,23,20,22,600"]
    with pytest.raises(DataError, match=r"row 6.*duplicate"):
        load_ohlcv(_write_csv(tmp_path, rows))


def test_load_ohlcv_nonpositive_price_named(tmp_path):
    rows = list(GOOD_ROWS)
    rows[2] = "2020-01-03,AAA,10.5,12,-1,11,1100"
    with pytest.raises(DataError, match="row 4"):
        load_ohlcv(_write_csv(tmp_path, rows))


def test_load_ohlcv_bad_header(tmp_path):
    with pytest.raises(DataError, match="header"):
        load_ohlcv(_write_csv(tmp_path, GOOD_ROWS, header="date,open,close"))


def test_load_ohlcv_non_numeric(tmp_path):
    rows = list(GOOD_ROWS)
    rows[1] = "2020-01-02,BBB,20,22,19,x,500"
    with pytest.raises(DataError, match="row 3"):
        load_ohlcv(_write_csv(tmp_path, rows))


def test_split_ceil():
    series = synth_market(1, 10, seed=0)
    train, test = split(series, ratio=0.7)
    assert train.n_days == 7
    assert test.n_days == 3
    assert train.dates + test.dates == series.dates


def test_split_refuses_a_test_part_under_two_days():
    series = synth_market(1, 10, seed=0)
    assert split(series, ratio=0.8)[1].n_days == 2
    for ratio in (0.85, 1.0):
        with pytest.raises(ConfigError, match="test split too short"):
            split(series, ratio=ratio)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_max_drawdown_example():
    m = metrics([100.0, 110.0, 99.0, 120.0])
    assert m.max_drawdown == pytest.approx(0.1)


def test_metrics_flat_curve():
    m = metrics([100.0] * 20)
    assert m.annual_return == pytest.approx(0.0)
    assert np.isnan(m.sharpe)
    assert m.max_drawdown == 0.0


def test_metrics_one_return_has_no_sharpe_and_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = metrics([100.0, 101.0])
    assert np.isnan(m.sharpe)
    assert m.annual_return == pytest.approx(1.01 ** 252 - 1.0, rel=1e-12)
    assert m.max_drawdown == 0.0


def test_metrics_doubling_in_a_year():
    curve = 100.0 * 2.0 ** (np.arange(253) / 252.0)
    m = metrics(curve)
    assert m.annual_return == pytest.approx(1.0, rel=1e-9)


def test_metrics_currency_invariance():
    rng = np.random.default_rng(5)
    curve = 100.0 * np.cumprod(1.0 + rng.normal(0.0005, 0.01, size=300))
    curve = np.concatenate([[100.0], curve])
    a, b = metrics(curve), metrics(curve * 1e4)
    assert a.annual_return == pytest.approx(b.annual_return, rel=1e-12)
    assert a.sharpe == pytest.approx(b.sharpe, rel=1e-12)
    assert a.max_drawdown == pytest.approx(b.max_drawdown, rel=1e-12)


def test_metrics_too_short():
    with pytest.raises(ParamError):
        metrics([100.0])


def test_metrics_against_generator():
    # 50 seeds of a 20y geometric walk with known drift and vol
    drift, vol = 0.08, 0.2
    ars, srs = [], []
    for seed in range(50):
        series = synth_market(1, 5041, drift=drift, vol=vol, corr=0.0, seed=seed)
        m = metrics(series.close[:, 0])
        ars.append(m.annual_return)
        srs.append(m.sharpe)
    assert abs(np.mean(ars) - drift) < 0.01
    m_daily = np.log1p(drift) / 252.0 + vol**2 / (2.0 * 252.0)
    sr_true = m_daily / (vol / np.sqrt(252.0)) * np.sqrt(252.0)
    assert abs(np.mean(srs) - sr_true) / sr_true < 0.15


# ---------------------------------------------------------------------------
# synthetic market


def test_synth_deterministic_per_seed():
    a = synth_market(3, 50, seed=9)
    b = synth_market(3, 50, seed=9)
    c = synth_market(3, 50, seed=10)
    assert np.array_equal(a.close, b.close)
    assert not np.array_equal(a.close, c.close)


def test_synth_zero_vol_is_smooth_growth():
    series = synth_market(2, 253, drift=0.05, vol=0.0, seed=0)
    ratio = series.close[-1] / series.close[0]
    assert np.allclose(ratio, 1.05, rtol=1e-9)
    assert np.all(np.diff(series.close, axis=0) > 0)


def test_synth_full_correlation_moves_in_lockstep():
    series = synth_market(3, 100, corr=1.0, seed=4)
    rets = series.close[1:] / series.close[:-1]
    assert np.allclose(rets[:, 0:1], rets, rtol=1e-9)


def test_synth_stable_tails():
    series = synth_market(1, 20001, drift=0.0, vol=0.2, alpha=1.6, seed=2)
    rets = np.log(series.close[1:, 0] / series.close[:-1, 0])
    chk = tail_order_check(rets - np.median(rets), alpha=1.6)
    assert 1.3 <= chk.tail_exponent <= 1.9


def test_synth_gaussian_when_alpha_two():
    gauss = synth_market(1, 5000, alpha=2.0, seed=6)
    rets = np.log(gauss.close[1:, 0] / gauss.close[:-1, 0])
    # no heavy tail: excess kurtosis of a normal sample stays small
    z = (rets - rets.mean()) / rets.std()
    assert abs(np.mean(z**4) - 3.0) < 0.3


def test_synth_max_loss_bounds_daily_loss():
    series = synth_market(2, 2000, vol=1.5, seed=8, max_loss=0.2)
    rets = series.close[1:] / series.close[:-1] - 1.0
    assert np.min(rets) >= -0.2 - 1e-12


def test_synth_ohlc_consistent():
    series = synth_market(2, 100, seed=12)
    assert np.all(series.close > 0)


# ---------------------------------------------------------------------------
# episode wrapper


def test_env_hold_cash_flat_curve():
    series = synth_market(2, 30, seed=1)
    env = TradingEnv(series, initial_cash=5000.0)
    curve = run_policy(env, lambda s: np.zeros(2))
    assert curve.shape == (30,)
    assert np.allclose(curve, 5000.0)


def test_env_buy_and_hold_tracks_prices():
    series = synth_market(1, 50, vol=0.3, seed=2)
    env = TradingEnv(series, initial_cash=10000.0, cost_bps=0.0)

    def policy(s):
        if s.t == 0:
            return np.array([s.b / s.p[0]])
        return np.zeros(1)

    curve = run_policy(env, policy)
    expect = 10000.0 / series.close[0, 0] * series.close[:, 0]
    assert np.allclose(curve, expect, rtol=1e-9)


def test_env_step_guards():
    series = synth_market(1, 3, seed=0)
    env = TradingEnv(series)
    with pytest.raises(ParamError):
        env.step(np.zeros(1))
    env.reset()
    env.step(np.zeros(1))
    env.step(np.zeros(1))
    assert env.done
    with pytest.raises(ParamError):
        env.step(np.zeros(1))


def test_load_ohlcv_unreadable_file_is_a_data_error(tmp_path):
    binary = tmp_path / "prices.bin"
    binary.write_bytes(b"date,ticker\n\xd0\xff\xfe\x00")
    for path in (str(tmp_path / "nope.csv"), str(tmp_path), str(binary)):
        with pytest.raises(DataError, match=r"env\.csv .*cannot be read"):
            load_ohlcv(path)
