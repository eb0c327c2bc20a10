import dataclasses
import re
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzsig import indicators
from fuzzsig.fixtures import flat_series, portfolio_fixture, random_walk_series
from fuzzsig.indicators import (
    InsufficientHistoryError,
    _macd_last,
    _percent_k,
    _percent_k_last,
    _rsi_last,
    _window_runs,
    ema,
    indicator_block,
    indicator_frame,
    macd,
    sma,
    snapshot,
)
from fuzzsig.market_data import Bars, PriceSeries, aggregate_periods, parse_csv, serialize_csv

from conftest import DATA_DIR

from oracles import (
    closed_form_ema,
    composed_macd,
    naive_sma,
    scalar_fold_ema,
    scanned_stochastic,
    scanned_williams,
    tallied_rsi,
    windowed_extremes,
)


WINDOWS = {"macd_short": 12, "macd_long": 26, "macd_trigger": 9, "rsi_window": 21,
           "stochastic_k": 10, "stochastic_d": 3, "williams_window": 30}


def random_closes(rng, length, start=50.0):
    steps = 1.0 + (rng.random(length) - 0.5) * 0.06
    return start * np.cumprod(steps)


def random_ohlc(rng, length):
    """Random but bar-consistent high/low/close triples."""
    closes = random_closes(rng, length)
    highs = closes * (1.0 + rng.random(length) * 0.1)
    lows = closes * (1.0 - rng.random(length) * 0.1)
    return highs, lows, closes


class TestSma:
    def test_constant_series(self):
        out = sma([2.0] * 10, 4)
        assert np.allclose(out, 2.0, rtol=0, atol=0)

    def test_symmetric_sequence_mean(self):
        assert sma([1, 2, 3, 4, 5], 5)[0] == 3.0

    def test_matches_window_resummation(self):
        rng = np.random.default_rng(42)
        closes = random_closes(rng, 100)
        got = sma(closes, 26)
        want = naive_sma(closes, 26)
        assert len(got) == len(want) == 75
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_too_short_errors(self):
        with pytest.raises(InsufficientHistoryError):
            sma([1.0, 2.0], 3)


class TestEma:
    def test_constant_series_is_fixed_point(self):
        assert np.allclose(ema([3.5] * 20, 6), 3.5, rtol=0, atol=1e-15)

    def test_window_one_returns_the_series(self):
        closes = [1.0, 5.0, 2.0, 8.0]
        assert np.array_equal(ema(closes, 1), np.array(closes))

    def test_matches_closed_form_expansion(self):
        rng = np.random.default_rng(7)
        closes = random_closes(rng, 40)
        got = ema(closes, 12)
        want = closed_form_ema(closes, 12)
        assert len(got) == len(want) == 29
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_too_short_errors(self):
        with pytest.raises(InsufficientHistoryError):
            ema([1.0] * 5, 6)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        extra=st.integers(0, 700),
        strided=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_series_equals_the_numpy_scalar_fold_bit_for_bit(self, seed, n, extra, strided):
        # prices spanning ten orders of magnitude, every mantissa bit in use
        rng = np.random.default_rng(seed)
        length = n + extra
        prices = rng.random(length) * 10.0 ** rng.integers(-4, 7, length)
        if strided:  # the close column of a row-major OHLCV table
            table = np.zeros((length, 5))
            table[:, 3] = prices
            prices = table[:, 3]
        assert ema(prices, n).tobytes() == scalar_fold_ema(prices, n).tobytes()


class TestMacd:
    def test_constant_series_is_all_zero(self):
        triple = macd([10.0] * 40)
        assert np.allclose(triple.macd_line, 0.0, atol=1e-12)
        assert np.allclose(triple.signal_line, 0.0, atol=1e-12)
        assert np.allclose(triple.histogram, 0.0, atol=1e-12)

    def test_default_parameters_are_26_12_9(self):
        # minimum support follows from the fixed 26/12/9 parameterization
        closes = list(range(1, 35))
        triple = macd(closes)
        assert len(triple.macd_line) == 1
        with pytest.raises(InsufficientHistoryError, match="34"):
            macd(closes[:-1])

    def test_linear_ramp_matches_ema_composition(self):
        closes = np.linspace(10.0, 90.0, 60)
        got = macd(closes)
        line, signal, hist = composed_macd(closes)
        assert np.allclose(got.macd_line, line, rtol=1e-12, atol=1e-12)
        assert np.allclose(got.signal_line, signal, rtol=1e-12, atol=1e-12)
        assert np.allclose(got.histogram, hist, rtol=1e-12, atol=1e-12)

    def test_histogram_is_exact_difference(self):
        rng = np.random.default_rng(3)
        triple = macd(random_closes(rng, 80))
        assert np.array_equal(triple.histogram, triple.macd_line - triple.signal_line)
        assert len(triple.macd_line) == len(triple.signal_line) == len(triple.histogram)


def rsi_column(closes, n=21):
    """The frame's RSI column over closes alone (highs and lows set to them)."""
    return indicator_block(closes, closes, closes, rsi_window=n).rsi


class TestRsi:
    # the frame's column; snapshot's last-row RSI equals it (TestSnapshotIsTheFrameRow)
    def test_strictly_increasing_is_100(self):
        assert rsi_column(np.arange(1.0, 30.0))[-1] == 100.0

    def test_strictly_decreasing_is_0(self):
        assert rsi_column(np.arange(30.0, 1.0, -1.0))[-1] == 0.0

    def test_flat_window_is_neutral_50(self):
        assert np.all(rsi_column([7.0] * 25)[21:] == 50.0)

    def test_mixed_closes_match_tally(self):
        rng = np.random.default_rng(11)
        closes = random_closes(rng, 60)
        column = rsi_column(closes)
        for t in range(21, 60):
            assert column[t] == pytest.approx(tallied_rsi(closes[:t + 1], 21), rel=1e-12)

    def test_too_short_is_nan_in_the_frame_and_an_error_in_snapshot(self):
        assert np.all(np.isnan(rsi_column([1.0] * 21)))
        series = period_series(60, seed=4)
        with pytest.raises(InsufficientHistoryError, match="RSI"):
            snapshot(PriceSeries("S", series.bars[:50]), rsi_window=50)


class TestStochastic:
    # the frame's %K and %D columns; snapshot's last-row %K equals the frame's
    def test_close_at_trailing_high_is_100(self):
        h = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19.0]
        lo = [x - 1 for x in h]
        c = [x - 0.5 for x in h]
        c[-1] = h[-1]
        assert indicator_block(h, lo, c, stochastic_k=10, stochastic_d=1).percent_k[-1] == 100.0

    def test_close_at_trailing_low_is_0(self):
        h = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19.0]
        lo = [x - 1 for x in h]
        c = list(h)
        c[-1] = min(lo)
        assert indicator_block(h, lo, c, stochastic_k=10, stochastic_d=1).percent_k[-1] == 0.0

    def test_degenerate_range_is_50(self):
        flat = [5.0] * 12
        frame = indicator_block(flat, flat, flat)
        assert np.all(frame.percent_k[9:] == 50.0)
        assert np.all(frame.percent_d[11:] == 50.0)

    def test_matches_window_scan(self):
        rng = np.random.default_rng(19)
        h, lo, c = random_ohlc(rng, 60)
        frame = indicator_block(h, lo, c, stochastic_k=10, stochastic_d=3)
        pk, pd = scanned_stochastic(h, lo, c, k=10, d=3)
        assert np.allclose(frame.percent_k[9:], pk, rtol=1e-12, atol=1e-12)
        assert np.allclose(frame.percent_d[11:], pd, rtol=1e-12, atol=1e-12)

    def test_percent_d_is_3_point_average_of_percent_k(self):
        rng = np.random.default_rng(23)
        h, lo, c = random_ohlc(rng, 40)
        frame = indicator_block(h, lo, c)
        for t in range(11, 40):
            assert frame.percent_d[t] == pytest.approx(
                frame.percent_k[t - 2:t + 1].mean(), rel=1e-12)

    def test_too_short_is_nan_in_the_frame_and_an_error_in_snapshot(self):
        flat = [1.0] * 11
        frame = indicator_block(flat, flat, flat, stochastic_k=10, stochastic_d=3)
        assert np.all(np.isnan(frame.percent_d)) and np.all(np.isnan(frame.percent_k[:9]))
        series = period_series(60, seed=4)
        with pytest.raises(InsufficientHistoryError, match="stochastic"):
            snapshot(PriceSeries("S", series.bars[:50]), stochastic_k=50)


class TestWilliams:
    # the frame's column; snapshot's last-row Williams equals it
    def test_close_at_trailing_high_is_0(self):
        h = list(np.linspace(10, 20, 30))
        lo = [x - 1 for x in h]
        c = list(np.linspace(9.5, 19.5, 30))
        c[-1] = max(h)
        assert indicator_block(h, lo, c, williams_window=30).williams[-1] == 0.0

    def test_close_at_trailing_low_is_minus_100(self):
        h = list(np.linspace(10, 20, 30))
        lo = [x - 1 for x in h]
        c = list(h)
        c[-1] = min(lo)
        assert indicator_block(h, lo, c, williams_window=30).williams[-1] == -100.0

    def test_degenerate_range_is_minus_50(self):
        flat = [5.0] * 30
        assert indicator_block(flat, flat, flat, williams_window=30).williams[-1] == -50.0

    def test_matches_extremum_scan(self):
        rng = np.random.default_rng(29)
        h, lo, c = random_ohlc(rng, 50)
        column = indicator_block(h, lo, c, williams_window=30).williams
        for t in range(29, 50):
            assert column[t] == pytest.approx(
                scanned_williams(h[:t + 1], lo[:t + 1], c[:t + 1], 30), rel=1e-12, abs=1e-12)

    def test_too_short_is_nan_in_the_frame_and_an_error_in_snapshot(self):
        flat = [1.0] * 29
        assert np.all(np.isnan(indicator_block(flat, flat, flat, williams_window=30).williams))
        series = period_series(60, seed=4)
        with pytest.raises(InsufficientHistoryError, match="Williams"):
            snapshot(PriceSeries("S", series.bars[:50]), williams_window=51)


def extremes_inputs(t):
    """(3, t) and 1-D inputs: a walk, flat spans of equal values and of +-0.0, a NaN at each bar."""
    rng = np.random.default_rng(t)
    walk = 100.0 + rng.normal(size=(3, t)).cumsum(axis=1)
    flat = np.repeat(rng.choice([-1.5, -0.0, 0.0, 2.0], size=(3, t)), 3, axis=1)[:, :t]
    yield from (walk, walk[0], flat, flat[1])
    for i in range(t):
        poked = walk.copy()
        poked[i % 3, i] = np.nan
        yield poked
        yield poked[i % 3]


class TestWindowRuns:
    @pytest.mark.parametrize("t", [1, 2, 7, 23, 61])
    def test_equal_the_per_window_reduction_bit_for_bit(self, t):
        # numpy's own window reduction picks the sign of a zero extreme by SIMD
        # lane when a window holds both +0.0 and -0.0; only such a zero may differ
        for x in extremes_inputs(t):
            for k in range(1, t + 1):
                windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=-1)
                zero = windows == 0.0
                mixed = (zero & np.signbit(windows)).any(axis=-1) & \
                    (zero & ~np.signbit(windows)).any(axis=-1)
                for op, want in zip((np.maximum, np.minimum), windowed_extremes(x, k)):
                    got = _window_runs(op, x, k)
                    exact = ~(mixed & (want == 0.0))
                    assert got[exact].tobytes() == want[exact].tobytes(), (k, op)
                    assert np.array_equal(got, want, equal_nan=True)


class TestRangesAndIdentities:
    @given(seed=st.integers(0, 10_000), length=st.integers(35, 120))
    def test_ranges_hold_on_random_series(self, seed, length):
        rng = np.random.default_rng(seed)
        frame = indicator_block(*random_ohlc(rng, length))
        for name, low, high in (("rsi", 0.0, 100.0), ("percent_k", 0.0, 100.0),
                                ("percent_d", 0.0, 100.0), ("williams", -100.0, 0.0)):
            column = getattr(frame, name)
            filled = column[~np.isnan(column)]
            assert filled.size and np.all((filled >= low) & (filled <= high)), name

    @given(seed=st.integers(0, 10_000), window=st.integers(5, 30))
    def test_percent_k_plus_abs_williams_is_exactly_100(self, seed, window):
        # same trailing window: (close - LL) and (HH - close) split HH - LL
        rng = np.random.default_rng(seed)
        h, lo, c = random_ohlc(rng, window + 5)
        frame = indicator_block(h, lo, c, stochastic_k=window, williams_window=window)
        pk, wa = frame.percent_k[window - 1:], frame.williams[window - 1:]
        assert np.all(pk + np.abs(wa) == 100.0)
        last = _percent_k_last(h, lo, c[-1], window)  # snapshot's Williams is last - 100
        assert last + abs(last - 100.0) == 100.0

    @given(seed=st.integers(0, 10_000), prefix=st.integers(1, 40))
    def test_window_local_indicators_are_shift_equivariant(self, seed, prefix):
        # prepending history must not change values at a given date once the
        # window is met; holds for the window-local indicators (EMA-seeded
        # MACD is anchored to the series start and is exempt by design)
        rng = np.random.default_rng(seed)
        h, lo, c = random_ohlc(rng, 60 + prefix)
        full = indicator_block(h, lo, c)
        cut = indicator_block(h[prefix:], lo[prefix:], c[prefix:])
        for name, first in (("rsi", 21), ("percent_k", 9), ("percent_d", 11), ("williams", 29)):
            assert getattr(full, name)[prefix + first:].tobytes() == \
                getattr(cut, name)[first:].tobytes(), name
        assert sma(c, 20)[-1] == sma(c[prefix:], 20)[-1]


def period_series(n_periods, seed=0):
    daily = random_walk_series("S", seed=seed, periods=n_periods, days_per_period=15)
    return aggregate_periods(daily, 15)


class TestSnapshot:
    def test_fields_equal_individual_operations(self):
        series = period_series(52, seed=13)
        h = np.array([b.high for b in series.bars])
        lo = np.array([b.low for b in series.bars])
        c = np.array([b.close for b in series.bars])
        snap = snapshot(series)
        triple = macd(c)
        assert snap.macd_line == triple.macd_line[-1]
        assert snap.signal_line == triple.signal_line[-1]
        assert snap.histogram == triple.histogram[-1]
        assert snap.rsi == pytest.approx(tallied_rsi(c, 21), rel=1e-12)
        assert snap.stochastic_k == pytest.approx(
            scanned_stochastic(h, lo, c, k=10, d=1)[0][-1], rel=1e-12)
        assert snap.williams == pytest.approx(scanned_williams(h, lo, c, 30), rel=1e-12)
        assert snap.close == c[-1]

    def test_minimal_support_is_35_periods(self):
        series = period_series(40, seed=1)
        ok = PriceSeries("S", series.bars[:35])
        snapshot(ok)
        short = PriceSeries("S", series.bars[:34])
        with pytest.raises(InsufficientHistoryError, match="MACD"):
            snapshot(short)

    def test_binding_indicator_follows_parameters(self):
        series = period_series(40, seed=2)
        short = PriceSeries("S", series.bars[:36])
        with pytest.raises(InsufficientHistoryError, match="RSI"):
            snapshot(short, rsi_window=50)

    @pytest.mark.parametrize("windows, message", [
        pytest.param({"macd_short": 26}, "short period must be below long period, got 26/26",
                     id="macd_short=26"),
        *(pytest.param({name: value}, "windows must be >= 1, got "
                       + re.escape(str(tuple({**WINDOWS, name: value}.values()))),
                       id=f"{name}={value}")
          for name in WINDOWS for value in (0, -1)),
    ])
    def test_invalid_windows_are_value_errors_at_any_length(self, windows, message):
        # the frame used to divide by a zero %K or Williams window, give an
        # all-NaN RSI with warnings, or fail in a reshape on a negative window
        def block(series, **w):
            return indicator_block(series.bars.high, series.bars.low, series.bars.close, **w)

        series = period_series(60, seed=3)
        for length in (0, 5, 60):
            for compute in (snapshot, indicator_frame, block):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    compute(PriceSeries("S", series.bars[:length]), **windows)

    def test_constant_series_conventions(self):
        series = aggregate_periods(flat_series(periods=40), 15)
        snap = snapshot(series)
        assert snap.histogram == 0.0
        assert snap.stochastic_k == 50.0
        assert snap.williams == -50.0
        assert snap.rsi == 50.0


def bits(snap):
    return [value.hex() for value in dataclasses.astuple(snap)]


class TestIndicatorFrame:
    @pytest.mark.parametrize("windows", [{}, {"rsi_window": 50}])
    def test_row_t_is_the_snapshot_of_prefix_t_bit_for_bit(self, windows):
        basket = parse_csv((DATA_DIR / "portfolio_fixture.csv").read_bytes())
        usable = 0
        for series in basket:
            periods = aggregate_periods(series, 15)
            frame = indicator_frame(periods, **windows)
            for t in range(len(periods.bars)):
                prefix = PriceSeries(periods.symbol, periods.bars[:t + 1])
                try:
                    want = snapshot(prefix, **windows)
                except InsufficientHistoryError as exc:
                    with pytest.raises(InsufficientHistoryError, match=re.escape(str(exc))):
                        frame.row(t)
                    continue
                assert bits(frame.row(t)) == bits(want)
                usable += 1
        assert usable == len(basket) * (18 if not windows else 2)

    def test_macd_shows_a_row_before_inference_accepts_it(self):
        # the signal line exists from row long+trigger-2, but a snapshot needs
        # one recursion step past its seed: long+trigger bars
        frame = indicator_frame(period_series(40, seed=5))
        assert np.isnan(frame.macd_line[32]) and not np.isnan(frame.macd_line[33])
        assert not np.isnan(frame.signal_line[33]) and not np.isnan(frame.histogram[33])
        with pytest.raises(InsufficientHistoryError, match="MACD"):
            frame.row(33)
        frame.row(34)

    def test_columns_fill_from_their_windows(self):
        frame = indicator_frame(period_series(40, seed=6))
        first = {name: int(np.argmax(~np.isnan(getattr(frame, name))))
                 for name in ("macd_line", "rsi", "percent_k", "percent_d", "williams")}
        assert first == {"macd_line": 33, "rsi": 21, "percent_k": 9,
                         "percent_d": 11, "williams": 29}

    @pytest.mark.parametrize("n_periods", [0, 1, 5, 12, 30, 33])
    def test_short_series_give_nan_columns_not_errors(self, n_periods):
        series = period_series(40, seed=8)
        frame = indicator_frame(PriceSeries("S", series.bars[:n_periods]))
        assert len(frame.close) == len(frame.rsi) == len(frame.williams) == n_periods
        assert np.all(np.isnan(frame.macd_line))
        with pytest.raises(InsufficientHistoryError, match="MACD"):
            frame.row(n_periods - 1)


FRAME_COLUMNS = ("close", "macd_line", "signal_line", "histogram", "rsi",
                 "percent_k", "percent_d", "williams")


@st.composite
def window_settings(draw):
    short = draw(st.integers(1, 14))
    return {
        "macd_short": short,
        "macd_long": draw(st.integers(short + 1, 30)),
        "macd_trigger": draw(st.integers(1, 12)),
        "rsi_window": draw(st.integers(1, 30)),
        "stochastic_k": draw(st.integers(1, 15)),
        "stochastic_d": draw(st.integers(1, 5)),
        "williams_window": draw(st.integers(1, 40)),
    }


@st.composite
def period_series_draw(draw):
    """Random-walk period bars, 0-80 long, some with a flat stretch or a NaN.

    A flat stretch (open = high = low = close, unchanged) gives zero ranges
    and zero changes, so the neutral %K, Williams and RSI readings show up.
    """
    length = draw(st.integers(0, 80))
    days_per_period = draw(st.integers(1, 3))
    daily = random_walk_series("S", seed=draw(st.integers(0, 10_000)), periods=80,
                               days_per_period=days_per_period)
    bars = aggregate_periods(daily, days_per_period).bars[:length]
    start, stop = sorted((draw(st.integers(0, length)), draw(st.integers(0, length))))
    columns = [column.copy() for column in bars.columns()]
    if start < stop:
        for column in columns[:4]:
            column[start:stop] = bars.close[start]
    # a NaN price, which Bars accepts although parse_csv rejects it
    poisoned = draw(st.sampled_from([None, 1, 2, 3])) if length else None
    if poisoned is not None:
        columns[poisoned][draw(st.integers(0, length - 1))] = np.nan
    return PriceSeries("S", Bars(bars.date, *columns))


@st.composite
def signed_zero_bars(draw):
    """1-25 bars whose highs, lows and closes are drawn from {-1, -0.0, +0.0, 1}.

    Bars takes them although parse_csv rejects every one: windows whose
    extreme is a zero of both signs, and closes of -0.0, give zero %K values.
    """
    length = draw(st.integers(1, 25))
    prices = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), min_size=length, max_size=length)
    h, lo, c = (np.array(draw(prices)) for _ in range(3))
    dates = np.datetime64("2020-01-01") + np.arange(length)
    return PriceSeries("S", Bars(dates, c, h, lo, c, np.ones(length)))


class TestSnapshotIsTheFrameRow:
    @given(series=period_series_draw(), windows=st.one_of(st.just({}), window_settings()))
    @settings(max_examples=80, deadline=None)
    def test_every_prefix_snapshot_equals_the_frame_row_bit_for_bit(self, series, windows):
        # snapshot computes only the last row; the frame computes every row
        frame = indicator_frame(series, **windows)
        h, lo, c = series.bars.high, series.bars.low, series.bars.close
        rsi_window = windows.get("rsi_window", 21)
        williams_window = windows.get("williams_window", 30)
        for t in range(-1, len(c)):  # -1: the empty prefix
            prefix = PriceSeries("S", series.bars[:t + 1])
            try:
                want = frame.row(t)
            except InsufficientHistoryError as exc:
                with pytest.raises(InsufficientHistoryError, match=f"^{re.escape(str(exc))}$"):
                    snapshot(prefix, **windows)
            else:
                assert bits(snapshot(prefix, **windows)) == bits(want)
            # the last-row steps match their columns also before the MACD fills
            if t >= rsi_window:
                assert _rsi_last(c[:t + 1], rsi_window).hex() == frame.rsi[t].item().hex()
            if t + 1 >= williams_window:
                got = _percent_k_last(h[:t + 1], lo[:t + 1], c[t].item(), williams_window)
                assert (got - 100.0).hex() == frame.williams[t].item().hex()

    @given(series=signed_zero_bars())
    def test_a_zero_percent_k_has_one_sign_on_both_paths(self, series):
        # the last row's window min and the window runs may pick zeros of
        # opposite signs; the %K numerator is +0.0 either way
        h, lo, c = series.bars.high, series.bars.low, series.bars.close
        for t in range(len(c)):
            for k in range(1, min(t + 1, 15) + 1):
                assert _percent_k_last(h[:t + 1], lo[:t + 1], c[t].item(), k).hex() == \
                    _percent_k(h[:t + 1], lo[:t + 1], c[:t + 1], k)[-1].item().hex(), (t, k)
        for k in range(1, min(len(c), 15) + 1):
            windows = {"macd_short": 1, "macd_long": 2, "macd_trigger": 1, "rsi_window": 1,
                       "stochastic_k": k, "stochastic_d": 1, "williams_window": k}
            if len(c) >= max(k, 3):
                want = indicator_frame(series, **windows).row(len(c) - 1)
                assert bits(snapshot(series, **windows)) == bits(want), k

    def test_every_prefix_of_the_long_backtest_walk(self):
        # the seed-7 1,040-period walk of the backtest_long benchmark, read back
        # from its CSV: every window sum is long enough for numpy's unrolled add
        [daily] = parse_csv(serialize_csv(portfolio_fixture(7, 1, 1040, 15)))
        periods = aggregate_periods(daily, 15)
        frame = indicator_frame(periods)
        assert len(periods.bars) == 1040
        for t in range(frame.needed - 1, 1040):
            prefix = PriceSeries("S", periods.bars[:t + 1])
            assert bits(snapshot(prefix)) == bits(frame.row(t)), t


def exact(values):
    """Each float's 64 bits: unlike float.hex, it tells NaN payloads apart."""
    return [struct.pack("<d", value).hex() for value in values]


def from_scratch(compute, *args, **kwargs):
    """compute(*args, **kwargs) with the MACD entry cleared, and the entry put back after."""
    kept, indicators._macd_entry = indicators._macd_entry, None
    try:
        return compute(*args, **kwargs)
    finally:
        indicators._macd_entry = kept


def quiet_nan(payload):
    return np.array([0x7FF8_0000_0000_0000 | payload], np.uint64).view(np.float64).item()


NAN_A, NAN_B = quiet_nan(1), quiet_nan(2)


def twin(x):
    """A close with other bits: the other signed zero, the other NaN, or the next float."""
    if x == 0.0:
        return -x
    if x != x:
        return NAN_B if exact([x]) == exact([NAN_A]) else NAN_A
    return float(np.nextafter(x, np.inf))


@st.composite
def macd_windows(draw):
    short = draw(st.integers(1, 5))
    return short, draw(st.integers(short + 1, 8)), draw(st.integers(1, 5))


@st.composite
def macd_call_runs(draw):
    """Two or three close series and a run of calls on their prefixes.

    The closes mix ordinary floats with +-0.0, subnormals and two NaN
    payloads. The second series copies the first but for one early close,
    which gets other bits (twin). Each call grows the prefix by 0-3 closes,
    shrinks it, restarts it at the shortest length, moves to another series
    or to other windows; the prefix keeps to the lengths _macd_last takes.
    """
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, NAN_A, NAN_B]),
                       st.floats(-1e3, 1e3))
    first = draw(st.lists(values, min_size=13, max_size=30))
    early = draw(st.integers(0, 6))
    series = [first, [*first[:early], twin(first[early]), *first[early + 1:]]]
    if draw(st.booleans()):
        series.append(draw(st.lists(values, min_size=13, max_size=30)))
    windows = [draw(macd_windows()), draw(macd_windows())]
    moves = st.one_of(st.tuples(st.just("grow"), st.integers(0, 3)),
                      st.tuples(st.just("shrink"), st.integers(1, 6)),
                      st.tuples(st.just("restart"), st.just(0)),
                      st.tuples(st.just("series"), st.integers(0, len(series) - 1)),
                      st.tuples(st.just("windows"), st.integers(0, 1)))
    calls, s, w, n = [], 0, 0, 0
    for move, k in draw(st.lists(moves, min_size=1, max_size=25)):
        if move == "series":
            s = k
        elif move == "windows":
            w = k
        shortest = windows[w][1] + windows[w][2] - 1
        n = {"grow": n + k, "shrink": n - k, "restart": shortest}.get(move, n)
        n = min(max(n, shortest), len(series[s]))
        calls.append((s, n, w, draw(st.booleans())))
    return [np.array(closes) for closes in series], windows, calls


class TestMacdResume:
    @given(run=macd_call_runs())
    @settings(max_examples=150, deadline=None)
    def test_every_call_equals_a_call_from_scratch_bit_for_bit(self, run):
        series, windows, calls = run
        for s, n, w, via_snapshot in calls:
            short, long, trigger = windows[w]
            c = series[s][:n]
            if not via_snapshot:
                got = _macd_last(c, short, long, trigger)
                assert exact(got) == exact(from_scratch(_macd_last, c, short, long, trigger))
                continue
            bars = Bars(np.datetime64("2020-01-01") + np.arange(n), c, c, c, c, np.ones(n))
            prefix = PriceSeries("S", bars)
            config = {"macd_short": short, "macd_long": long, "macd_trigger": trigger,
                         "rsi_window": 1, "stochastic_k": 1, "stochastic_d": 1,
                         "williams_window": 1}
            try:
                want = from_scratch(snapshot, prefix, **config)
            except InsufficientHistoryError as exc:
                with pytest.raises(InsufficientHistoryError, match=f"^{re.escape(str(exc))}$"):
                    snapshot(prefix, **config)
            else:
                got = snapshot(prefix, **config)
                assert exact(dataclasses.astuple(got)) == exact(dataclasses.astuple(want))

    def test_a_call_on_longer_closes_steps_on_from_the_kept_state(self):
        c = random_closes(np.random.default_rng(4), 41)
        _macd_last(c[:40], 12, 26, 9)
        assert indicators._macd_entry[:2] == ((12, 26, 9), c[:40].tobytes())
        # a state no pass from the first close reaches: a call that uses it resumed
        poisoned = (12, 26, 9), c[:40].tobytes(), (1.0, 2.0, 3.0, 4.0)
        indicators._macd_entry = poisoned
        assert _macd_last(c[:40], 12, 26, 9) == (3.0, 4.0)
        indicators._macd_entry = poisoned
        assert _macd_last(c, 12, 26, 9) != from_scratch(_macd_last, c, 12, 26, 9)

    @pytest.mark.parametrize("n, windows", [(39, (12, 26, 9)), (41, (11, 26, 9)),
                                            (41, (12, 25, 9)), (41, (12, 26, 8))])
    def test_shorter_closes_or_other_windows_start_afresh(self, n, windows):
        c = random_closes(np.random.default_rng(5), 41)
        indicators._macd_entry = (12, 26, 9), c[:40].tobytes(), (1.0, 2.0, 3.0, 4.0)
        assert exact(_macd_last(c[:n], *windows)) == \
            exact(from_scratch(_macd_last, c[:n], *windows))

    def test_closes_too_few_to_seed_leave_no_entry(self):
        # a call below long + trigger - 1 closes ends mid-seed: nothing to resume
        indicators._macd_entry = None
        _macd_last(random_closes(np.random.default_rng(6), 33), 12, 26, 9)
        assert indicators._macd_entry is None

    def test_threads_racing_for_the_entry_each_get_their_own_bits(self):
        # four threads, each scoring every prefix of its own walk, replace the
        # entry under one another; a call may miss it but never mix two walks
        walks = [random_closes(np.random.default_rng(seed), 120) for seed in range(4)]
        want = [[exact(from_scratch(_macd_last, c[:n], 12, 26, 9)) for n in range(34, 121)]
                for c in walks]
        got = [None] * len(walks)

        def score(i):
            got[i] = [exact(_macd_last(walks[i][:n], 12, 26, 9)) for n in range(34, 121)]

        threads = [threading.Thread(target=score, args=(i,)) for i in range(len(walks))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    @pytest.mark.parametrize("kept, closes", [
        # equal by ==, but resuming would end on zeros of the other sign
        ([1.0, -1.0, 0.0], [1.0, -1.0, -0.0, -0.0]),
        ([1.0, -1.0, -0.0], [1.0, -1.0, 0.0, -0.0]),
        # equal but for a NaN payload, which resuming would carry on
        ([1.0, NAN_A], [1.0, NAN_B, 2.0]),
    ], ids=["plus-zero-kept", "minus-zero-kept", "nan-payload"])
    def test_closes_equal_only_by_value_start_afresh(self, kept, closes):
        _macd_last(np.array(kept), 1, 2, 1)
        got = _macd_last(np.array(closes), 1, 2, 1)
        assert exact(got) == exact(from_scratch(_macd_last, np.array(closes), 1, 2, 1))


class TestIndicatorBlock:
    @given(
        seed=st.integers(0, 10_000),
        groups=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 4)), min_size=1, max_size=4),
        days_per_period=st.integers(1, 4),
        windows=st.one_of(st.just({}), window_settings()),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_rows_equal_one_series_frames_bit_for_bit(
        self, seed, groups, days_per_period, windows
    ):
        # ragged groups (one block per period count), series shorter than every
        # window, and strided close columns when days_per_period > 1; the block
        # steps its EMAs as vectors, each one-series frame in Python floats
        for g, (length, members) in enumerate(groups):
            basket = [
                PriceSeries("S", aggregate_periods(random_walk_series(
                    "S", seed=seed + 100 * g + i, periods=61,
                    days_per_period=days_per_period), days_per_period).bars[:length])
                for i in range(members)
            ]
            block = indicator_block(*(np.stack([getattr(s.bars, name) for s in basket])
                                      for name in ("high", "low", "close")), **windows)
            for i, series in enumerate(basket):
                frame = indicator_frame(series, **windows)
                assert (block.binding, block.needed) == (frame.binding, frame.needed)
                for name in FRAME_COLUMNS:
                    # NaN positions included: compare the raw float64 bits
                    got, want = getattr(block, name)[i], getattr(frame, name)
                    assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("periods", [35, 36, 52, 260, 1040])
    def test_one_and_two_row_blocks_equal_the_one_series_frame(self, periods):
        # a one-row block steps its EMAs as its one series; a two-row block steps
        # them as vectors; both give the one-series frame's bits at every length
        series = aggregate_periods(random_walk_series("S", seed=periods, periods=periods), 15)
        bars = series.bars
        frame = indicator_frame(series)
        for rows in (1, 2):
            block = indicator_block(*(np.tile(getattr(bars, name), (rows, 1))
                                      for name in ("high", "low", "close")))
            for name in FRAME_COLUMNS:
                for got in getattr(block, name):
                    assert got.tobytes() == getattr(frame, name).tobytes(), (rows, name)
        closes = bars.close[None]
        assert ema(closes, 26).shape == (1, periods - 25)
        assert ema(closes, 26)[0].tobytes() == scalar_fold_ema(bars.close, 26).tobytes()

    def test_ema_block_feeds_windows_in_the_one_series_order(self):
        # MACD's signal line averages an EMA output; values using every mantissa
        # bit make the sum depend on the order the window adds them in
        block = np.random.default_rng(3).random((5, 80)) * 100.0
        smoothed = sma(ema(block, 12), 9)
        for i in range(5):
            assert smoothed[i].tobytes() == sma(ema(block[i], 12), 9).tobytes()

    def test_block_row_is_the_stack_of_one_series_snapshots(self):
        basket = [period_series(40, seed=s) for s in range(3)]
        block = indicator_block(*(np.stack([getattr(s.bars, name) for s in basket])
                                  for name in ("high", "low", "close")))
        rows = block.row(39)
        for i, series in enumerate(basket):
            want = snapshot(series)
            assert [x[i].hex() for x in dataclasses.astuple(rows)] == bits(want)
        with pytest.raises(InsufficientHistoryError, match="got 34$"):
            block.row(33)
