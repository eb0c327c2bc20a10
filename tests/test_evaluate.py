import gc
import hashlib
import json
import random
import weakref
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzsig.config import ConfigError, ResolvedConfig, parse_config_text
from fuzzsig.evaluate import (
    PortfolioReport,
    ReportRow,
    backtest,
    emit_report,
    format_1dp,
    run_portfolio,
)
from fuzzsig.fixtures import portfolio_fixture, random_walk_series
from fuzzsig.fuzzy import Triangular
from fuzzsig.indicators import InsufficientHistoryError
from fuzzsig.inference import (
    BLOCK_ROWS,
    PipelineError,
    Signal,
    build_rule_base,
    classify_signal,
    recommend,
    recommend_periods,
    rules_from_csv,
)
from fuzzsig.market_data import (
    Bars,
    MarketDataError,
    PriceSeries,
    parse_csv,
    serialize_csv,
)

from conftest import DATA_DIR
from helpers import aggregate_periods, bars_of, uptrend_series, with_cells


def _rows(report):
    return [(None if r.crisp is None else r.crisp.hex(), r.signal, r.note) for r in report.rows]


def _recommended(series, cfg):
    """A portfolio row of one series by the one-row path: aggregate_periods, then snapshot.

    recommend and run_portfolio take the block path; this is the backtest's.
    """
    try:
        periods = aggregate_periods(series, cfg.days_per_period)
        rec = recommend_periods(periods, cfg)
    except MarketDataError as exc:
        return (None, None, f"aggregation: {exc}")
    except PipelineError as exc:
        return (None, None, str(exc))
    return (rec.crisp.hex(), rec.signal, None)


class TestRunPortfolio:
    def test_ten_symbols_give_ten_consistent_rows(self):
        basket = portfolio_fixture(seed=404, symbols=10, periods=52)
        report = run_portfolio(basket)
        assert len(report.rows) == 10
        assert [r.symbol for r in report.rows] == [s.symbol for s in basket]
        for row in report.rows:
            assert row.signal is classify_signal(row.crisp)

    def test_bundled_fixture_reproduces_golden_bytes(self):
        basket = parse_csv((DATA_DIR / "portfolio_fixture.csv").read_bytes())
        report = run_portfolio(basket)
        assert emit_report(report, "csv") == (DATA_DIR / "golden_portfolio.csv").read_bytes()

    def test_short_symbol_is_isolated_as_row_note(self):
        basket = portfolio_fixture(seed=7, symbols=3, periods=52)
        stub = PriceSeries("STUB", basket[0].bars[: 5 * 15])
        report = run_portfolio(basket[:2] + [stub] + basket[2:])
        assert len(report.rows) == 4
        stub_row = report.rows[2]
        assert stub_row.symbol == "STUB"
        assert stub_row.crisp is None and stub_row.signal is None
        assert "indicators" in stub_row.note
        for row in (report.rows[0], report.rows[1], report.rows[3]):
            assert row.crisp is not None

    def test_variables_are_built_per_config_not_per_symbol(self, monkeypatch):
        import fuzzsig.config
        import fuzzsig.fuzzy

        calls = []
        original = fuzzsig.fuzzy.default_variables

        def counted(**kwargs):
            calls.append(1)
            return original(**kwargs)

        for module in (fuzzsig.config, fuzzsig.fuzzy):
            monkeypatch.setattr(module, "default_variables", counted)
        basket = portfolio_fixture(seed=12, symbols=10, periods=52)
        counts = []
        for symbols in (basket[:1], basket):
            calls.clear()
            run_portfolio(symbols, ResolvedConfig())
            counts.append(len(calls))
        assert counts == [2, 2]  # recommend_block's up-front check, then the grading

    def test_uncovered_table_fails_the_batch_before_any_row(self):
        # each row would fail sooner: on short history, or at aggregation
        table = dict(ResolvedConfig().mf_table)
        table["rsi"] = tuple((label, Triangular(0, 0.01, 0.02)) for label, _ in table["rsi"])
        cfg = ResolvedConfig(mf_table=table)
        short = random_walk_series("S", seed=1, periods=3)
        for call, arg in ((run_portfolio, [short, PriceSeries("T", short.bars[:5])]),
                          (recommend, short)):
            with pytest.raises(ConfigError, match="fuzzy variable 'rsi': terms cover"):
                call(arg, cfg)

    def test_empty_input_errors(self):
        with pytest.raises(ValueError, match="empty"):
            run_portfolio([])

    def test_series_without_bars_are_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            run_portfolio([PriceSeries("A", bars_of([])), PriceSeries("B", bars_of([]))])

    @pytest.mark.parametrize("line, weights", [
        ("rules.primary_weight = 1", {"primary_weight": 1}),
        ("rules.secondary_weight = 2", {"secondary_weight": 2}),
        ("rules.buy_at = 4", {"buy_at": 4}),
        ("rules.sell_at = -4", {"sell_at": -4}),
    ])
    def test_rules_keys_reach_the_rule_base(self, line, weights):
        basket = portfolio_fixture(seed=4, symbols=12, periods=52)
        expected = _rows(run_portfolio(basket, ResolvedConfig(rule_table=build_rule_base(**weights))))
        assert expected != _rows(run_portfolio(basket))
        assert _rows(run_portfolio(basket, parse_config_text(line))) == expected

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.2])
    def test_block_rows_equal_per_symbol_recommend(self, delta):
        # the rows run through grading, firing and type reduction in blocks of
        # BLOCK_ROWS; each must equal the one-symbol pipeline bit for bit
        assert BLOCK_ROWS == 64
        cfg = ResolvedConfig(delta=delta, days_per_period=1)
        basket = portfolio_fixture(seed=29, symbols=130, periods=38, days_per_period=1)
        for n in (1, 63, 64, 65, 130):
            symbols = list(basket[:n])
            if n > 1:  # too short for a snapshot, in the middle of the first block
                mid = n // 2 if n < BLOCK_ROWS else 40
                symbols[mid] = PriceSeries(symbols[mid].symbol, symbols[mid].bars[:30])
            assert _rows(run_portfolio(symbols, cfg)) == [_recommended(s, cfg) for s in symbols]
        # a ragged basket: one indicator block per period count, its rows
        # interleaved across the block boundary, plus one series exactly as long
        # as the snapshot needs (35), one too short and one failing aggregation
        ragged = portfolio_fixture(seed=37, symbols=130, periods=60, days_per_period=1)
        ragged = [PriceSeries(s.symbol, s.bars[:(38, 45, 60)[i % 3]])
                  for i, s in enumerate(ragged)]
        ragged[62] = PriceSeries(ragged[62].symbol, ragged[62].bars[:35])
        ragged[63] = PriceSeries(ragged[63].symbol, ragged[63].bars[:34])
        ragged[64] = PriceSeries(ragged[64].symbol, bars_of([]))
        rows = _rows(run_portfolio(ragged, cfg))
        assert rows == [_recommended(s, cfg) for s in ragged]
        assert rows[62][0] is not None
        assert rows[63][2].startswith("indicators: snapshot needs at least 35 period bars")
        assert rows[64][2].startswith("aggregation: ")

    def test_close_above_the_high_note_matches_the_one_symbol_note(self):
        # a close above the trailing high (a bar no CSV passes) would put %K
        # above 100; it fails at aggregation, in the block as for the one symbol
        basket = portfolio_fixture(seed=41, symbols=3, periods=60, days_per_period=1)
        bars = basket[1].bars
        basket[1] = with_cells(basket[1], close={-1: max(bars.high[-30:].tolist()) * 1.001})
        cfg = ResolvedConfig(days_per_period=1)
        rows = _rows(run_portfolio(basket, cfg))
        assert rows == [_recommended(s, cfg) for s in basket]
        prefix = f"aggregation: SYN01: bar 59 ({bars.date[-1]}): low/high must bracket open/close"
        assert rows[1][2].startswith(prefix)
        assert rows[0][0] is not None and rows[2][0] is not None

    def test_nan_high_note_matches_the_one_symbol_note(self):
        # a NaN high (a bar no CSV passes) inside the Williams window fails the
        # row at aggregation, in the block as for the one symbol
        basket = portfolio_fixture(seed=41, symbols=3, periods=60, days_per_period=1)
        basket[1] = with_cells(basket[1], high={-20: float("nan")})
        cfg = ResolvedConfig(days_per_period=1)
        rows = _rows(run_portfolio(basket, cfg))
        assert rows == [_recommended(s, cfg) for s in basket]
        assert rows[1][2] == (
            "aggregation: SYN01: bar 40 (2017-02-12): prices and volume must be finite, got "
            "open=68.7514 high=nan low=67.9678 close=69.3455 volume=880490.0")

    @given(seed=st.integers(0, 10_000), delta=st.sampled_from([0.0, 0.05]),
           order=st.permutations(range(8)))
    @settings(max_examples=15)
    def test_ragged_basket_rows_follow_any_input_order(self, seed, delta, order):
        # three period counts, one series too short for a snapshot and one
        # without bars: each length group is evaluated on its own
        cfg = ResolvedConfig(delta=delta, days_per_period=1)
        basket = [PriceSeries(s.symbol, s.bars[:length]) for s, length in zip(
            portfolio_fixture(seed=seed, symbols=8, periods=60, days_per_period=1),
            (38, 45, 60, 38, 45, 60, 30, 0))]
        rows = run_portfolio(basket, cfg).rows
        permuted = run_portfolio([basket[i] for i in order], cfg).rows

        def bits(row):
            return (row.symbol, None if row.crisp is None else row.crisp.hex(), row.note)

        assert [bits(row) for row in permuted] == [bits(rows[i]) for i in order]
        assert rows[6].note.startswith("indicators: ")
        assert rows[7].note.startswith("aggregation: ")

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_rows_without_a_fired_rule_fail_alone(self, delta):
        one_rule = rules_from_csv("macd,rsi,so,wa,consequent\nlow,medium,medium,low,hold\n")
        cfg = ResolvedConfig(delta=delta, days_per_period=1, rule_table=one_rule)
        basket = portfolio_fixture(seed=31, symbols=70, periods=38, days_per_period=1)
        rows = _rows(run_portfolio(basket, cfg))
        assert rows == [_recommended(s, cfg) for s in basket]
        notes = [row[2] for row in rows if row[0] is None]
        assert 0 < len(notes) < len(rows)
        stage = "type reduction" if delta else "defuzzification"
        assert set(notes) == {f"{stage}: no rule fired: aggregate output is identically zero"}

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_row_order_follows_input_order(self, seed):
        basket = portfolio_fixture(seed=seed, symbols=4, periods=52)
        fwd = run_portfolio(basket)
        rev = run_portfolio(basket[::-1])
        assert list(fwd.rows) == list(rev.rows[::-1])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_shuffled_csv_rows_give_the_same_crisp_values(self, seed):
        basket = portfolio_fixture(seed=seed, symbols=4, periods=52)
        header, *lines = serialize_csv(basket).decode().splitlines()
        random.Random(seed).shuffle(lines)
        shuffled = parse_csv("\n".join([header, *lines]).encode())
        crisp = {row.symbol: row.crisp for row in run_portfolio(basket).rows}
        assert {row.symbol: row.crisp for row in run_portfolio(shuffled).rows} == crisp

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_price_rescale_leaves_crisp_values(self, seed):
        # every input is a price ratio; a power-of-two factor scales exactly
        def scaled(factor):
            return [PriceSeries(s.symbol, Bars(
                s.bars.date, s.bars.open * factor, s.bars.high * factor, s.bars.low * factor,
                s.bars.close * factor, s.bars.volume)) for s in basket]

        basket = portfolio_fixture(seed=seed, symbols=4, periods=52)
        crisp = [row.crisp for row in run_portfolio(basket).rows]
        assert [row.crisp for row in run_portfolio(scaled(4.0)).rows] == crisp
        assert [row.crisp for row in run_portfolio(scaled(3.0)).rows] == pytest.approx(
            crisp, rel=0, abs=1e-12)

    def test_fingerprint_changes_iff_config_changes(self):
        basket = portfolio_fixture(seed=3, symbols=2, periods=52)
        base = run_portfolio(basket)
        same = run_portfolio(basket, ResolvedConfig())
        bumped = run_portfolio(basket, ResolvedConfig(delta=0.1))
        assert base.config_fingerprint == same.config_fingerprint
        assert base.config_fingerprint != bumped.config_fingerprint

    def test_generated_at_defaults_to_last_bar_date(self):
        basket = portfolio_fixture(seed=3, symbols=2, periods=52)
        report = run_portfolio(basket)
        assert report.generated_at == max(s.bars.date[-1].item() for s in basket)
        assert type(report.generated_at) is date


_ODD_CELLS = ["", " ", "nan", "inf", "-inf", "-1", "0", "1e308", "1e-320", "x", "2020-02-30",
              "\"", "\xe9", "1,2"]


@st.composite
def csv_documents(draw):
    """Raw bytes, or a valid daily OHLCV CSV with a few cells replaced by odd text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=200))
    lines = [",".join(("symbol", "date", "open", "high", "low", "close", "volume"))]
    for symbol in draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True)):
        price = draw(st.floats(1e-3, 1e6))
        days = draw(st.integers(0, 45) | st.integers(35, 45))  # a snapshot needs 35
        for i, step in enumerate(draw(st.lists(st.floats(-0.2, 0.2), min_size=days,
                                               max_size=days))):
            close = price * (1.0 + step)
            day = date(2020, 1, 1) + timedelta(days=i)
            lines.append(",".join((symbol, day.isoformat(), repr(price), repr(max(price, close)),
                                   repr(min(price, close)), repr(close), "100")))
            price = close
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        cells[draw(st.integers(0, 6))] = draw(st.sampled_from(_ODD_CELLS) | st.text(max_size=4))
        lines[i] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")


class TestArbitraryInput:
    @given(data=csv_documents())
    @settings(max_examples=80)
    def test_csv_bytes_fail_as_market_data_or_give_unit_crisp(self, data):
        try:
            series_list = parse_csv(data)
        except MarketDataError:
            return
        if not series_list:  # a bare header: nothing to report
            return
        for row in run_portfolio(series_list, ResolvedConfig(days_per_period=1)).rows:
            if row.crisp is None:
                assert row.note and row.signal is None
            else:
                assert 0.0 <= row.crisp <= 1.0
                assert row.signal is classify_signal(row.crisp)


def _poked(series, day, column):
    return with_cells(series, **{column: {day: float("nan")}})


class TestNonFinitePrices:
    # a NaN bar, which parse_csv rejects but a library caller can build, fails
    # at aggregation under its own name rather than as a later stage's symptom
    CASES = [
        (3, "high", "S: bar 3 (2017-01-06): prices and volume must be finite, got "
                    "open=129.8925 high=nan low=126.0412 close=130.5763 volume=687840.0"),
        (14, "close", "S: bar 14 (2017-01-17): prices and volume must be finite, got "
                      "open=129.2551 high=133.5547 low=125.2955 close=nan volume=320709.0"),
    ]

    @pytest.mark.parametrize("day, column, message", CASES)
    def test_recommend_fails_at_aggregation(self, day, column, message):
        with pytest.raises(PipelineError) as caught:
            recommend(_poked(random_walk_series("S", 3, periods=60), day, column))
        assert caught.value.stage == "aggregation"
        assert str(caught.value) == f"aggregation: {message}"

    @pytest.mark.parametrize("day, column, message", CASES)
    def test_portfolio_row_note_names_the_bar(self, day, column, message):
        basket = portfolio_fixture(seed=5, symbols=2, periods=60)
        poked = _poked(random_walk_series("S", 3, periods=60), day, column)
        rows = run_portfolio([basket[0], poked, basket[1]]).rows
        assert rows[1].crisp is None and rows[1].note == f"aggregation: {message}"
        assert rows[0].crisp is not None and rows[2].crisp is not None

    @pytest.mark.parametrize("day, column, message", CASES)
    def test_backtest_fails_at_aggregation(self, day, column, message):
        with pytest.raises(MarketDataError) as caught:
            backtest(_poked(random_walk_series("S", 3, periods=60), day, column))
        assert str(caught.value) == message


def _redated(series, moves):
    """The series with bar i dated as bar j is, for each (i, j) in moves."""
    return with_cells(series, date={i: series.bars.date[j] for i, j in moves})


class TestDatesNotIncreasing:
    # a reversed pair or a repeated date, which parse_csv rejects but a library
    # caller can build, fails at aggregation instead of giving a plausible signal
    CASES = [
        (((14, 15), (15, 14)), "S: bar 15 (2017-01-17): bar dates must increase strictly: "
                               "2017-01-18 then 2017-01-17"),
        (((20, 19),), "S: bar 20 (2017-01-22): bar dates must increase strictly: "
                      "2017-01-22 then 2017-01-22"),
    ]

    @pytest.mark.parametrize("moves, message", CASES)
    def test_recommend_fails_at_aggregation(self, moves, message):
        with pytest.raises(PipelineError) as caught:
            recommend(_redated(random_walk_series("S", 3, periods=60), moves))
        assert caught.value.stage == "aggregation"
        assert str(caught.value) == f"aggregation: {message}"

    @pytest.mark.parametrize("moves, message", CASES)
    def test_portfolio_row_note_names_the_bar(self, moves, message):
        basket = portfolio_fixture(seed=5, symbols=2, periods=60)
        redated = _redated(random_walk_series("S", 3, periods=60), moves)
        rows = run_portfolio([basket[0], redated, basket[1]]).rows
        assert rows[1].crisp is None and rows[1].note == f"aggregation: {message}"
        assert [rows[0], rows[2]] == list(run_portfolio(basket).rows)

    @pytest.mark.parametrize("moves, message", CASES)
    def test_backtest_fails_at_aggregation(self, moves, message):
        with pytest.raises(MarketDataError) as caught:
            backtest(_redated(random_walk_series("S", 3, periods=60), moves))
        assert str(caught.value) == message


@st.composite
def aggregation_baskets(draw):
    """(days_per_period, basket): ragged lengths in two period-count groups, faults, any order."""
    d = draw(st.sampled_from([1, 5, 15]))
    seed = draw(st.integers(0, 10_000))
    basket = []
    for i, count in enumerate((36, 36, 36, 40, 40, 34)):  # 34 periods: too few for a snapshot
        full = random_walk_series(f"S{i}", seed + i, periods=count + 1, days_per_period=d)
        basket.append(PriceSeries(full.symbol, full.bars[:count * d + draw(st.integers(0, d - 1))]))
    # NaN open and volume are read by no indicator, yet fail at aggregation as NaN high does
    for fault in draw(st.lists(st.sampled_from(["open", "volume", "high", "repeat", "backward"]),
                               max_size=3)):
        i = draw(st.integers(0, len(basket) - 1))
        bar = draw(st.integers(1, len(basket[i].bars) - 1))
        basket[i] = (_redated(basket[i], [(bar, bar - 1)]) if fault == "repeat" else
                     _redated(basket[i], [(bar - 1, bar), (bar, bar - 1)]) if fault == "backward"
                     else _poked(basket[i], bar, fault))
    short = random_walk_series("SHORT", seed, periods=1, days_per_period=d)
    basket += [PriceSeries("SHORT", short.bars[:d - 1]), PriceSeries("EMPTY", bars_of([]))]
    return d, draw(st.permutations(basket))


class TestBlockAggregation:
    @given(case=aggregation_baskets(), delta=st.sampled_from([0.0, 0.05]))
    @settings(max_examples=25)
    def test_portfolio_rows_equal_per_series_recommend(self, case, delta):
        # each period-count group is aggregated in one call; every row, its
        # failure note included, must equal the one-series pipeline bit for bit
        d, basket = case
        cfg = ResolvedConfig(delta=delta, days_per_period=d)
        assert _rows(run_portfolio(basket, cfg)) == [_recommended(s, cfg) for s in basket]


class TestBacktest:
    def test_monotone_rising_series_pairs_positive_returns(self):
        stats = backtest(uptrend_series(periods=45))
        assert len(stats.records) >= 2
        assert all(r.next_return > 0 for r in stats.records)
        assert stats.buy_hit_rate in (None, 1.0)
        if stats.buy_hit_rate is not None:
            assert any(r.signal is Signal.BUY for r in stats.records)

    def test_signals_equal_recommend_on_truncated_prefix(self):
        cfg = ResolvedConfig()
        series = random_walk_series("S", seed=88, periods=45)
        stats = backtest(series, cfg)
        periods = aggregate_periods(series, cfg.days_per_period)
        for record in stats.records:
            assert type(record.date) is date
            assert record.date == periods.bars.date[record.period_index].item()
            cutoff = (record.period_index + 1) * cfg.days_per_period
            prefix = PriceSeries(series.symbol, series.bars[:cutoff])
            again = recommend(prefix, cfg)
            assert again.signal is record.signal

    def test_keeps_no_parsed_table_alive(self):
        # the period columns are copies even for one-day periods, and so are the
        # closes the MACD entry keeps
        [series] = parse_csv(serialize_csv([random_walk_series("S", seed=3, periods=60,
                                                               days_per_period=1)]))
        column = weakref.ref(series.bars.close.base)
        assert len(backtest(series, ResolvedConfig(days_per_period=1)).records) >= 2
        del series
        gc.collect()
        assert column() is None

    def test_stats_match_two_pass_recomputation(self):
        cfg = ResolvedConfig()
        series = random_walk_series("S", seed=15, periods=50)
        stats = backtest(series, cfg)
        periods = aggregate_periods(series, cfg.days_per_period)
        closes = periods.bars.close.tolist()
        expected = []
        for t in range(len(periods.bars) - 1):
            prefix = PriceSeries(series.symbol, periods.bars[:t + 1])
            try:
                from fuzzsig.inference import recommend_periods

                sig = recommend_periods(prefix, cfg).signal
            except Exception:
                continue
            expected.append((t, sig, (closes[t + 1] - closes[t]) / closes[t]))
        assert [(r.period_index, r.signal, r.next_return) for r in stats.records] == expected
        buys = [r for _, s, r in expected if s is Signal.BUY]
        sells = [r for _, s, r in expected if s is Signal.SELL]
        want_buy = sum(r > 0 for r in buys) / len(buys) if buys else None
        want_sell = sum(r < 0 for r in sells) / len(sells) if sells else None
        assert stats.buy_hit_rate == want_buy
        assert stats.sell_hit_rate == want_sell

    def test_hit_rates_bounded(self):
        stats = backtest(random_walk_series("S", seed=31, periods=50))
        for rate in (stats.buy_hit_rate, stats.sell_hit_rate):
            assert rate is None or 0.0 <= rate <= 1.0

    def test_insufficient_history_errors(self):
        with pytest.raises(InsufficientHistoryError, match="backtest"):
            backtest(random_walk_series("S", seed=1, periods=36))

    def test_uncovered_table_is_a_config_error_not_short_history(self):
        # every prefix fails; the first one past the indicator windows must
        # surface the config fault instead of being skipped like short history
        table = dict(ResolvedConfig().mf_table)
        table["rsi"] = tuple((label, Triangular(0, 0.01, 0.02)) for label, _ in table["rsi"])
        cfg = ResolvedConfig(mf_table=table)
        series = random_walk_series("S", seed=2, periods=45)
        for call in (backtest, recommend):
            with pytest.raises(ConfigError, match="fuzzy variable 'rsi': terms cover"):
                call(series, cfg)


def _sha256_lines(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class TestPrefixPins:
    """Every scorable prefix of a 300-period walk, through the one-row path, pinned bit for bit.

    The backtest scores one prefix at a time, so these digests guard the
    indicator recursion, the variable build, firing and type reduction of a
    single row. The values were recorded with the numpy-scalar EMA fold,
    uncached variable and output-grid builds, math.exp Gaussian grades and
    BLAS-free centroid sums, so they hold on any CPU and BLAS kernel.
    """

    @pytest.mark.parametrize("delta, crisp_digest, interval_digest", [
        (0.0, "38aa40d1d500f5c0f57fdf497d5f6e03674b3d7e3400ef270c872c814989aa48",
         # no centroid intervals at delta 0: the digest of no lines
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (0.05, "6fe721c87e67ff3f1f3c8f12bc12bae02f3bffc0df9b4f4698c2332b24512682",
         "cebb783d6e735b7d040ec78920be4d34e8d0b755d3b5260670851603ff3d3d05"),
    ])
    def test_recommend_periods_on_every_prefix_is_pinned(self, delta, crisp_digest,
                                                         interval_digest):
        cfg = ResolvedConfig(delta=delta)
        periods = aggregate_periods(random_walk_series("W", 11, periods=300), cfg.days_per_period)
        crisp, intervals = [], []
        for t in range(len(periods.bars)):
            try:
                rec = recommend_periods(PriceSeries("W", periods.bars[:t + 1]), cfg)
            except PipelineError:
                continue
            crisp.append(f"{t}:{rec.crisp.hex()}")
            if rec.centroid_interval is not None:
                y_l, y_r = rec.centroid_interval
                intervals.append(f"{t}:{y_l.hex()},{y_r.hex()}")
        assert len(crisp) == 266
        assert _sha256_lines(crisp) == crisp_digest
        assert _sha256_lines(intervals) == interval_digest


def reference_report():
    rows = (
        ReportRow("CHAMS", 0.3, Signal.SELL),
        ReportRow("DANGCEM", 0.7, Signal.BUY),
        ReportRow("FLOURMILL", 0.4, Signal.HOLD),
        ReportRow("ACCESS", 0.7, Signal.BUY),
        ReportRow("FO", 0.3, Signal.SELL),
        ReportRow("GUARANTY", 0.7, Signal.BUY),
        ReportRow("JBERGER", 0.4, Signal.HOLD),
        ReportRow("AGLEVENT", 0.3, Signal.SELL),
        ReportRow("GUINNESS", 0.4, Signal.HOLD),
        ReportRow("NB", 0.7, Signal.BUY),
    )
    return PortfolioReport(rows, date(2020, 3, 23), ResolvedConfig())


def assert_json_holds(report):
    """The json report carries every field of `report`, the crisp values at full precision."""
    payload = json.loads(emit_report(report, "json"))
    assert payload["as_of"] == report.generated_at.isoformat()
    assert payload["config_fingerprint"] == report.config_fingerprint
    assert len(payload["rows"]) == len(report.rows)
    for entry, row in zip(payload["rows"], report.rows):
        assert entry["symbol"] == row.symbol
        assert entry["fuzzy_output"] == row.crisp  # json keeps a float's every bit
        assert entry["signal"] == (None if row.signal is None else row.signal.value)
        assert entry["note"] == row.note


class TestEmitReport:
    def test_csv_rows_match_reference_table(self):
        text = emit_report(reference_report(), "csv").decode()
        lines = text.strip().split("\n")
        assert lines[0] == "symbol,fuzzy_output,signal"
        assert "CHAMS,0.3,Sell" in lines
        assert "DANGCEM,0.7,Buy" in lines
        assert "FLOURMILL,0.4,Hold" in lines
        assert "GUARANTY,0.7,Buy" in lines
        assert len(lines) == 11

    def test_json_round_trip(self):
        report = run_portfolio(portfolio_fixture(seed=5, symbols=3, periods=52))
        assert_json_holds(report)

    def test_plotdata_preserves_row_order(self):
        report = reference_report()
        lines = emit_report(report, "plotdata").decode().strip().split("\n")
        assert [line.split("\t")[0] for line in lines] == [r.symbol for r in report.rows]

    def test_error_rows_survive_csv_and_json(self):
        report = PortfolioReport(
            (ReportRow("OK", 0.5, Signal.HOLD), ReportRow("BAD", None, None, note="boom")),
            date(2020, 1, 1), ResolvedConfig(delta=0.1),
        )
        text = emit_report(report, "csv").decode()
        assert "BAD,,error: boom" in text
        assert_json_holds(report)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            emit_report(reference_report(), "xml")


class TestRounding:
    @pytest.mark.parametrize("value,expected", [
        (0.25, "0.3"),     # half rounds up
        (0.349999, "0.3"),
        (0.35, "0.4"),
        (0.74999, "0.7"),
        (0.0, "0.0"),
        (1.0, "1.0"),
    ])
    def test_half_up_to_one_decimal(self, value, expected):
        assert format_1dp(value) == expected
