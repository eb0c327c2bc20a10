import csv
import functools
import hashlib
import io
import itertools
import json
import random
import re
from datetime import date, timedelta
from pathlib import Path

import pytest

from fuzzsig import _frozen
from fuzzsig.cli import run
from fuzzsig.config import ResolvedConfig
from fuzzsig.fixtures import portfolio_fixture
from fuzzsig.fuzzy import _variables
from fuzzsig.inference import ANTECEDENT_TERMS, build_rule_base, rules_to_csv
from fuzzsig.market_data import (CSV_HEADER, Bars, MarketDataError, PriceSeries, parse_csv,
                                 serialize_csv)

from conftest import DATA_DIR, PORTFOLIO_JSON_PINS, pinned
from helpers import aggregate_periods, coverage_checks, flat_series


@pytest.fixture
def basket_csv(tmp_path):
    path = tmp_path / "basket.csv"
    path.write_bytes(serialize_csv(portfolio_fixture(seed=9, symbols=3, periods=52)))
    return str(path)


@pytest.fixture
def bundled_fixtures(tmp_path):
    """The bundled fixture, and a copy with every symbol cell quoted.

    A '"' keeps np.loadtxt out, so the copy is read by the csv-module parser.
    """
    plain = DATA_DIR / "portfolio_fixture.csv"
    header, body = plain.read_text().split("\n", 1)
    quoted = tmp_path / "quoted_fixture.csv"
    quoted.write_text(header + "\n" + re.sub(r"^([^,\n]+),", r'"\1",', body, flags=re.M))
    return [str(plain), str(quoted)]


@pytest.fixture
def flat_csv(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_bytes(serialize_csv([flat_series()]))
    return str(path)


@pytest.fixture
def top_close_csv(tmp_path):
    """41 daily bars; bar 39 closes at the highest high of every window ending there.

    Every other bar has low 13.0, so %K's span there is 13.9502 - 13.0, for
    which 100 * span / span rounds to one ulp above 100.
    """
    rows = [",".join(CSV_HEADER)]
    for day in range(41):
        stamp = (date(2020, 1, 1) + timedelta(days=day)).isoformat()
        bar = "13.9,13.9502,13.88,13.9502" if day == 39 else "13.5,13.9,13.0,13.5"
        rows.append(f"XYZ,{stamp},{bar},1000")
    path = tmp_path / "top_close.csv"
    path.write_text("\n".join(rows) + "\n")
    first_40 = tmp_path / "top_close_40.csv"
    first_40.write_text("\n".join(rows[:41]) + "\n")
    return str(first_40), str(path)


class TestCloseAtTheWindowHigh:
    """A close at its windows' high gives %K 100 and Williams 0 in every command."""

    def test_signal(self, top_close_csv, capsys):
        assert run(["signal", top_close_csv[0], "--symbol", "XYZ", "--period-days", "1"]) == 0
        assert capsys.readouterr().out.startswith("XYZ fuzzy_output=")

    def test_portfolio(self, top_close_csv, capsys):
        assert run(["portfolio", top_close_csv[0], "--period-days", "1"]) == 0
        [row] = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert row["signal"] in ("Sell", "Hold", "Buy") and row["fuzzy_output"]

    def test_indicators(self, top_close_csv, capsys):
        assert run(["indicators", top_close_csv[0], "--period-days", "1"]) == 0
        last = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[-1]
        assert (last["period"], last["percent_k"], last["williams"]) == ("39", "100.0", "0.0")

    def test_backtest_keeps_the_period(self, top_close_csv, capsys):
        assert run(["backtest", top_close_csv[1], "--symbol", "XYZ", "--period-days", "1"]) == 0
        periods = [row["period_index"]
                   for row in csv.DictReader(io.StringIO(capsys.readouterr().out))]
        assert periods[-1] == "39"


class TestRulesDump:
    def test_dumps_exactly_36_rules_with_scores(self, capsys):
        assert run(["rules", "dump"]) == 0
        out = capsys.readouterr().out
        data_lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert data_lines[0] == "macd,rsi,so,wa,consequent,score"
        assert len(data_lines) == 37
        assert "high,high,low,high,buy,6" in data_lines
        assert "low,low,high,low,sell,-6" in data_lines

    def test_dump_includes_resolved_fuzzy_table(self, capsys):
        run(["rules", "dump"])
        out = capsys.readouterr().out
        assert "# fuzzy.delta = 0.05" in out
        assert "# fuzzy.wa.high = gaussian 0.618 0.22" in out

    @pytest.mark.parametrize("line, weights", [
        ("rules.primary_weight = 3", {"primary_weight": 3}),
        ("rules.secondary_weight = 2", {"secondary_weight": 2}),
        ("rules.buy_at = 4", {"buy_at": 4}),
        ("rules.sell_at = -4", {"sell_at": -4}),
    ])
    def test_dump_follows_rules_keys(self, line, weights, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(line + "\n")
        assert run(["rules", "dump", "--config", str(cfg)]) == 0
        rules = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        expected = rules_to_csv(build_rule_base(**weights)).splitlines()
        assert expected != rules_to_csv(build_rule_base()).splitlines()
        assert rules == expected


class TestSignal:
    def test_flat_fixture_is_neutral_hold(self, flat_csv, capsys):
        assert run(["signal", flat_csv, "--symbol", "FLAT"]) == 0
        out = capsys.readouterr().out
        assert "fuzzy_output=0.500000" in out
        assert "signal=Hold" in out

    def test_json_format(self, flat_csv, capsys):
        assert run(["signal", flat_csv, "--symbol", "FLAT", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["signal"] == "Hold"
        assert payload["fuzzy_output"] == pytest.approx(0.5, abs=1e-6)
        assert payload["centroid_interval"][0] <= 0.5 <= payload["centroid_interval"][1]

    @pytest.mark.parametrize("fmt, flags, digest", pinned(
        ("text", ["--delta", "0"], "db4871dedc6d359f193b36b888e9d214632ea1be12023053a85902db34efb55d"),
        ("json", ["--delta", "0"], "14cbdbae3b7f64aa33c627a0af462b41db125b670aaafed5eab752423744bddb"),
        ("text", [], "a23142b7fa63a04cc533faa64b17219c2891f91ee2335e6cd54d733802c6eec1"),
        ("json", [], "dad967db2cedff89b6c7f01672c16e36d42bf07cafb0ba073b7f70e0ad17774d"),
        ("text", ["--delta", "0.15"],
         "475e472fa4657c479904364c65b0e4f10963d9da380adbd60b259b6b79b55d65"),
        ("json", ["--delta", "0.15"],
         "6b983f9df238e1c485fb2f99ad8a980337b4ac484cccbd4ce1c2190fba78c296"),
    ))
    def test_bundled_fixture_bytes_are_pinned(self, fmt, flags, digest, capsysbinary):
        # every symbol's signal, its full-precision fuzzy output included
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        for i in range(10):
            assert run(["signal", fixture, "--symbol", f"SYN{i:02d}", "--format", fmt,
                        *flags]) == 0
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest

    @pytest.mark.parametrize("flags", [flags for flags, _ in PORTFOLIO_JSON_PINS])
    def test_bundled_fixture_equals_the_portfolio_rows(self, flags, capsys):
        # signal is the one-series case of the portfolio's block path
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        assert run(["portfolio", fixture, "--format", "json", *flags]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 10
        for row in rows:
            assert run(["signal", fixture, "--symbol", row["symbol"], "--format", "json",
                        *flags]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["fuzzy_output"] is not None
            assert payload["fuzzy_output"] == row["fuzzy_output"], row["symbol"]
            assert payload["signal"] == row["signal"], row["symbol"]
            assert (payload["centroid_interval"] is None) == (flags == ["--delta", "0"])

    def test_unknown_symbol_exits_1(self, flat_csv, capsys):
        assert run(["signal", flat_csv, "--symbol", "NOPE"]) == 1
        assert "NOPE" in capsys.readouterr().err

    def test_pipeline_error_names_stage(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        series = flat_series(periods=3)
        path.write_bytes(serialize_csv([series]))
        assert run(["signal", str(path), "--symbol", "FLAT"]) == 1
        assert "indicators" in capsys.readouterr().err


class TestPortfolio:
    def test_bundled_fixture_gives_golden_bytes(self, bundled_fixtures, capsysbinary):
        for fixture in bundled_fixtures:
            assert run(["portfolio", fixture, "--format", "csv"]) == 0
            assert (capsysbinary.readouterr().out
                    == (DATA_DIR / "golden_portfolio.csv").read_bytes()), fixture

    @pytest.mark.parametrize("flags,digest", pinned(*PORTFOLIO_JSON_PINS))
    def test_bundled_fixture_json_bytes_are_pinned(self, flags, digest, bundled_fixtures,
                                                   capsysbinary):
        for fixture in bundled_fixtures:
            assert run(["portfolio", fixture, "--format", "json", *flags]) == 0
            assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest, fixture

    def test_rules_file_moves_only_the_json_fingerprint(self, tmp_path, capsys):
        # the built base as a table scores every row alike, and the fingerprint covers it
        rules = tmp_path / "rules.csv"
        rules.write_text(rules_to_csv(ResolvedConfig().rule_base))
        argv = ["portfolio", str(DATA_DIR / "portfolio_fixture.csv"), "--format", "json"]
        assert run(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert run([*argv, "--rules", str(rules)]) == 0
        tabled = capsys.readouterr().out.splitlines()
        assert len(tabled) == len(plain)
        changed = [(a, b) for a, b in zip(plain, tabled) if a != b]
        assert [a for a, _ in changed] == ['  "config_fingerprint": "acb9fcbedc01",']
        assert changed[0][1].startswith('  "config_fingerprint": ')

    def test_double_run_is_bit_identical(self, basket_csv, capsysbinary):
        for fmt in ("csv", "json", "plotdata"):
            run(["portfolio", basket_csv, "--format", fmt])
            first = capsysbinary.readouterr().out
            run(["portfolio", basket_csv, "--format", fmt])
            assert capsysbinary.readouterr().out == first

    def test_exit_zero_with_failing_rows(self, tmp_path, capsys):
        good = flat_series("GOOD")
        bad = flat_series("BAD", periods=2)
        path = tmp_path / "mixed.csv"
        path.write_bytes(serialize_csv([good, bad]))
        assert run(["portfolio", str(path)]) == 0
        out = capsys.readouterr().out
        assert "GOOD,0.5,Hold" in out
        assert 'BAD,,"error:' in out

    def test_plotdata_without_a_scored_row_is_empty(self, capsysbinary):
        # 30-day periods leave every bundled symbol 26 periods, too few for a snapshot
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        assert run(["portfolio", fixture, "--format", "plotdata", "--period-days", "30"]) == 0
        assert capsysbinary.readouterr().out == b""

    def test_nan_price_exits_1_naming_the_row(self, basket_csv, tmp_path, capsys):
        lines = Path(basket_csv).read_text().splitlines()
        fields = lines[5].split(",")
        fields[5] = "nan"  # the close of data row 6
        lines[5] = ",".join(fields)
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(lines) + "\n")
        assert run(["portfolio", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "row 6" in captured.err and "finite" in captured.err


class TestIndicatorsCommand:
    def test_table_has_expected_columns(self, basket_csv, capsys):
        assert run(["indicators", basket_csv, "--symbol", "SYN00"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("symbol,period,date,close,macd,macd_signal,"
                            "macd_histogram,rsi,rsi_level,percent_k,percent_d,"
                            "williams,williams_level")
        assert len(lines) == 53
        # indicator cells are blank until their window fills
        first = lines[1].split(",")
        assert first[4] == "" and first[7] == ""
        last = lines[-1].split(",")
        assert all(cell != "" for cell in last)
        assert last[8] in ("Low", "Medium", "High")
        assert last[12] in ("Low", "Medium", "High")

    @pytest.mark.parametrize("command, fmt", [("indicators", "csv"), ("indicators", "json"),
                                              ("portfolio", "csv")])
    def test_a_header_only_csv_exits_1_as_empty_input(self, command, fmt, tmp_path,
                                                      capsysbinary):
        # a bare header or [] on stdout would read as a table of no rows
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_HEADER) + "\n")
        assert run([command, str(empty), "--format", fmt]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err == b"error: empty input: no series to evaluate\n"

    @pytest.mark.parametrize("fmt,digest", pinned(
        ("csv", "8c838133ee4e3b0a2adcdc4be8f5e0236f3bbceea427a7741f4d97f6e1990e12"),
        ("json", "9c7f9da9b4346f5d308ac6d2c347101dde799752ce54e69a958f3b6c4723ef92"),
    ))
    def test_bundled_fixture_table_bytes_are_pinned(self, fmt, digest, capsysbinary):
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        assert run(["indicators", fixture, "--format", fmt]) == 0
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest

    def test_json_format(self, basket_csv, capsys):
        assert run(["indicators", basket_csv, "--symbol", "SYN01", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 52
        assert rows[0]["macd"] is None
        assert isinstance(rows[-1]["rsi"], float)

    def test_blank_secondaries_have_blank_levels(self, capsys):
        assert run(["indicators", str(DATA_DIR / "portfolio_fixture.csv")]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        for name in ("rsi", "williams"):
            blank = [row[name] == "" for row in rows]
            assert any(blank) and not all(blank)
            assert [row[f"{name}_level"] == "" for row in rows] == blank
            assert {row[f"{name}_level"] for row in rows} - {""} <= {"Low", "Medium", "High"}

    def test_short_series_after_a_good_one_exits_1_with_its_aggregation_error(
            self, tmp_path, capsys):
        good = portfolio_fixture(seed=9, symbols=1, periods=52)[0]
        short = PriceSeries("SHORT", flat_series(periods=1).bars[:5])
        with pytest.raises(MarketDataError) as info:
            aggregate_periods(short, 15)
        path = tmp_path / "basket.csv"
        path.write_bytes(serialize_csv([good, short]))
        assert run(["indicators", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {info.value}\n")

    @pytest.mark.parametrize("flags", [[], ["--period-days", "1"]])
    def test_power_of_two_price_rescale_scales_only_the_price_columns(self, flags, tmp_path,
                                                                       capsysbinary):
        # the close and the MACD columns are sums of scaled prices; every other
        # column, the levels included, is a price ratio
        prices = {"close", "macd", "macd_signal", "macd_histogram"}

        def bits(path, factor=1.0) -> list[dict]:
            """Each row's float cells as float.hex, a price column's divided by factor first."""
            assert run(["indicators", str(path), "--format", "json", *flags]) == 0
            return [{name: (value / factor if name in prices else value).hex()
                     if isinstance(value, float) else value for name, value in row.items()}
                    for row in json.loads(capsysbinary.readouterr().out)]

        fixture = DATA_DIR / "portfolio_fixture.csv"
        expected, basket = bits(fixture), parse_csv(fixture.read_bytes())
        assert len(expected) == (7800 if flags else 520)
        for factor in (0.25, 4.0, 1024.0):
            scaled = tmp_path / "scaled.csv"
            scaled.write_bytes(serialize_csv([PriceSeries(s.symbol, Bars(
                s.bars.date, *(column * factor for column in s.bars.columns()[:4]),
                s.bars.volume)) for s in basket]))
            assert bits(scaled, factor) == expected, factor


class TestBacktestCommand:
    def test_csv_output(self, basket_csv, capsys):
        assert run(["backtest", basket_csv, "--symbol", "SYN00"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "symbol,period_index,date,signal,next_return"
        assert len(lines) > 2

    def test_json_output_has_hit_rates(self, basket_csv, capsys):
        assert run(["backtest", basket_csv, "--symbol", "SYN00", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "buy_hit_rate" in payload and "sell_hit_rate" in payload
        assert payload["records"]

    @pytest.mark.parametrize("fmt, flags, digest", pinned(
        ("csv", ["--delta", "0"], "8c1815fdc8c7eecf265352b2001532af26da65050b1038cd3e6437b2186d2719"),
        ("json", ["--delta", "0"], "f3fff871d3515a3b54255498012893ba478bdc092039e580262d2c39b5913cfb"),
        ("csv", [], "08d0c1570785caf1871a15d67c71c0bf593361858e3b4b7f910b648b04e4744e"),
        ("json", [], "e3c5c6e89bd5a5073ae3ab852ab3e82b4628553ba8faa1cf43ad5027b204c488"),
    ))
    def test_bundled_fixture_bytes_are_pinned(self, fmt, flags, digest, capsysbinary):
        # every symbol's backtest, its full-precision next_return included
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        for i in range(10):
            assert run(["backtest", fixture, "--symbol", f"SYN{i:02d}", "--format", fmt,
                        *flags]) == 0
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest

    # the formats that print no config fingerprint
    @pytest.mark.parametrize("command, fmt", [("backtest", "csv"), ("backtest", "json"),
                                              ("portfolio", "csv"), ("signal", "text")])
    def test_rules_file_of_the_built_rule_base_gives_the_same_bytes(self, command, fmt,
                                                                     tmp_path, capsysbinary):
        rules = tmp_path / "rules.csv"
        rules.write_text(rules_to_csv(ResolvedConfig().rule_base))
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        symbol = [] if command == "portfolio" else ["--symbol", "SYN03"]
        argv = [command, fixture, *symbol, "--format", fmt]
        assert run(argv) == 0
        built = capsysbinary.readouterr().out
        assert run([*argv, "--rules", str(rules)]) == 0
        assert capsysbinary.readouterr().out == built

    @pytest.mark.parametrize("command, fmt", [("backtest", "json"), ("signal", "text"),
                                              ("signal", "json")])
    @pytest.mark.parametrize("delta", ["0", "0.05"])
    def test_power_of_two_price_rescale_gives_the_same_bytes(self, command, fmt, delta,
                                                              tmp_path, capsysbinary):
        # the indicators and next_return are price ratios, and a power-of-two factor
        # scales every price exactly
        fixture = DATA_DIR / "portfolio_fixture.csv"
        argv = [command, "--symbol", "SYN01", "--format", fmt, "--delta", delta]
        assert run([*argv, str(fixture)]) == 0
        expected = capsysbinary.readouterr().out
        if command == "backtest":
            assert json.loads(expected)["records"]
        basket = parse_csv(fixture.read_bytes())
        for factor in (0.25, 4.0, 1024.0):
            scaled = tmp_path / "scaled.csv"
            scaled.write_bytes(serialize_csv([PriceSeries(s.symbol, Bars(
                s.bars.date, *(column * factor for column in s.bars.columns()[:4]),
                s.bars.volume)) for s in basket]))
            assert run([*argv, str(scaled)]) == 0
            assert capsysbinary.readouterr().out == expected, factor

    def test_all_buy_rules_change_the_signals(self, tmp_path, capsys):
        rules = tmp_path / "rules.csv"
        rows = [",".join((*terms, "buy"))
                for terms in itertools.product(*ANTECEDENT_TERMS.values())]
        rules.write_text("macd,rsi,so,wa,consequent\n" + "\n".join(rows) + "\n")
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        argv = ["backtest", fixture, "--symbol", "SYN03", "--format", "json"]

        def signals(extra):
            assert run([*argv, *extra]) == 0
            return [r["signal"] for r in json.loads(capsys.readouterr().out)["records"]]

        default, all_buy = signals([]), signals(["--rules", str(rules)])
        assert len(default) == len(all_buy) and set(default) != {"Buy"}
        assert set(all_buy) == {"Buy"}

    def test_a_long_percent_d_window_delays_no_signal(self, tmp_path, capsysbinary):
        # %D feeds no rule, so its window leaves the history requirement alone
        cfg = tmp_path / "d40.cfg"
        cfg.write_text("indicators.stochastic_d = 40\n")
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        for argv in (["backtest", fixture, "--symbol", "SYN00"],
                     ["signal", fixture, "--symbol", "SYN00", "--period-days", "20"]):
            assert run(argv) == 0
            expected = capsysbinary.readouterr().out
            assert run([*argv, "--config", str(cfg)]) == 0
            assert capsysbinary.readouterr().out == expected
        assert expected.startswith(b"SYN00 fuzzy_output=")
        assert run(["indicators", fixture, "--symbol", "SYN00", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsysbinary.readouterr().out.decode())))
        assert [row["period"] for row in rows if row["percent_d"] == ""] == \
            [str(t) for t in range(48)]

    def test_no_signals_names_the_last_failure(self, tmp_path, capsys):
        rules = tmp_path / "rules.csv"
        rules.write_text("macd,rsi,so,wa,consequent\nlow,low,low,low,sell\n")
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        assert run(["backtest", fixture, "--symbol", "SYN00", "--rules", str(rules)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: SYN00: backtest needs signals at >= 2 periods, got 0; period 50 failed at "
            "type reduction: no rule fired: aggregate output is identically zero\n")

    def test_bad_rules_row_exits_1_naming_the_row(self, tmp_path, capsys):
        rules = tmp_path / "rules.csv"
        rules.write_text("macd,rsi,so,wa,consequent\nlow,medium,medium,low,hold\n"
                         "low,medium,medium,high,maybe\n")
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        assert run(["backtest", fixture, "--symbol", "SYN03", "--rules", str(rules)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rule row 3: unknown consequent 'maybe'\n"


class TestInputRowOrder:
    """Shuffled data rows change no backtest or signal byte and no symbol's indicators rows."""

    @pytest.fixture
    def shuffled_csv(self, tmp_path):
        header, *rows = (DATA_DIR / "portfolio_fixture.csv").read_bytes().splitlines(keepends=True)
        random.Random(5).shuffle(rows)
        path = tmp_path / "shuffled.csv"
        path.write_bytes(header + b"".join(rows))
        return str(path)

    @pytest.mark.parametrize("command, flags", [
        ("backtest", ["--format", "csv"]), ("backtest", ["--format", "json", "--delta", "0.15"]),
        ("signal", ["--format", "text"]), ("signal", ["--format", "json", "--delta", "0.15"])])
    def test_backtest_and_signal_print_the_same_bytes(self, shuffled_csv, command, flags,
                                                      capsysbinary):
        argv = [command, "--symbol", "SYN02", *flags]
        assert run([*argv, str(DATA_DIR / "portfolio_fixture.csv")]) == 0
        expected = capsysbinary.readouterr().out
        assert run([*argv, shuffled_csv]) == 0
        assert capsysbinary.readouterr().out == expected

    @pytest.mark.parametrize("flags", [[], ["--period-days", "1"]])
    def test_indicators_print_the_same_rows_for_each_symbol(self, shuffled_csv, flags, capsys):
        def rows_by_symbol(path):
            assert run(["indicators", path, *flags]) == 0
            rows = {}
            for line in capsys.readouterr().out.splitlines():
                rows.setdefault(line.split(",", 1)[0], []).append(line)
            return rows

        expected = rows_by_symbol(str(DATA_DIR / "portfolio_fixture.csv"))
        assert len(expected) == 11  # the header and ten symbols
        assert rows_by_symbol(shuffled_csv) == expected


class TestFixturesCommand:
    def test_generate_matches_library_generator(self, tmp_path, capsysbinary):
        out_path = tmp_path / "gen.csv"
        assert run(["fixtures", "generate", "--seed", "5", "--symbols", "2",
                    "--periods", "40", "--out", str(out_path)]) == 0
        expected = serialize_csv(portfolio_fixture(seed=5, symbols=2, periods=40))
        assert out_path.read_bytes() == expected
        assert run(["fixtures", "generate", "--seed", "5", "--symbols", "2",
                    "--periods", "40"]) == 0
        assert capsysbinary.readouterr().out == expected

    @pytest.mark.parametrize("flag, value", [("--symbols", "-2"), ("--symbols", "0"),
                                             ("--periods", "-5"), ("--periods", "0"),
                                             ("--periods", "x")])
    def test_non_positive_counts_exit_2(self, flag, value, capsysbinary):
        assert run(["fixtures", "generate", flag, value]) == 2
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert flag.encode() in captured.err

    @pytest.mark.parametrize("target", ["missing/gen.csv", ""], ids=["no-parent", "directory"])
    def test_unwritable_out_exits_1_naming_the_path(self, tmp_path, target, capsysbinary):
        out = str(tmp_path / target)
        assert run(["fixtures", "generate", "--out", out]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode().startswith(f"error: cannot write {out!r}: ")


class TestConfigHandling:
    def test_config_file_applies(self, flat_csv, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("fuzzy.delta = 0.0\n# comment line\nrules.buy_at = 3\n")
        assert run(["signal", flat_csv, "--symbol", "FLAT", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "centroid_interval" not in out  # delta 0 runs the type-1 path

    def test_flag_overrides_config_file(self, flat_csv, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("fuzzy.delta = 0.0\n")
        assert run(["signal", flat_csv, "--symbol", "FLAT",
                    "--config", str(cfg), "--delta", "0.05"]) == 0
        assert "centroid_interval" in capsys.readouterr().out

    def test_env_var_supplies_default_config(self, flat_csv, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("fuzzy.delta = 0.0\n")
        monkeypatch.setenv("FUZZSIG_CONFIG", str(cfg))
        assert run(["signal", flat_csv, "--symbol", "FLAT"]) == 0
        assert "centroid_interval" not in capsys.readouterr().out

    def test_config_file_run_grades_each_coverage_grid_once(self, basket_csv, tmp_path,
                                                             capsysbinary, monkeypatch):
        # the load-time check, recommend_block's up-front check and the grading
        # build the same five variables
        cfg = tmp_path / "conf.txt"
        cfg.write_text("fuzzy.rsi.medium = triangular 0.2 0.5 0.8\n")
        checked = coverage_checks(monkeypatch)
        _variables.cache_clear()
        assert run(["portfolio", basket_csv, "--config", str(cfg)]) == 0
        assert len(checked) == 5
        info = _variables.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_each_config_builds_its_grading_tables_once(self, basket_csv, tmp_path,
                                                        capsysbinary, monkeypatch):
        # portfolio, signal and backtest each parse the file into a config of their own,
        # equal to the others. Each config builds its input term table and its output
        # table once, however many blocks or period prefixes read them. The variables'
        # cache is emptied before each command, so each builds an equal variable tuple
        # apart from the last one's: no lookup may compare two of them, or their shapes
        cfg = tmp_path / "conf.txt"
        cfg.write_text("fuzzy.rsi.medium = triangular 0.2 0.5 0.8\n")

        def counted_builds(name: str) -> list[ResolvedConfig]:
            built, prop = [], getattr(ResolvedConfig, name)

            def build(config):
                built.append(config)
                return prop.func(config)

            counted = functools.cached_property(build)
            counted.__set_name__(ResolvedConfig, name)
            monkeypatch.setattr(ResolvedConfig, name, counted)
            return built

        built = {name: counted_builds(name) for name in ("input_terms", "output_table")}
        compared = []
        value_eq = _frozen.Value.__eq__
        monkeypatch.setattr(_frozen.Value, "__eq__",
                            lambda a, b: compared.append(type(a)) or value_eq(a, b))
        for argv in (["portfolio", basket_csv], ["signal", basket_csv, "--symbol", "SYN00"],
                     ["backtest", basket_csv, "--symbol", "SYN00"]):
            _variables.cache_clear()
            assert run([*argv, "--config", str(cfg)]) == 0
        assert compared == []
        for configs in built.values():
            assert len(configs) == len(set(map(id, configs))) == 3
            assert configs[0] == configs[1] == configs[2]

    def test_bad_config_exits_1(self, flat_csv, tmp_path, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text("fuzzy.nonsense = 1\n")
        assert run(["signal", flat_csv, "--symbol", "FLAT", "--config", str(cfg)]) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_uncovered_membership_table_exits_1_naming_the_variable(
            self, basket_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fuzzy.rsi.low = leftshoulder 0.1 0.2\n")  # gap below rsi.medium
        assert run(["portfolio", basket_csv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'rsi'" in captured.err and "cover" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_delta_flag_exits_1(self, flat_csv, value, capsys):
        assert run(["signal", flat_csv, "--symbol", "FLAT", "--delta", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delta must be finite" in captured.err

    def test_footprint_wider_than_a_gaussian_exits_1(self, flat_csv, capsys):
        assert run(["portfolio", flat_csv, "--delta", "10"]) == 1
        assert capsys.readouterr() == ("", "error: delta must be below the narrowest Gaussian "
                                           "width, 0.22 of fuzzy.wa.low, got 10.0\n")

    def test_tiny_divisor_exits_1_with_a_short_coverage_error(self, basket_csv, tmp_path,
                                                              capsys):
        # the wa domain reaches 1e302: its Gaussian exponent overflows to -inf, grade 0,
        # without a RuntimeWarning (an error under the pytest config)
        cfg = tmp_path / "conf.txt"
        cfg.write_text("tuning.divisor = 1e-300\n")
        assert run(["portfolio", basket_csv, "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "error: fuzzy variable 'wa': terms cover x=1e+299 "
                                           "at grade 0.0000, below the 0.05 floor\n")

    @pytest.mark.parametrize("line,named", [
        ("fuzzy.delta = nan", "delta must be finite"),
        ("fuzzy.histogram_gain = inf", "histogram_gain must be finite"),
        ("fuzzy.histogram_gain = nan", "histogram_gain must be finite"),
        ("tuning.divisor = inf", "divisor must be finite"),
        ("fuzzy.macd.low = gaussian nan 0.3", "line 1: non-finite"),
        ("tuning.levels = 0.382, inf", "tuning levels must be two ascending finite"),
    ])
    def test_nonfinite_config_value_exits_1(self, basket_csv, tmp_path, line, named, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(line + "\n")
        assert run(["portfolio", basket_csv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    @pytest.mark.parametrize("text,named", [
        ("fuzzy.delta = -1", "error: line 1: fuzzy.delta: delta must be >= 0, got -1.0"),
        ("fuzzy.delta = 0.1\nindicators.stochastic_d = 0",
         "error: line 2: indicators.stochastic_d: stochastic_d must be a positive integer"),
        ("indicators.macd_long = 10",
         "error: indicators.macd_short must be below indicators.macd_long, got 12/10"),
    ])
    def test_bad_config_value_exits_1_naming_line_and_key(self, basket_csv, tmp_path, text,
                                                          named, capsys):
        cfg = tmp_path / "conf.txt"
        cfg.write_text(text + "\n")
        assert run(["portfolio", basket_csv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(named)

    @pytest.mark.parametrize("source", ["--config", "env", "--rules"])
    def test_non_utf8_file_exits_1_naming_the_path(self, basket_csv, tmp_path, source,
                                                   capsys, monkeypatch):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"fuzzy.delta = 0.1  # caf\xe9\n")
        argv = ["portfolio", basket_csv]
        if source == "env":
            monkeypatch.setenv("FUZZSIG_CONFIG", str(path))
        else:
            argv += [source, str(path)]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read ")
        assert f"{str(path)!r}: 'utf-8' codec can't decode byte 0xe9" in captured.err

    @pytest.mark.parametrize("command", ["signal", "portfolio", "backtest"])
    def test_bad_rules_file_is_reported_before_the_csv_is_read(self, tmp_path, command,
                                                               capsys):
        # the table is part of the config, which is resolved first
        rules = tmp_path / "rules.csv"
        rules.write_text("macd,rsi,so,wa,consequent\nhigh,high,medium,low,maybe\n")
        symbol = [] if command == "portfolio" else ["--symbol", "SYN00"]
        argv = [command, str(tmp_path / "missing.csv"), *symbol, "--rules", str(rules)]
        assert run(argv) == 1
        assert capsys.readouterr() == ("", "error: rule row 2: unknown consequent 'maybe'\n")

    def test_period_days_flag(self, tmp_path, capsys):
        series = flat_series(periods=40, days_per_period=10)
        path = tmp_path / "f.csv"
        path.write_bytes(serialize_csv([series]))
        assert run(["signal", str(path), "--symbol", "FLAT", "--period-days", "10"]) == 0
        assert "Hold" in capsys.readouterr().out


class TestUsage:
    def test_help_exits_zero_and_documents_flags(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for cmd in ("indicators", "signal", "portfolio", "backtest", "rules", "fixtures"):
            assert cmd in out
        assert run(["portfolio", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--delta", "--period-days", "--format", "--rules"):
            assert flag in out

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["bogus"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["rules", "dump", "--frobnicate"]) == 2

    def test_user_rules_file(self, flat_csv, tmp_path, capsys):
        rules = tmp_path / "rules.csv"
        rules.write_text("macd,rsi,so,wa,consequent\nlow,medium,medium,low,hold\n")
        assert run(["signal", flat_csv, "--symbol", "FLAT", "--rules", str(rules)]) == 0
        assert "Hold" in capsys.readouterr().out

    def test_oversized_rules_cell_exits_1_naming_the_row(self, tmp_path, capsys):
        rules = tmp_path / "rules.csv"
        rules.write_text("macd,rsi,so,wa,consequent\n" + "x" * 200_000 + ",medium\n")
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        assert run(["portfolio", fixture, "--rules", str(rules)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rule row 2: field larger than field limit (131072)\n"
