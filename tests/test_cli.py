import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest

from fuzzsig.cli import run
from fuzzsig.config import ResolvedConfig
from fuzzsig.fixtures import flat_series, portfolio_fixture
from fuzzsig.fuzzy import _check_coverage
from fuzzsig.inference import ANTECEDENT_TERMS, build_rule_base, rules_to_csv
from fuzzsig.market_data import serialize_csv

from conftest import DATA_DIR, PORTFOLIO_JSON_PINS


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
        expected = rules_to_csv(build_rule_base(**weights), include_scores=True).splitlines()
        assert expected != rules_to_csv(build_rule_base(), include_scores=True).splitlines()
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

    @pytest.mark.parametrize("flags", [flags for flags, _ in PORTFOLIO_JSON_PINS])
    def test_bundled_fixture_equals_the_portfolio_rows(self, flags, capsys):
        # signal scores one snapshot; portfolio scores the last column of a block frame
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

    @pytest.mark.parametrize("flags,digest", PORTFOLIO_JSON_PINS)
    def test_bundled_fixture_json_bytes_are_pinned(self, flags, digest, bundled_fixtures,
                                                   capsysbinary):
        for fixture in bundled_fixtures:
            assert run(["portfolio", fixture, "--format", "json", *flags]) == 0
            assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest, fixture

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

    @pytest.mark.parametrize("fmt,digest", [
        ("csv", "8c838133ee4e3b0a2adcdc4be8f5e0236f3bbceea427a7741f4d97f6e1990e12"),
        ("json", "9c7f9da9b4346f5d308ac6d2c347101dde799752ce54e69a958f3b6c4723ef92"),
    ])
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

    @pytest.mark.parametrize("fmt, flags, digest", [
        ("csv", ["--delta", "0"], "8c1815fdc8c7eecf265352b2001532af26da65050b1038cd3e6437b2186d2719"),
        ("json", ["--delta", "0"], "f3fff871d3515a3b54255498012893ba478bdc092039e580262d2c39b5913cfb"),
        ("csv", [], "08d0c1570785caf1871a15d67c71c0bf593361858e3b4b7f910b648b04e4744e"),
        ("json", [], "e3c5c6e89bd5a5073ae3ab852ab3e82b4628553ba8faa1cf43ad5027b204c488"),
    ])
    def test_bundled_fixture_bytes_are_pinned(self, fmt, flags, digest, capsysbinary):
        # every symbol's backtest, its full-precision next_return included
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        for i in range(10):
            assert run(["backtest", fixture, "--symbol", f"SYN{i:02d}", "--format", fmt,
                        *flags]) == 0
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rules_file_of_the_built_rule_base_gives_the_same_bytes(self, fmt, tmp_path,
                                                                     capsysbinary):
        rules = tmp_path / "rules.csv"
        rules.write_text(rules_to_csv(ResolvedConfig().build_rule_base()))
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        argv = ["backtest", fixture, "--symbol", "SYN03", "--format", fmt]
        assert run(argv) == 0
        built = capsysbinary.readouterr().out
        assert run([*argv, "--rules", str(rules)]) == 0
        assert capsysbinary.readouterr().out == built

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

    def test_bad_rules_row_exits_1_naming_the_row(self, tmp_path, capsys):
        rules = tmp_path / "rules.csv"
        rules.write_text("macd,rsi,so,wa,consequent\nlow,medium,medium,low,hold\n"
                         "low,medium,medium,high,maybe\n")
        fixture = str(DATA_DIR / "portfolio_fixture.csv")
        assert run(["backtest", fixture, "--symbol", "SYN03", "--rules", str(rules)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rule row 3: unknown consequent 'maybe'\n"


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
                                                             capsysbinary):
        # the load-time check and the run build the same five variables
        cfg = tmp_path / "conf.txt"
        cfg.write_text("fuzzy.rsi.medium = triangular 0.2 0.5 0.8\n")
        _check_coverage.cache_clear()
        assert run(["portfolio", basket_csv, "--config", str(cfg)]) == 0
        info = _check_coverage.cache_info()
        assert (info.misses, info.hits) == (5, 5)

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

    @pytest.mark.parametrize("line,named", [
        ("fuzzy.delta = nan", "delta must be finite"),
        ("fuzzy.histogram_gain = inf", "histogram_gain must be finite"),
        ("fuzzy.histogram_gain = nan", "histogram_gain must be finite"),
        ("tuning.divisor = inf", "divisor must be finite"),
        ("fuzzy.macd.low = gaussian nan 0.3", "line 1: non-finite"),
        ("tuning.levels = 0.236, 0.382, inf", "tuning levels must be three ascending finite"),
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
