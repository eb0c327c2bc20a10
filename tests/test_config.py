import dataclasses

import pytest

from fuzzsig.config import (
    ConfigError,
    ResolvedConfig,
    format_mf,
    parse_config_text,
    parse_mf,
)
from fuzzsig.fuzzy import Gaussian, LeftShoulder, RightShoulder, Triangular


class TestMfSyntax:
    @pytest.mark.parametrize("text,expected", [
        ("triangular 0.236 0.5 0.764", Triangular(0.236, 0.5, 0.764)),
        ("leftshoulder 0.3 0.45", LeftShoulder(0.3, 0.45)),
        ("rightshoulder 0.55 0.7", RightShoulder(0.55, 0.7)),
        ("gaussian -0.5 0.3", Gaussian(-0.5, 0.3)),
        ("GAUSSIAN 0.5 0.3", Gaussian(0.5, 0.3)),
    ])
    def test_parse(self, text, expected):
        assert parse_mf(text) == expected

    def test_format_parse_round_trip(self):
        for mf in (Triangular(0.1, 0.2, 0.9), LeftShoulder(0.0, 1.0),
                   RightShoulder(0.25, 0.75), Gaussian(0.618, 0.22)):
            assert parse_mf(format_mf(mf)) == mf

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError, match="shape"):
            parse_mf("pentagon 1 2 3")

    def test_bad_arity_rejected(self):
        with pytest.raises(ConfigError, match="parameters"):
            parse_mf("gaussian 0.5")

    @pytest.mark.parametrize("text", ["gaussian nan 0.3", "gaussian 0.5 inf",
                                      "triangular -inf 0.5 0.7"])
    def test_nonfinite_parameter_rejected(self, text):
        with pytest.raises(ConfigError, match="non-finite"):
            parse_mf(text)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ConfigError):
            parse_mf("triangular 0.9 0.5 0.1")


class TestParseConfigText:
    def test_canonical_rendering_parses_back_to_itself(self):
        cfg = ResolvedConfig()
        text = "\n".join(cfg.canonical_lines())
        again = parse_config_text(text)
        assert again == cfg
        assert again.fingerprint() == cfg.fingerprint()

    def test_overrides_and_comments(self):
        text = (
            "# a comment\n"
            "\n"
            "fuzzy.delta = 0.1   # trailing comment\n"
            "indicators.rsi_window = 14\n"
            "tuning.levels = 0.2, 0.4, 0.6\n"
            "fuzzy.wa.high = gaussian 0.6 0.25\n"
        )
        cfg = parse_config_text(text)
        assert cfg.delta == 0.1
        assert cfg.rsi_window == 14
        assert cfg.levels == (0.2, 0.4, 0.6)
        assert dict(cfg.mf_table["wa"])["high"] == Gaussian(0.6, 0.25)
        # untouched keys keep their defaults
        assert cfg.macd_long == 26

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("fuzzy.delta = 0.1\nbogus.key = 3\n")

    def test_unknown_term_rejected(self):
        with pytest.raises(ConfigError, match="term"):
            parse_config_text("fuzzy.macd.medium = gaussian 0 0.3\n")

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ConfigError, match="line 1.*fuzzy.delta"):
            parse_config_text("fuzzy.delta = much\n")

    @pytest.mark.parametrize("text,named", [
        ("fuzzy.delta = -1\n", "line 1: fuzzy.delta: delta must be >= 0, got -1.0"),
        ("# c\nindicators.rsi_window = 0\n",
         "line 2: indicators.rsi_window: rsi_window must be a positive integer, got 0"),
        ("output.grid_points = 2\n", "line 1: output.grid_points: grid_points must be >= 3"),
        ("tuning.divisor = 0\n", "line 1: tuning.divisor: tuning divisor must be positive"),
        ("fuzzy.histogram_gain = -1\n", "line 1: fuzzy.histogram_gain: histogram_gain must"),
        ("tuning.levels = 0.2, 0.4\n", "line 1: tuning.levels: tuning levels must be three"),
    ])
    def test_bad_scalar_names_line_and_key(self, text, named):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value).startswith(named)

    @pytest.mark.parametrize("text,named", [
        ("indicators.macd_short = 30\n",
         "indicators.macd_short must be below indicators.macd_long, got 30/26"),
        ("rules.buy_at = -1\nrules.sell_at = 0\n",
         "rules.sell_at must be below rules.buy_at, got 0/-1"),
    ])
    def test_bad_combination_names_both_keys(self, text, named):
        with pytest.raises(ConfigError, match=named):
            parse_config_text(text)

    @pytest.mark.parametrize("text,message", [
        ("fuzzy.delta = 0.1\nfuzzy.delta = 0.2\n", "line 2: 'fuzzy.delta' already set on line 1"),
        ("fuzzy.rsi.low = leftshoulder 0.2 0.4\n# again\n\n"
         "fuzzy.rsi.low=leftshoulder 0.3 0.4\n", "line 4: 'fuzzy.rsi.low' already set on line 1"),
    ])
    def test_repeated_key_names_both_lines(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == message

    def test_one_leading_byte_order_mark_is_dropped(self):
        text = "fuzzy.delta = 0.1\nfuzzy.rsi.low = leftshoulder 0.2 0.4\n"
        assert parse_config_text("\ufeff" + text) == parse_config_text(text)

    @pytest.mark.parametrize("text,message", [
        ("\ufeff\ufefffuzzy.delta = 0.1\n", "line 1: unknown config key '\\ufefffuzzy.delta'"),
        (" \ufefffuzzy.delta = 0.1\n", "line 1: unknown config key '\\ufefffuzzy.delta'"),
        ("fuzzy.delta = \ufeff0.1\n", "line 1: bad value '\\ufeff0.1' for 'fuzzy.delta'"),
        ("fuzzy.delta = 0.1\n\ufeffindicators.rsi_window = 14\n",
         "line 2: unknown config key '\\ufeffindicators.rsi_window'"),
    ])
    def test_a_byte_order_mark_anywhere_else_is_an_error(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == message

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("fuzzy.delta 0.1\n")


class TestValidation:
    def test_defaults_validate(self):
        ResolvedConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("days_per_period", 0),
        ("macd_trigger", -1),
        ("divisor", 0.0),
        ("delta", -0.01),
        ("histogram_gain", 0.0),
        ("grid_points", 2),
        ("levels", (0.5, 0.4, 0.7)),
        ("delta", float("nan")),
        ("delta", float("inf")),
        ("histogram_gain", float("inf")),
        ("divisor", float("inf")),
        ("levels", (0.236, 0.382, float("inf"))),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            dataclasses.replace(ResolvedConfig(), **{field: value})

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ConfigError, match="sell_at"):
            dataclasses.replace(ResolvedConfig(), buy_at=-2, sell_at=2)

    def test_short_period_must_stay_below_long(self):
        with pytest.raises(ConfigError, match="macd_short"):
            dataclasses.replace(ResolvedConfig(), macd_short=30)

    def test_term_set_is_fixed(self):
        table = ResolvedConfig().mf_table
        table["macd"] = (("low", Gaussian(-0.5, 0.3)),)
        with pytest.raises(ConfigError, match="terms"):
            ResolvedConfig(mf_table=table)


class TestFingerprint:
    def test_every_scalar_field_moves_the_fingerprint(self):
        base = ResolvedConfig().fingerprint()
        tweaks = {
            "days_per_period": 10,
            "macd_short": 11,
            "macd_long": 30,
            "macd_trigger": 8,
            "rsi_window": 14,
            "stochastic_k": 14,
            "stochastic_d": 5,
            "williams_window": 21,
            "divisor": 55.0,
            "levels": (0.2, 0.4, 0.6),
            "delta": 0.02,
            "histogram_gain": 40.0,
            "primary_weight": 3,
            "secondary_weight": 2,
            "buy_at": 3,
            "sell_at": -3,
            "grid_points": 2001,
        }
        for field, value in tweaks.items():
            bumped = dataclasses.replace(ResolvedConfig(), **{field: value})
            assert bumped.fingerprint() != base, field

    def test_mf_change_moves_the_fingerprint(self):
        table = ResolvedConfig().mf_table
        table["wa"] = (("low", Gaussian(0.236, 0.22)), ("high", Gaussian(0.618, 0.3)))
        assert ResolvedConfig(mf_table=table).fingerprint() != ResolvedConfig().fingerprint()
