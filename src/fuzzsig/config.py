"""Runtime configuration: defaults, key-value file parsing, and fingerprinting.

The config file format is line-oriented text with dotted section keys, e.g.

    fuzzy.delta = 0.05
    indicators.rsi_window = 21
    fuzzy.wa.high = gaussian 0.618 0.22

Blank lines and `#` comments are ignored. Precedence is defaults, then file,
then command-line flags.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field

from ._frozen import Frozen
from .fuzzy import (Gaussian, LinguisticVariable, MembershipFunction, default_mf_table,
                    default_variables)
from .tuning import DEFAULT_DIVISOR

if typing.TYPE_CHECKING:
    from .inference import RuleBase


class ConfigError(ValueError):
    """Bad configuration key, value, or combination."""


_MF_SHAPES = {cls.__name__.lower(): cls for cls in typing.get_args(MembershipFunction)}

_MF_NAMES = {cls: name for name, cls in _MF_SHAPES.items()}


def parse_mf(text: str) -> MembershipFunction:
    parts = text.split()
    if not parts:
        raise ConfigError("empty membership function value")
    shape = parts[0].lower()
    if shape not in _MF_SHAPES:
        raise ConfigError(f"unknown membership function shape {shape!r}")
    cls = _MF_SHAPES[shape]
    arity = len(cls._fields)
    if len(parts) - 1 != arity:
        raise ConfigError(f"{shape} takes {arity} parameters, got {len(parts) - 1}")
    try:
        # + 0.0 turns -0.0 into 0.0: a -0 breakpoint is the config 0 is, as for scalar settings
        params = [float(p) + 0.0 for p in parts[1:]]
    except ValueError:
        raise ConfigError(f"non-numeric membership function parameter in {text!r}") from None
    if not all(math.isfinite(p) for p in params):
        raise ConfigError(f"non-finite membership function parameter in {text!r}")
    try:
        return cls(*params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def format_mf(mf: MembershipFunction) -> str:
    return " ".join([_MF_NAMES[type(mf)], *map(repr, mf._values())])


# Settings whose values must ascend: (lower, higher)
_ORDERED_PAIRS = (("macd_short", "macd_long"), ("sell_at", "buy_at"))


def _check_setting(name: str, value) -> None:
    """Raise ConfigError when one setting's value is invalid on its own."""
    if _KIND.get(name) is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if name in ("days_per_period", *_WINDOW_FIELDS, "primary_weight", "secondary_weight"):
        if value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    elif _KIND.get(name) is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    elif name == "divisor" and value <= 0:
        raise ConfigError(f"tuning divisor must be positive, got {value}")
    elif name == "levels" and (len(value) != 2 or not -math.inf < value[0] < value[1] < math.inf):
        raise ConfigError(f"tuning levels must be two ascending finite ratios, got {value}")
    elif name == "delta" and value < 0:
        raise ConfigError(f"delta must be >= 0, got {value}")
    elif name == "histogram_gain" and value <= 0:
        raise ConfigError(f"histogram_gain must be positive, got {value}")
    elif name == "grid_points" and value < 3:
        raise ConfigError(f"grid_points must be >= 3, got {value}")


class MfTable(Frozen, dict):
    """ResolvedConfig's {variable: terms} table: each dict method that would change it raises.

    A copy or a pickle rebuilds it from `tables`, a plain dict of its items.
    """

    __slots__ = ()
    _fields = ("tables",)
    tables = property(dict.copy)
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = (
        Frozen.__setattr__)


def _setting(key: str, default):
    """A scalar ResolvedConfig field, set by the dotted config-file `key`."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class ResolvedConfig:
    """Every tunable of the pipeline, with defaults matching the canonical tables."""

    days_per_period: int = _setting("data.days_per_period", 15)
    macd_short: int = _setting("indicators.macd_short", 12)
    macd_long: int = _setting("indicators.macd_long", 26)
    macd_trigger: int = _setting("indicators.macd_trigger", 9)
    rsi_window: int = _setting("indicators.rsi_window", 21)
    stochastic_k: int = _setting("indicators.stochastic_k", 10)
    stochastic_d: int = _setting("indicators.stochastic_d", 3)
    williams_window: int = _setting("indicators.williams_window", 30)
    divisor: float = _setting("tuning.divisor", DEFAULT_DIVISOR)
    levels: tuple[float, float] = _setting("tuning.levels", (0.382, 0.618))
    delta: float = _setting("fuzzy.delta", 0.05)
    histogram_gain: float = _setting("fuzzy.histogram_gain", 50.0)
    mf_table: Mapping[str, tuple[tuple[str, MembershipFunction], ...]] = field(
        default_factory=default_mf_table
    )  # held as a read-only MfTable
    primary_weight: int = _setting("rules.primary_weight", 2)
    secondary_weight: int = _setting("rules.secondary_weight", 1)
    buy_at: int = _setting("rules.buy_at", 2)
    sell_at: int = _setting("rules.sell_at", -2)
    grid_points: int = _setting("output.grid_points", 1001)
    rule_table: RuleBase | None = None  # a parsed --rules table; None generates one from rules.*

    def __post_init__(self) -> None:
        # terms as tuples, and pairs that are tuples kept: a table made from
        # fuzzy.default_mf_table shares its shapes
        object.__setattr__(self, "mf_table", MfTable(
            {var: tuple(map(tuple, terms)) for var, terms in self.mf_table.items()}))
        self.validate()

    def build_variables(self) -> tuple[LinguisticVariable, ...]:
        """The linguistic variables; a table that leaves its domain uncovered is a ConfigError."""
        try:
            return default_variables(divisor=self.divisor, mf_table=self.mf_table)
        except ValueError as exc:
            raise ConfigError(f"fuzzy variable {exc}") from None

    @functools.cached_property
    def rule_base(self) -> RuleBase:
        """The rule table, else the generated 36-rule base scored with the `rules.*` weights
        and thresholds; built once per config."""
        if self.rule_table is not None:
            return self.rule_table
        from .inference import build_rule_base  # inference imports this module

        return build_rule_base(self.primary_weight, self.secondary_weight,
                               self.buy_at, self.sell_at)

    @property
    def indicator_windows(self) -> dict[str, int]:
        """Keyword arguments of indicators.indicator_block and snapshot."""
        return {name: getattr(self, name) for name in _WINDOW_FIELDS}

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            _check_setting(f.name, getattr(self, f.name))
        for low, high in _ORDERED_PAIRS:
            if not getattr(self, low) < getattr(self, high):
                raise ConfigError(
                    f"{_KEY_OF[low]} must be below {_KEY_OF[high]}, "
                    f"got {getattr(self, low)}/{getattr(self, high)}"
                )
        expected_terms = {name: tuple(t for t, _ in terms)
                          for name, terms in default_mf_table().items()}
        for var in self.mf_table.keys() - expected_terms.keys():
            raise ConfigError(f"unknown fuzzy variable {var!r}")
        for var, expected in expected_terms.items():
            got = tuple(t for t, _ in self.mf_table.get(var, ()))
            if got != expected:
                raise ConfigError(f"variable {var!r} must keep terms {expected}, got {got}")
        # a footprint as wide as a Gaussian collapses its lower grade to 0 off the centre
        gaussians = [(mf.width, f"fuzzy.{var}.{label}") for var, terms in self.mf_table.items()
                     for label, mf in terms if isinstance(mf, Gaussian)]
        width, key = min(gaussians, key=lambda entry: entry[0], default=(math.inf, None))
        if not self.delta < width:
            raise ConfigError(f"delta must be below the narrowest Gaussian width, "
                              f"{width} of {key}, got {self.delta}")

    def canonical_lines(self) -> list[str]:
        """Stable `key = value` rendering of every setting, sorted by key.

        A rule table renders as one `rules.table` line of `macd,rsi,so,wa:consequent`
        rules in antecedent order, so the order of its rows does not count.
        """
        entries = {}
        for key, name in _SETTINGS.items():
            value, kind = getattr(self, name), _KIND[name]
            # float settings render as floats, and + 0.0 turns -0.0 into 0.0: delta = 0,
            # 0.0 and -0.0 are one config
            if kind is tuple:
                entries[key] = ", ".join(repr(float(x) + 0.0) for x in value)
            else:
                entries[key] = repr(float(value) + 0.0 if kind is float else value)
        for var, terms in self.mf_table.items():
            for label, mf in terms:
                entries[f"fuzzy.{var}.{label}"] = format_mf(mf)
        if self.rule_table is not None:
            entries["rules.table"] = "; ".join(
                f"{','.join(rule.antecedent())}:{rule.consequent.value.lower()}"
                for rule in sorted(self.rule_table.rules, key=lambda rule: rule.antecedent()))
        return [f"{key} = {entries[key]}" for key in sorted(entries)]

    def fingerprint(self) -> str:
        import hashlib  # loads OpenSSL, a few ms that commands printing no fingerprint skip

        digest = hashlib.sha256("\n".join(self.canonical_lines()).encode("utf-8"))
        return digest.hexdigest()[:12]


# Every scalar config key and the ResolvedConfig field it sets, with the
# field's kind (int, float or tuple, from its default) and the window fields
_SETTINGS = {f.metadata["key"]: f.name for f in dataclasses.fields(ResolvedConfig) if f.metadata}
_KEY_OF = {name: key for key, name in _SETTINGS.items()}
_KIND = {f.name: type(f.default) for f in dataclasses.fields(ResolvedConfig) if f.metadata}
_WINDOW_FIELDS = tuple(name for key, name in _SETTINGS.items() if key.startswith("indicators."))


def parse_config_text(text: str) -> ResolvedConfig:
    """Parse key-value lines on top of the defaults.

    One leading byte-order mark is dropped, and a key may be set once. The
    membership-function tables are checked for coverage here, at load time.
    """
    fields = {}
    mf_table = {var: list(terms) for var, terms in default_mf_table().items()}
    set_on: dict[str, int] = {}  # the line each key was set on
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ConfigError(f"line {lineno}: {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            if key in _SETTINGS:
                kind = _KIND[_SETTINGS[key]]
                parsed = tuple(map(float, value.split(","))) if kind is tuple else kind(value)
                try:
                    _check_setting(_SETTINGS[key], parsed)
                except ConfigError as exc:
                    raise ConfigError(f"{key}: {exc}") from None
                fields[_SETTINGS[key]] = parsed
            elif key.startswith("fuzzy.") and key.count(".") == 2:
                _, var, label = key.split(".")
                if var not in mf_table:
                    raise ConfigError(f"unknown fuzzy variable {var!r}")
                labels = [t for t, _ in mf_table[var]]
                if label not in labels:
                    raise ConfigError(f"variable {var!r} has no term {label!r}")
                mf = parse_mf(value)
                mf_table[var][labels.index(label)] = (label, mf)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {value!r} for {key!r}") from None
    cfg = ResolvedConfig(**fields, mf_table={var: tuple(terms) for var, terms in mf_table.items()})
    cfg.build_variables()
    return cfg


def load_config_file(path: str) -> ResolvedConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return parse_config_text(text)
