"""Mamdani rule base, rule firing, Karnik-Mendel type reduction, and classification.

The generated rule base enumerates all 36 antecedent combinations (MACD 2 x
RSI 3 x SO 3 x Williams 2) and scores each by weighted directional votes.
Firing uses min for the AND, clipping for implication, and max for
aggregation; interval grades are reduced with an exhaustive Karnik-Mendel
switch-point search and defuzzified at the centroid midpoint.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import ResolvedConfig
from .fuzzy import (
    FootprintOfUncertainty,
    FuzzifiedInputs,
    LinguisticVariable,
    default_variables,
    fuzzify,
)
from .indicators import snapshot
from .market_data import PriceSeries, aggregate_periods


class InferenceError(ValueError):
    """Rule-base or inference failure (unknown term, no rule fired, ...)."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


class Signal(Enum):
    SELL = "Sell"
    HOLD = "Hold"
    BUY = "Buy"


ANTECEDENT_VARIABLES = ("macd", "rsi", "so", "wa")

ANTECEDENT_TERMS = {
    "macd": ("low", "high"),
    "rsi": ("low", "medium", "high"),
    "so": ("low", "medium", "high"),
    "wa": ("low", "high"),
}

# Directional votes per term. MACD high and Williams high (deeply oversold)
# read bullish; an overbought stochastic reads bearish, an oversold one bullish.
VOTES = {
    "macd": {"low": -1, "high": +1},
    "rsi": {"low": -1, "medium": 0, "high": +1},
    "so": {"low": +1, "medium": 0, "high": -1},
    "wa": {"low": -1, "high": +1},
}

PRIMARY_INPUTS = ("macd", "so")
SECONDARY_INPUTS = ("rsi", "wa")

RULES_CSV_HEADER = ("macd", "rsi", "so", "wa", "consequent")


@dataclass(frozen=True)
class Rule:
    macd: str
    rsi: str
    so: str
    wa: str
    consequent: Signal
    provenance: str = "generated"
    score: int | None = None

    def antecedent(self) -> tuple[str, str, str, str]:
        return (self.macd, self.rsi, self.so, self.wa)


@dataclass(frozen=True)
class RuleBase:
    rules: tuple[Rule, ...]

    def __len__(self) -> int:
        return len(self.rules)


def vote_score(
    macd: str, rsi: str, so: str, wa: str,
    primary_weight: int = 2, secondary_weight: int = 1,
) -> int:
    terms = {"macd": macd, "rsi": rsi, "so": so, "wa": wa}
    score = 0
    for name in PRIMARY_INPUTS:
        score += primary_weight * VOTES[name][terms[name]]
    for name in SECONDARY_INPUTS:
        score += secondary_weight * VOTES[name][terms[name]]
    return score


def build_rule_base(
    primary_weight: int = 2,
    secondary_weight: int = 1,
    buy_at: int = 2,
    sell_at: int = -2,
) -> RuleBase:
    """Generate the full 36-rule base with vote-scored consequents.

    MACD and the stochastic vote at primary weight, RSI and Williams at
    secondary weight; a net score >= buy_at maps to Buy, <= sell_at to Sell,
    anything between to Hold.
    """
    if primary_weight < 1 or secondary_weight < 1:
        raise InferenceError(
            f"weights must be positive, got {primary_weight}/{secondary_weight}"
        )
    if not sell_at < buy_at:
        raise InferenceError(f"sell_at must be below buy_at, got {sell_at}/{buy_at}")
    rules = []
    for m, r, s, w in itertools.product(
        ANTECEDENT_TERMS["macd"], ANTECEDENT_TERMS["rsi"],
        ANTECEDENT_TERMS["so"], ANTECEDENT_TERMS["wa"],
    ):
        score = vote_score(m, r, s, w, primary_weight, secondary_weight)
        if score >= buy_at:
            consequent = Signal.BUY
        elif score <= sell_at:
            consequent = Signal.SELL
        else:
            consequent = Signal.HOLD
        rules.append(Rule(macd=m, rsi=r, so=s, wa=w, consequent=consequent, score=score))
    return RuleBase(tuple(rules))


@dataclass(frozen=True)
class AggregatedOutput:
    """Max-aggregated clipped consequents sampled on a uniform output grid."""

    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    interval: bool


def fire_rules(
    inputs: FuzzifiedInputs,
    rule_base: RuleBase,
    output_var: LinguisticVariable,
    grid_points: int = 1001,
) -> AggregatedOutput:
    """Fire every rule (min over antecedent grades) and max-aggregate the clips.

    Clipping and max commute, so the rules first fold into one (lower, upper)
    strength pair per consequent, the max over its rules; each consequent term
    is then clipped once per envelope. Interval grades fire endpoint-wise.
    """
    terms = dict(output_var.terms)
    strengths: dict[str, tuple[float, float]] = {}
    for rule in rule_base.rules:
        try:
            lows, highs = zip(*[inputs.grades[name][getattr(rule, name)]
                                for name in ANTECEDENT_VARIABLES])
        except KeyError as exc:
            raise InferenceError(f"rule references unknown variable/term: {exc}") from None
        label = rule.consequent.value.lower()
        if label not in terms:
            raise InferenceError(f"output variable has no term {label!r}")
        # max(best, s) keeps best when s is NaN: a NaN strength fires nothing
        best_lo, best_hi = strengths.get(label, (0.0, 0.0))
        strengths[label] = (max(best_lo, min(lows)), max(best_hi, min(highs)))
    grid = np.linspace(output_var.domain[0], output_var.domain[1], grid_points)
    lower = np.zeros(grid_points)
    upper = np.zeros(grid_points)
    for label, (strength_lo, strength_hi) in strengths.items():
        mu = terms[label].grade(grid)
        for envelope, strength in ((lower, strength_lo), (upper, strength_hi)):
            if strength > 0.0:
                np.maximum(envelope, np.minimum(mu, strength), out=envelope)
    return AggregatedOutput(grid=grid, lower=lower, upper=upper, interval=inputs.interval)


def _quad_weights(n: int) -> np.ndarray:
    """Trapezoidal quadrature weights on a uniform grid (the step cancels)."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _centroid(x: np.ndarray, weights: np.ndarray) -> float:
    return float(np.dot(x, weights) / weights.sum())


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    """sums[j] = v[:j].sum() for j = 0..n, accumulated from the left."""
    return np.cumsum(np.concatenate(([0.0], v)))


def _switch_point_centroid(x: np.ndarray, head: np.ndarray, tail: np.ndarray,
                           pick, empty: float) -> float:
    """Centroid of the weights head[:j] ++ tail[j:] at the switch point j that pick selects.

    Every j in 0..n is scored at once. Tail sums accumulate over the reversed
    arrays, not as total minus head, so an assignment without weight sums to
    exactly 0 and scores `empty`, not a ratio of rounding residue. j = 0 ranks
    last and j = n after the interior points: they win only where no interior
    assignment has weight.
    """
    weight = _prefix_sums(head) + _prefix_sums(tail[::-1])[::-1]
    moment = _prefix_sums(x * head) + _prefix_sums((x * tail)[::-1])[::-1]
    scores = np.divide(moment, weight, out=np.full(len(weight), empty), where=weight > 0.0)
    j = (int(pick(np.concatenate((scores[1:], scores[:1])))) + 1) % len(scores)
    return _centroid(x, np.concatenate((head[:j], tail[j:])))


def km_type_reduce(agg: AggregatedOutput) -> tuple[float, float]:
    """Karnik-Mendel switch-point centroids [y_l, y_r] of the sampled set.

    Exhaustive over switch points: y_l takes upper grades left of the switch
    and lower ones right of it, minimized; y_r the mirror image, maximized.
    Raises when no rule fired (identically zero upper envelope): for in-range
    inputs the variables' coverage floor makes that unreachable, so hitting it
    means misconfiguration.
    """
    if float(agg.upper.max()) <= 0.0:
        raise InferenceError("no rule fired: aggregate output is identically zero")
    quad = _quad_weights(len(agg.grid))
    lower, upper = quad * agg.lower, quad * agg.upper
    y_l = _switch_point_centroid(agg.grid, upper, lower, np.argmin, np.inf)
    y_r = _switch_point_centroid(agg.grid, lower, upper, np.argmax, -np.inf)
    return y_l, y_r


def defuzzify(agg: AggregatedOutput) -> float:
    """Crisp output: trapezoid-quadrature centroid for type-1, KM midpoint otherwise.

    Both paths weigh the sampled set identically (half-weight grid endpoints),
    so zero-width intervals reduce to the type-1 centroid.
    """
    if agg.interval:
        y_l, y_r = km_type_reduce(agg)
        return 0.5 * (y_l + y_r)
    if float(agg.upper.max()) <= 0.0:
        raise InferenceError("no rule fired: aggregate output is identically zero")
    return _centroid(agg.grid, _quad_weights(len(agg.grid)) * agg.upper)


def classify_signal(crisp: float) -> Signal:
    """Sell on [0, 0.4), Hold on [0.4, 0.6), Buy on [0.6, 1]."""
    if not 0.0 <= crisp <= 1.0:
        raise InferenceError(f"crisp output out of range [0, 1]: {crisp}")
    if crisp < 0.4:
        return Signal.SELL
    if crisp < 0.6:
        return Signal.HOLD
    return Signal.BUY


@dataclass(frozen=True)
class Recommendation:
    symbol: str
    crisp: float
    signal: Signal
    centroid_interval: tuple[float, float] | None = None


def output_variable(variables: tuple[LinguisticVariable, ...]) -> LinguisticVariable:
    for var in variables:
        if var.name == "signal":
            return var
    raise InferenceError("variable set lacks the output variable 'signal'")


def recommend_periods(
    periods: PriceSeries,
    config: ResolvedConfig | None = None,
    rule_base: RuleBase | None = None,
    variables: tuple[LinguisticVariable, ...] | None = None,
) -> Recommendation:
    """Run the pipeline on aggregated period bars, building variables and rules unless given."""
    cfg = config if config is not None else ResolvedConfig()
    snap = _stage("indicators", snapshot, periods, **cfg.indicator_windows)
    if variables is None:
        variables = _stage("fuzzification", default_variables,
                           divisor=cfg.divisor, mf_table=cfg.mf_table)
    fou = FootprintOfUncertainty(cfg.delta) if cfg.delta > 0 else None
    inputs = _stage(
        "fuzzification", fuzzify, snap, variables,
        divisor=cfg.divisor, histogram_gain=cfg.histogram_gain, fou=fou,
    )
    if rule_base is None:
        rule_base = _stage("rule generation", build_rule_base,
                           cfg.primary_weight, cfg.secondary_weight, cfg.buy_at, cfg.sell_at)
    agg = _stage("inference", fire_rules, inputs, rule_base,
                 output_variable(variables), cfg.grid_points)
    if agg.interval:
        y_l, y_r = _stage("type reduction", km_type_reduce, agg)
        crisp = 0.5 * (y_l + y_r)
        interval = (y_l, y_r)
    else:
        crisp = _stage("defuzzification", defuzzify, agg)
        interval = None
    signal = _stage("classification", classify_signal, crisp)
    return Recommendation(symbol=periods.symbol, crisp=crisp, signal=signal,
                          centroid_interval=interval)


def recommend(
    series: PriceSeries,
    config: ResolvedConfig | None = None,
    rule_base: RuleBase | None = None,
    variables: tuple[LinguisticVariable, ...] | None = None,
) -> Recommendation:
    """Full pipeline on daily bars: aggregate, snapshot, fuzzify, fire, defuzzify."""
    cfg = config if config is not None else ResolvedConfig()
    periods = _stage("aggregation", aggregate_periods, series, cfg.days_per_period)
    return recommend_periods(periods, cfg, rule_base, variables)


def rules_to_csv(rule_base: RuleBase, include_scores: bool = False) -> str:
    """Serialize rules as `macd,rsi,so,wa,consequent[,score]` lines."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = list(RULES_CSV_HEADER) + (["score"] if include_scores else [])
    writer.writerow(header)
    for rule in rule_base.rules:
        row = [rule.macd, rule.rsi, rule.so, rule.wa, rule.consequent.value.lower()]
        if include_scores:
            row.append("" if rule.score is None else str(rule.score))
        writer.writerow(row)
    return out.getvalue()


def rules_from_csv(text: str | bytes) -> RuleBase:
    """Parse a user-supplied rule table; extra columns are ignored."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InferenceError("empty rule table") from None
    header = [cell.strip().lower() for cell in header]
    if tuple(header[:5]) != RULES_CSV_HEADER:
        raise InferenceError(
            f"rule table header must start with {','.join(RULES_CSV_HEADER)!r}"
        )
    signals = {s.value.lower(): s for s in Signal}
    rules: list[Rule] = []
    seen: set[tuple[str, str, str, str]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 5:
            raise InferenceError(f"rule row {lineno}: expected at least 5 fields")
        m, r, s, w, consequent = (cell.strip().lower() for cell in row[:5])
        for name, term in zip(ANTECEDENT_VARIABLES, (m, r, s, w)):
            if term not in ANTECEDENT_TERMS[name]:
                raise InferenceError(f"rule row {lineno}: {name} has no term {term!r}")
        if consequent not in signals:
            raise InferenceError(f"rule row {lineno}: unknown consequent {consequent!r}")
        key = (m, r, s, w)
        if key in seen:
            raise InferenceError(f"rule row {lineno}: duplicate antecedent {key}")
        seen.add(key)
        rules.append(Rule(macd=m, rsi=r, so=s, wa=w, consequent=signals[consequent],
                          provenance="user"))
    if not rules:
        raise InferenceError("rule table has no rules")
    return RuleBase(tuple(rules))
