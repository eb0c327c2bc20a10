"""Mamdani rule base, rule firing, Karnik-Mendel type reduction, and classification.

The generated rule base enumerates all 36 antecedent combinations (MACD 2 x
RSI 3 x SO 3 x Williams 2) and scores each by weighted directional votes.
Firing uses min for the AND, clipping for implication, and max for
aggregation; interval grades are reduced with an exhaustive Karnik-Mendel
switch-point search and defuzzified at the centroid midpoint. Firing and
reduction take one row or a block of rows; recommend_block runs a portfolio
through them BLOCK_ROWS rows at a time.
"""

from __future__ import annotations

import csv
import functools
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
    grade_inputs,
    normalize_snapshot,
)
from .indicators import snapshot
from .market_data import PriceSeries, aggregate_periods


# Rows graded, fired and type-reduced together by recommend_block: enough to
# amortize numpy's per-call overhead, few enough that the (rows, grid) envelopes
# stay small.
BLOCK_ROWS = 64


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

    @functools.cached_property
    def _indexes(self) -> dict:
        return {}

    def index(
        self, layout: tuple[tuple[str, tuple[str, ...]], ...], labels: tuple[str, ...],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rules as index arrays over term grades stacked in `layout` order.

        `layout` lists each input variable with its terms and `labels` the
        output terms. Returns every rule's four antecedent term positions
        ((rules, 4), the rules grouped by consequent), the row where each
        group starts, and each group's consequent as a position in `labels`.
        Built once per layout; raises for the first rule naming an unknown
        variable, term or consequent.
        """
        key = (layout, labels)
        if key not in self._indexes:
            position: dict[str, dict[str, int]] = {}
            stacked = 0
            for name, terms in layout:
                position[name] = {term: stacked + i for i, term in enumerate(terms)}
                stacked += len(terms)
            rows, codes = [], []
            for rule in self.rules:
                try:
                    rows.append([position[name][term]
                                 for name, term in zip(ANTECEDENT_VARIABLES, rule.antecedent())])
                except KeyError as exc:
                    raise InferenceError(
                        f"rule references unknown variable/term: {exc}") from None
                label = rule.consequent.value.lower()
                if label not in labels:
                    raise InferenceError(f"output variable has no term {label!r}")
                codes.append(labels.index(label))
            order = np.argsort(codes, kind="stable")
            consequents, starts = np.unique(np.array(codes, dtype=np.intp)[order],
                                            return_index=True)
            self._indexes[key] = (
                np.array(rows, dtype=np.intp).reshape(-1, 4)[order], starts, consequents)
        return self._indexes[key]


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
    The fold indexes the stacked term grades with RuleBase.index, so float
    grades (one row) give 1-D envelopes and length-N array grades (a block of
    rows) give (N, grid_points) envelopes from the same few reductions.
    """
    layout = tuple((name, tuple(per_term)) for name, per_term in inputs.grades.items())
    antecedents, starts, consequents = rule_base.index(
        layout, tuple(label for label, _ in output_var.terms))
    # (terms, 2, N): every term's (lower, upper) grade per row
    grades = np.array([pair for per_term in inputs.grades.values() for pair in per_term.values()],
                      dtype=float)
    one_row = grades.ndim == 2
    grades = grades.reshape(len(grades), 2, -1)
    # (consequents, 2, N): the strongest rule of each consequent per row
    strengths = np.maximum.reduceat(grades[antecedents].min(axis=1), starts, axis=0)
    grid = np.linspace(output_var.domain[0], output_var.domain[1], grid_points)
    mu = np.array([output_var.terms[k][1].grade(grid) for k in consequents])
    # a clip at strength <= 0 adds nothing to the zero envelopes
    envelopes = np.minimum(mu.reshape(-1, 1, 1, grid_points), strengths[..., None]).max(
        axis=0, initial=0.0)
    lower, upper = envelopes[:, 0] if one_row else envelopes
    return AggregatedOutput(grid=grid, lower=lower, upper=upper, interval=inputs.interval)


def _quad_weights(n: int) -> np.ndarray:
    """Trapezoidal quadrature weights on a uniform grid (the step cancels)."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _centroid(x: np.ndarray, weights: np.ndarray) -> float:
    return float(np.dot(x, weights) / weights.sum())


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    """sums[:, j] = v[:, :j].sum(axis=1) for j = 0..n, accumulated from the left."""
    return np.cumsum(np.concatenate((np.zeros((len(v), 1)), v), axis=1), axis=1)


def _switch_point_centroids(x: np.ndarray, head: np.ndarray, tail: np.ndarray,
                            pick, empty: float) -> np.ndarray:
    """Per row, the centroid of weights head[:j] ++ tail[j:] at the switch point j pick selects.

    Every j in 0..n of every row is scored at once. Tail sums accumulate over
    the reversed arrays, not as total minus head, so an assignment without
    weight sums to exactly 0 and scores `empty`, not a ratio of rounding
    residue. j = 0 ranks last and j = n after the interior points: they win
    only where no interior assignment has weight. The chosen j is evaluated
    again row by row with _centroid, the type-1 expression.
    """
    weight = _prefix_sums(head) + _prefix_sums(tail[:, ::-1])[:, ::-1]
    moment = _prefix_sums(x * head) + _prefix_sums((x * tail)[:, ::-1])[:, ::-1]
    scores = np.divide(moment, weight, out=np.full(weight.shape, empty), where=weight > 0.0)
    picks = (pick(np.concatenate((scores[:, 1:], scores[:, :1]), axis=1), axis=1) + 1) \
        % scores.shape[1]
    return np.array([_centroid(x, np.concatenate((h[:j], t[j:])))
                     for h, t, j in zip(head, tail, picks.tolist())])


_NO_RULE_FIRED = "no rule fired: aggregate output is identically zero"


def _fired(agg: AggregatedOutput) -> np.ndarray:
    """Per row, whether the upper envelope is anywhere above zero."""
    return np.atleast_2d(agg.upper).max(axis=1) > 0.0


def km_type_reduce(agg: AggregatedOutput):
    """Karnik-Mendel switch-point centroids [y_l, y_r] of the sampled set.

    Exhaustive over switch points: y_l takes upper grades left of the switch
    and lower ones right of it, minimized; y_r the mirror image, maximized.
    One row (1-D envelopes) gives two floats; a block ((N, grid) envelopes)
    gives two length-N arrays. Raises when no rule fired in some row
    (identically zero upper envelope): for in-range inputs the variables'
    coverage floor makes that unreachable, so hitting it means misconfiguration.
    """
    if not _fired(agg).all():
        raise InferenceError(_NO_RULE_FIRED)
    quad = _quad_weights(len(agg.grid))
    lower, upper = quad * np.atleast_2d(agg.lower), quad * np.atleast_2d(agg.upper)
    y_l = _switch_point_centroids(agg.grid, upper, lower, np.argmin, np.inf)
    y_r = _switch_point_centroids(agg.grid, lower, upper, np.argmax, -np.inf)
    if agg.upper.ndim == 1:
        return float(y_l[0]), float(y_r[0])
    return y_l, y_r


def defuzzify(agg: AggregatedOutput):
    """Crisp output: trapezoid-quadrature centroid for type-1, KM midpoint otherwise.

    Both paths weigh the sampled set identically (half-weight grid endpoints),
    so zero-width intervals reduce to the type-1 centroid. One row gives a
    float, a block of rows a length-N array.
    """
    if agg.interval:
        y_l, y_r = km_type_reduce(agg)
        return 0.5 * (y_l + y_r)
    if not _fired(agg).all():
        raise InferenceError(_NO_RULE_FIRED)
    quad = _quad_weights(len(agg.grid))
    crisp = [_centroid(agg.grid, quad * row) for row in np.atleast_2d(agg.upper)]
    return crisp[0] if agg.upper.ndim == 1 else np.array(crisp)


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


def _footprint(cfg: ResolvedConfig) -> FootprintOfUncertainty | None:
    return FootprintOfUncertainty(cfg.delta) if cfg.delta > 0 else None


def _recommend_rows(
    symbols: list[str],
    inputs: FuzzifiedInputs,
    cfg: ResolvedConfig,
    rule_base: RuleBase,
    variables: tuple[LinguisticVariable, ...],
) -> list[Recommendation | PipelineError]:
    """Fire, type-reduce and classify fuzzified rows: one row (float grades) or a block.

    A row whose upper envelope is zero fails alone and is kept out of the
    reduction; each row is classified on its own. A stage failing for the
    whole block raises.
    """
    agg = _stage("inference", fire_rules, inputs, rule_base,
                 output_variable(variables), cfg.grid_points)
    stage = "type reduction" if agg.interval else "defuzzification"
    results: list[Recommendation | PipelineError | None] = [None] * len(symbols)
    live = []
    for i, fired in enumerate(_fired(agg).tolist()):
        if fired:
            live.append(i)
        else:
            results[i] = PipelineError(stage, InferenceError(_NO_RULE_FIRED))
    if not live:
        return results
    if len(live) < len(symbols):
        agg = AggregatedOutput(agg.grid, np.atleast_2d(agg.lower)[live],
                               np.atleast_2d(agg.upper)[live], agg.interval)
    if agg.interval:
        y_l, y_r = _stage(stage, km_type_reduce, agg)
        crisp = 0.5 * (y_l + y_r)
        intervals = list(zip(np.atleast_1d(y_l).tolist(), np.atleast_1d(y_r).tolist()))
    else:
        crisp = _stage(stage, defuzzify, agg)
        intervals = [None] * len(live)
    for i, value, interval in zip(live, np.atleast_1d(crisp).tolist(), intervals):
        try:
            signal = _stage("classification", classify_signal, value)
        except PipelineError as exc:
            results[i] = exc
            continue
        results[i] = Recommendation(symbol=symbols[i], crisp=value, signal=signal,
                                    centroid_interval=interval)
    return results


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
    inputs = _stage(
        "fuzzification", fuzzify, snap, variables,
        divisor=cfg.divisor, histogram_gain=cfg.histogram_gain, fou=_footprint(cfg),
    )
    if rule_base is None:
        rule_base = _stage("rule generation", build_rule_base,
                           cfg.primary_weight, cfg.secondary_weight, cfg.buy_at, cfg.sell_at)
    [result] = _recommend_rows([periods.symbol], inputs, cfg, rule_base, variables)
    if isinstance(result, PipelineError):
        raise result
    return result


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


def recommend_block(
    series_list: list[PriceSeries],
    cfg: ResolvedConfig,
    rule_base: RuleBase,
    variables: tuple[LinguisticVariable, ...],
) -> list[Recommendation | PipelineError]:
    """recommend on every series, with its failure in place of a failed row.

    Aggregation, the snapshot and its normalization run per series; the
    surviving rows are graded, fired and type-reduced BLOCK_ROWS at a time.
    Each row equals recommend(series, cfg, rule_base, variables) bit for bit.
    """
    results: list[Recommendation | PipelineError | None] = [None] * len(series_list)
    pending: list[tuple[int, dict[str, float]]] = []
    for i, series in enumerate(series_list):
        try:
            periods = _stage("aggregation", aggregate_periods, series, cfg.days_per_period)
            snap = _stage("indicators", snapshot, periods, **cfg.indicator_windows)
            pending.append((i, _stage("fuzzification", normalize_snapshot, snap,
                                      divisor=cfg.divisor, histogram_gain=cfg.histogram_gain)))
        except PipelineError as exc:
            results[i] = exc
    for start in range(0, len(pending), BLOCK_ROWS):
        block = pending[start:start + BLOCK_ROWS]
        rows = [i for i, _ in block]
        normalized = {name: np.array([x[name] for _, x in block]) for name in block[0][1]}
        symbols = [series_list[i].symbol for i in rows]
        try:
            inputs = _stage("fuzzification", grade_inputs, normalized, variables, _footprint(cfg))
            block_results = _recommend_rows(symbols, inputs, cfg, rule_base, variables)
        except PipelineError as exc:
            block_results = [exc] * len(rows)
        for i, result in zip(rows, block_results):
            results[i] = result
    return results


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
        return _read_rules(reader)
    except csv.Error as exc:  # e.g. a cell above the csv module's field size limit
        raise InferenceError(f"rule row {reader.line_num}: {exc}") from None


def _read_rules(reader) -> RuleBase:
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
