"""Mamdani rule base, rule firing, Karnik-Mendel type reduction, and classification.

The generated rule base enumerates all 36 antecedent combinations (MACD 2 x
RSI 3 x SO 3 x Williams 2) and scores each by weighted directional votes.
Firing uses min for the AND, clipping for implication, and max for
aggregation; interval grades are reduced with an exhaustive Karnik-Mendel
switch-point search and defuzzified at the centroid midpoint. Firing and
reduction take a block of N >= 1 rows. Firing reads grade_inputs' array, the
term grades in fuzzy.STACKED_TERMS order, whose rows RuleBase.index names,
and reads type-1 or interval from its shape. Every entry point hands indicator
rows to recommend_rows, which normalizes them (fuzzy.normalize_rows) and
evaluates them BLOCK_ROWS at a time. period_frames makes one
market_data.aggregate_block call and one indicators.indicator_block per
group of series with the same number of periods: recommend_block
(portfolio; recommend, its one-series case, runs signal) passes each frame's
last column, and the `indicators` table prints every column. recommend_periods
serves only the backtest: it passes the one row indicators.snapshot
computes for each period prefix, in O(window). The rule base, variables and
footprint width (the float fuzzy.delta; 0 grades type-1) come from
ResolvedConfig, whose rule base is its --rules table or the generated one.
The config also builds, once per config object, the tables that grading and
firing read (input_terms; output_table: the grid, its trapezoid weights and
the consequent grades), and the entry points called without a config share
config.DEFAULT_CONFIG, so a call pays for its rows. recommend_rows asks for the
variables (fuzzy.default_variables, built once per table) as its coverage check.
"""

from __future__ import annotations

import csv
import io
import itertools
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._frozen import Frozen, Value
from .config import DEFAULT_CONFIG, ResolvedConfig
from .fuzzy import STACKED_TERMS, grade_inputs, normalize_rows
from .indicators import IndicatorFrame, IndicatorSnapshot, indicator_block, snapshot
from .market_data import PriceSeries, aggregate_block


# Rows graded, fired and type-reduced together by recommend_rows: enough to
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


# The rule vocabulary: each antecedent variable's terms and their directional votes,
# in fuzzy.STACKED_TERMS order.
# MACD high and Williams high (deeply oversold) read bullish; an overbought
# stochastic reads bearish, an oversold one bullish.
VOTES = {
    "macd": {"low": -1, "high": +1},
    "rsi": {"low": -1, "medium": 0, "high": +1},
    "so": {"low": +1, "medium": 0, "high": -1},
    "wa": {"low": -1, "high": +1},
}

ANTECEDENT_VARIABLES = tuple(VOTES)

ANTECEDENT_TERMS = {name: tuple(votes) for name, votes in VOTES.items()}

PRIMARY_INPUTS = ("macd", "so")
SECONDARY_INPUTS = ("rsi", "wa")

RULES_CSV_HEADER = (*ANTECEDENT_VARIABLES, "consequent")


class Rule(NamedTuple):
    macd: str
    rsi: str
    so: str
    wa: str
    consequent: Signal
    score: int | None = None

    def antecedent(self) -> tuple[str, str, str, str]:
        return (self.macd, self.rsi, self.so, self.wa)


class RuleBase(Value):
    __slots__ = ("rules", "_index")
    _fields = ("rules",)

    def __init__(self, rules: tuple[Rule, ...]) -> None:
        object.__setattr__(self, "rules", rules)

    @property
    def index(self) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """The rules as index arrays over term grades stacked in STACKED_TERMS order.

        Returns every rule's four antecedent term positions ((4, rules), the
        rules grouped by consequent), the rule where each group starts, and each
        group's consequent label. Built once per rule base; raises for the
        first rule naming an unknown term.
        """
        try:
            return self._index
        except AttributeError:
            pass
        position = {key: row for row, key in enumerate(STACKED_TERMS)}
        try:
            rows = [[position[key] for key in zip(ANTECEDENT_VARIABLES, rule.antecedent())]
                    for rule in self.rules]
        except KeyError as exc:
            raise InferenceError(f"rule references unknown variable/term: {exc}") from None
        signals = list(Signal)
        codes = np.array([signals.index(rule.consequent) for rule in self.rules], dtype=np.intp)
        order = np.argsort(codes, kind="stable")
        consequents, starts = np.unique(codes[order], return_index=True)
        labels = tuple(signals[k].value.lower() for k in consequents.tolist())
        index = np.array(rows, dtype=np.intp).reshape(-1, 4)[order].T.copy(), starts, labels
        object.__setattr__(self, "_index", index)
        return index


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


class AggregatedOutput(Frozen):
    """Max-aggregated clipped consequents sampled on a uniform output grid.

    `weights` are the grid's trapezoid quadrature weights (fuzzy.OutputTable);
    `lower` and `upper` are (N, grid) envelopes, one row per input row;
    `fired` says, per row, whether the upper envelope is anywhere above zero.
    """

    _fields = ("grid", "weights", "lower", "upper", "interval")
    __slots__ = (*_fields, "fired")

    def __init__(self, grid: np.ndarray, weights: np.ndarray, lower: np.ndarray,
                 upper: np.ndarray, interval: bool) -> None:
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "fired", np.maximum.reduce(upper, axis=1) > 0.0)


def fire_rules(grades: np.ndarray, cfg: ResolvedConfig) -> AggregatedOutput:
    """Fire the config's rules (min over antecedent grades) and max-aggregate the clips.

    `grades` is grade_inputs' array in fuzzy.STACKED_TERMS order, which
    RuleBase.index indexes in place: (terms, 1, N) type-1 grades, which fire
    once, so the aggregate's lower and upper envelopes are the same array, or
    (terms, 2, N) (lower, upper) intervals, which fire endpoint-wise. Any
    other shape raises InferenceError. Clipping and max commute, so the rules
    first fold into one strength per consequent and half, the max over its
    rules, and each consequent term is clipped once per envelope: (N, grid)
    envelopes on the grid of cfg.output_table, whose read-only grid and
    weights the aggregate carries.
    """
    antecedents, starts, _ = cfg.rule_base.index
    if grades.ndim != 3 or grades.shape[0] != len(STACKED_TERMS) or grades.shape[1] not in (1, 2):
        raise InferenceError(f"grades must be a ({len(STACKED_TERMS)}, 1 or 2, N) array, "
                             f"got shape {grades.shape}")
    # (consequents, halves, N): the strongest rule of each consequent per row
    strengths = np.maximum.reduceat(np.minimum.reduce(grades.take(antecedents, axis=0)), starts,
                                    axis=0)
    grid, weights, mu = cfg.output_table
    # (halves, N, grid points): the clips fold into zero envelopes one consequent at a
    # time, in place, so a clip at strength <= 0 adds nothing
    envelopes = np.zeros((*strengths.shape[1:], len(grid)))
    clip = np.empty_like(envelopes)
    for term, strength in zip(mu, strengths[..., None]):
        np.maximum(envelopes, np.minimum(term, strength, out=clip), out=envelopes)
    return AggregatedOutput(grid, weights, envelopes[0], envelopes[-1], grades.shape[1] == 2)


def _centroids(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per row of (N, n) weights, the weighted mean of x.

    Elementwise products and numpy's pairwise row sums, not a BLAS dot, so
    the values do not depend on the CPU's SIMD or BLAS kernel.
    """
    return np.add.reduce(np.multiply(x, weights), axis=1) / np.add.reduce(weights, axis=1)


def _prefix_sums(v: np.ndarray) -> np.ndarray:
    """sums[:, j] = v[:, :j].sum(axis=1) for j = 0..n, accumulated from the left."""
    return np.cumsum(np.concatenate((np.zeros((len(v), 1)), v), axis=1), axis=1)


def _switch_points(x: np.ndarray, head: np.ndarray, tail: np.ndarray, pick,
                   empty: float) -> np.ndarray:
    """Per row, the switch point j in 0..n whose weights head[:j] ++ tail[j:] pick chooses.

    Every j of every row is scored by its centroid at once. Tail sums
    accumulate over the reversed arrays, not as total minus head, so an
    assignment without weight sums to exactly 0 and scores `empty`, not a
    ratio of rounding residue. j = 0 ranks last and j = n after the interior
    points: they win only where no interior assignment scores as well.
    """
    weight = _prefix_sums(head) + _prefix_sums(tail[:, ::-1])[:, ::-1]
    moment = _prefix_sums(x * head) + _prefix_sums((x * tail)[:, ::-1])[:, ::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = moment / weight
    np.copyto(scores, empty, where=~(weight > 0.0))  # no weight (or a NaN one)
    picks = pick(scores, axis=1)
    # j = 0 ranks last: where pick chose it, an interior point that ties with it
    # wins instead, as does a NaN one, which pick would have chosen first
    tied = (picks == 0).nonzero()[0]
    inner = pick(scores[tied, 1:], axis=1) + 1
    best = scores[tied, inner]
    picks[tied] = np.where((best == scores[tied, 0]) | np.isnan(best), inner, 0)
    return picks


def _switch_point_centroids(x: np.ndarray, head: np.ndarray, tail: np.ndarray,
                            pick, empty: float) -> np.ndarray:
    """Per row, the centroid of the weights at _switch_points' j, by the type-1 _centroids."""
    picks = _switch_points(x, head, tail, pick, empty)
    return _centroids(x, np.where(np.arange(len(x)) < picks[:, None], head, tail))


_NO_RULE_FIRED = "no rule fired: aggregate output is identically zero"


def km_type_reduce(agg: AggregatedOutput) -> tuple[np.ndarray, np.ndarray]:
    """Karnik-Mendel switch-point centroids [y_l, y_r] of the sampled set, per row.

    Exhaustive over switch points: y_l takes upper grades left of the switch
    and lower ones right of it, minimized; y_r the mirror image, maximized.
    Returns two length-N arrays. Raises when no rule fired in some row
    (identically zero upper envelope): for in-range inputs the variables'
    coverage floor makes that unreachable, so hitting it means misconfiguration.
    """
    if np.count_nonzero(agg.fired) < len(agg.fired):
        raise InferenceError(_NO_RULE_FIRED)
    lower, upper = agg.weights * agg.lower, agg.weights * agg.upper
    return (_switch_point_centroids(agg.grid, upper, lower, np.argmin, np.inf),
            _switch_point_centroids(agg.grid, lower, upper, np.argmax, -np.inf))


def defuzzify(agg: AggregatedOutput) -> np.ndarray:
    """Crisp output per row: trapezoid-quadrature centroid for type-1, KM midpoint otherwise.

    Both paths weigh the sampled set identically (half-weight grid endpoints),
    so zero-width intervals reduce to the type-1 centroid.
    """
    if agg.interval:
        y_l, y_r = km_type_reduce(agg)
        return 0.5 * (y_l + y_r)
    if np.count_nonzero(agg.fired) < len(agg.fired):
        raise InferenceError(_NO_RULE_FIRED)
    return _centroids(agg.grid, agg.weights * agg.upper)


def classify_signal(crisp: float) -> Signal:
    """Sell on [0, 0.4), Hold on [0.4, 0.6), Buy on [0.6, 1]."""
    if not 0.0 <= crisp <= 1.0:
        raise InferenceError(f"crisp output out of range [0, 1]: {crisp}")
    if crisp < 0.4:
        return Signal.SELL
    if crisp < 0.6:
        return Signal.HOLD
    return Signal.BUY


class Recommendation(NamedTuple):
    symbol: str
    crisp: float
    signal: Signal
    centroid_interval: tuple[float, float] | None = None


def recommend_rows(symbols: list[str], snap: IndicatorSnapshot,
                   cfg: ResolvedConfig) -> list[Recommendation | PipelineError]:
    """Normalize, grade, fire, type-reduce and classify indicator rows.

    `snap` holds one row per symbol: floats for one row, length-N arrays for
    a block. The config's variables are built first, as its coverage check:
    a table that fails it raises ConfigError, not PipelineError. Grading and
    firing read the config's tables. The rows are normalized at once
    (normalize_rows); a row that fails normalization gets its own
    fuzzification error and is left out, and the rest are evaluated
    BLOCK_ROWS at a time. A row whose upper
    envelope is zero fails alone and is kept out of the reduction; a stage
    failing for a whole block fails each of its rows. A failed row gets its
    PipelineError in place of a Recommendation, at its own index.
    """
    cfg.build_variables()
    normalized, faults = normalize_rows(snap, divisor=cfg.divisor,
                                        histogram_gain=cfg.histogram_gain)
    results: list[Recommendation | PipelineError | None] = [None] * len(symbols)
    kept = range(len(symbols))
    if faults:
        for i, exc in faults.items():
            results[i] = PipelineError("fuzzification", exc)
        kept = [i for i in kept if i not in faults]
        normalized = {name: x[kept] for name, x in normalized.items()}
    delta = cfg.delta if cfg.delta > 0 else None
    stage = "defuzzification" if delta is None else "type reduction"
    for start in range(0, len(kept), BLOCK_ROWS):
        block = kept[start:start + BLOCK_ROWS]
        rows = {name: x[start:start + BLOCK_ROWS] for name, x in normalized.items()}
        try:
            grades = _stage("fuzzification", grade_inputs, rows, cfg.input_terms, delta)
            agg = _stage("inference", fire_rules, grades, cfg)
            fired = agg.fired
            alive = np.count_nonzero(fired)
            live = agg if alive == len(fired) else AggregatedOutput(
                agg.grid, agg.weights, agg.lower[fired], agg.upper[fired], agg.interval)
            if not alive:
                reduced = iter(())
            elif agg.interval:
                y_l, y_r = _stage(stage, km_type_reduce, live)
                reduced = zip((0.5 * (y_l + y_r)).tolist(), zip(y_l.tolist(), y_r.tolist()))
            else:
                reduced = zip(_stage(stage, defuzzify, live).tolist(), itertools.repeat(None))
        except PipelineError as exc:
            for i in block:
                results[i] = exc
            continue
        for i, ok in zip(block, fired.tolist()):
            if not ok:
                results[i] = PipelineError(stage, InferenceError(_NO_RULE_FIRED))
                continue
            crisp, interval = next(reduced)
            try:
                signal = _stage("classification", classify_signal, crisp)
                results[i] = Recommendation(symbols[i], crisp, signal, interval)
            except PipelineError as exc:
                results[i] = exc
    return results


def recommend_periods(periods: PriceSeries, config: ResolvedConfig = DEFAULT_CONFIG
                      ) -> Recommendation:
    """Run the pipeline on aggregated period bars.

    The one-row case of recommend_rows, on the snapshot of the last period,
    for the backtest's period prefixes; the row's PipelineError is raised.
    """
    snap = _stage("indicators", snapshot, periods, **config.indicator_windows)
    [result] = recommend_rows([periods.symbol], snap, config)
    if isinstance(result, PipelineError):
        raise result
    return result


def recommend(series: PriceSeries, config: ResolvedConfig = DEFAULT_CONFIG) -> Recommendation:
    """Full pipeline on one series' daily bars: the one-series recommend_block, raising."""
    [result] = recommend_block([series], config)
    if isinstance(result, PipelineError):
        raise result
    return result


def period_frames(series_list: list[PriceSeries], cfg: ResolvedConfig,
                  fields: tuple[str, ...] = ("high", "low", "close")
                  ) -> tuple[dict[int, Exception], list[tuple[list[int], dict, IndicatorFrame]]]:
    """The series' period columns and indicators, one block per period count.

    Each group of series with the same number of periods makes one
    aggregate_block call, of `fields` (high, low and close among them), and
    one indicator_block. Returns each failing series' aggregation error by its
    index, and per group, in order of first appearance, the kept indices (row
    j is series kept[j]), the (N, T) period columns and the frame.
    """
    groups: dict[int, list[int]] = {}
    for i, series in enumerate(series_list):
        groups.setdefault(len(series.bars) // cfg.days_per_period, []).append(i)
    faults, blocks = {}, []
    for members in groups.values():
        periods, failed = aggregate_block([series_list[i] for i in members], cfg.days_per_period,
                                          fields)
        faults.update((members[j], exc) for j, exc in failed.items())
        kept = [i for j, i in enumerate(members) if j not in failed]
        if kept:
            blocks.append((kept, periods, indicator_block(
                periods["high"], periods["low"], periods["close"], **cfg.indicator_windows)))
    return faults, blocks


def recommend_block(series_list: list[PriceSeries], cfg: ResolvedConfig
                    ) -> list[Recommendation | PipelineError]:
    """The pipeline on every series' daily bars, with its failure in place of a failed row.

    Each period_frames block's last column is its snapshot, for one
    recommend_rows call. A row does not depend on the other series: it equals
    recommend(series, cfg), bit for bit.
    """
    cfg.build_variables()  # an uncovered table raises ConfigError even if every row fails sooner
    faults, blocks = period_frames(series_list, cfg)
    results = {i: PipelineError("aggregation", exc) for i, exc in faults.items()}
    for kept, _, frame in blocks:
        try:
            snap = _stage("indicators", frame.row, frame.close.shape[-1] - 1)
        except PipelineError as exc:
            group = [exc] * len(kept)
        else:
            group = recommend_rows([series_list[i].symbol for i in kept], snap, cfg)
        results.update(zip(kept, group))
    return [results[i] for i in range(len(series_list))]


def rules_to_csv(rule_base: RuleBase) -> str:
    """Serialize rules as `macd,rsi,so,wa,consequent,score` lines; a parsed rule's score is blank.

    rules_from_csv ignores the score column, so the table reads back as the same rules.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow((*RULES_CSV_HEADER, "score"))
    for rule in rule_base.rules:
        writer.writerow((*rule.antecedent(), rule.consequent.value.lower(),
                         "" if rule.score is None else str(rule.score)))
    return out.getvalue()


def rules_from_csv(text: str | bytes) -> RuleBase:
    """Parse a user-supplied rule table; extra columns are ignored.

    One leading byte-order mark, as spreadsheets write in "CSV UTF-8", is dropped.
    Bytes that are not UTF-8 raise InferenceError.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InferenceError(f"rule table is not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
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
        rules.append(Rule(macd=m, rsi=r, so=s, wa=w, consequent=signals[consequent]))
    if not rules:
        raise InferenceError("rule table has no rules")
    return RuleBase(tuple(rules))
