import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzsig.tuning import golden_ratio, level_labels, scale_secondaries

from oracles import scalar_level, scalar_scale_secondary

LEVELS = (0.382, 0.618)

# each range's ends, the floats just outside them, the signed zeros and NaN
EDGE_VALUES = [math.nan, 0.0, -0.0, 100.0, -100.0, math.inf, -math.inf,
               math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0),
               math.nextafter(100.0, 101.0), math.nextafter(-100.0, -101.0)]
secondary_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-150.0, 150.0))
divisors = st.one_of(st.sampled_from([0.0, -1.0, 1e-3, 89.0, 1e6]), st.floats(1e-3, 1e6))


def scalar_row(rsi: float, williams: float, divisor: float):
    """The scalar rule on one row, RSI first: both scaled values, or the first error."""
    try:
        return (scalar_scale_secondary("rsi", rsi, divisor).hex(),
                scalar_scale_secondary("wa", williams, divisor).hex())
    except ValueError as exc:
        return type(exc), str(exc)


class TestGoldenRatio:
    def test_four_decimal_places(self):
        assert round(golden_ratio(), 4) == 0.618

    def test_defining_identity(self):
        assert abs(golden_ratio() * (1.0 + math.sqrt(5.0)) / 2.0 - 1.0) < 1e-12

    def test_fibonacci_ratio_limit(self):
        a, b = 1, 1
        for _ in range(40):
            a, b = b, a + b
        assert abs(a / b - golden_ratio()) < 1e-12

    def test_solves_x_squared_plus_x_minus_one(self):
        x = golden_ratio()
        assert abs(x * x + x - 1.0) < 1e-12


class TestScaleSecondaries:
    def test_89_scales_to_1(self):
        rsi, wa, faults = scale_secondaries(89.0, -89.0)
        assert (rsi.tolist(), wa.tolist(), faults) == ([1.0], [1.0], {})

    def test_rsi_55_hits_the_golden_level(self):
        rsi, _, _ = scale_secondaries(55.0, -10.0)
        assert rsi.item() == pytest.approx(0.618, abs=5e-4)

    def test_out_of_range_values_fail_their_rows(self):
        _, _, faults = scale_secondaries([-1.0, 100.5, 50.0, 50.0, 50.0],
                                         [-10.0, -10.0, 1.0, -100.5, -10.0])
        assert {i: str(exc) for i, exc in faults.items()} == {
            0: "RSI out of range [0, 100]: -1.0",
            1: "RSI out of range [0, 100]: 100.5",
            2: "Williams value out of range [-100, 0]: 1.0",
            3: "Williams value out of range [-100, 0]: -100.5",
        }
        assert all(type(exc) is ValueError for exc in faults.values())

    def test_rsi_is_checked_before_the_divisor_and_the_divisor_before_williams(self):
        _, _, faults = scale_secondaries([200.0, 50.0], [5.0, 5.0], 0.0)
        assert [str(faults[i]) for i in (0, 1)] == [
            "RSI out of range [0, 100]: 200.0", "divisor must be positive, got 0.0"]

    @given(rows=st.lists(st.tuples(secondary_values, secondary_values), min_size=1,
                         max_size=8),
           divisor=divisors)
    def test_rows_equal_the_scalar_rule(self, rows, divisor):
        rsi, wa, faults = scale_secondaries(*np.array(rows).T, divisor)
        assert rsi.shape == wa.shape == (len(rows),)
        for i, row in enumerate(rows):
            got = ((type(faults[i]), str(faults[i])) if i in faults
                   else (rsi[i].item().hex(), wa[i].item().hex()))
            assert got == scalar_row(*row, divisor)

    @given(a=st.floats(0, 100), b=st.floats(0, 100))
    def test_monotone_in_absolute_value(self, a, b):
        lo, hi = sorted((a, b))
        rsi, wa, _ = scale_secondaries([lo, hi], [-lo, -hi])
        assert rsi[0] <= rsi[1] and wa[0] <= wa[1]


class TestLevelLabels:
    def test_labels_partition_the_scaled_range(self):
        assert level_labels(np.array([0.10, 0.50, 0.70]), LEVELS).tolist() == [
            "Low", "Medium", "High"]

    def test_levels_and_their_neighbours_equal_the_scalar_rule(self):
        points = [x for level in LEVELS
                  for x in (math.nextafter(level, 0.0), level, math.nextafter(level, 1.0))]
        assert level_labels(np.array(points), LEVELS).tolist() == [
            scalar_level(x, LEVELS) for x in points]
        assert level_labels(np.array(points[:3]), LEVELS).tolist() == ["Low", "Medium", "Medium"]
        assert level_labels(np.array(points[3:]), LEVELS).tolist() == [
            "Medium", "Medium", "High"]

    @given(scaled=st.lists(st.floats(0.0, 100.0 / 89.0), min_size=1, max_size=20),
           levels=st.lists(st.floats(0.0, 1.2), min_size=2, max_size=2, unique=True).map(
               lambda xs: tuple(sorted(xs))))
    def test_equals_the_scalar_rule(self, scaled, levels):
        assert level_labels(np.array(scaled), levels).tolist() == [
            scalar_level(x, levels) for x in scaled]
