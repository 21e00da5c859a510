"""Distribution validation, canonical constructors and the entropy measure."""

from __future__ import annotations

import gc
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EXAMPLE_PD, TINIEST, extreme_simplexes, normalize, simplexes
from pdneg import (
    YAGER,
    ComponentIndexError,
    ComponentTypeError,
    Distribution,
    NegationError,
    LengthError,
    RangeError,
    SumError,
    boundary_range_check,
    contexts_containing,
    entropy,
    evaluate,
    linear_from_boundary,
    point_distribution,
    sample_distributions,
    uniform_distribution,
    validate_distribution,
)
from pdneg.core import _SPLIT, DEFAULT_TOLERANCE, _check_simplex


class TestValidateDistribution:
    def test_example_distribution(self):
        dist = validate_distribution(EXAMPLE_PD)
        assert dist.n == 5
        assert dist.values == EXAMPLE_PD

    def test_iterating_a_distribution_yields_its_values(self):
        dist = validate_distribution(EXAMPLE_PD)
        assert tuple(dist) == dist.values

    def test_single_component_rejected(self):
        with pytest.raises(LengthError):
            validate_distribution((1.0,))

    def test_bad_sum_reports_actual_sum(self):
        with pytest.raises(SumError) as excinfo:
            validate_distribution((0.6, 0.6))
        assert "1.2" in str(excinfo.value)

    def test_range_error_names_first_offending_index(self):
        with pytest.raises(RangeError) as excinfo:
            validate_distribution((0.3, 1.4, -0.7))
        assert "component 2" in str(excinfo.value)

    def test_negative_component_rejected(self):
        with pytest.raises(RangeError) as excinfo:
            validate_distribution((-0.2, 0.5, 0.7))
        assert "component 1" in str(excinfo.value)

    def test_tolerance_governs_the_sum_check(self):
        values = (0.5, 0.5 + 5e-10)
        assert validate_distribution(values, tolerance=1e-9).values == values
        with pytest.raises(SumError):
            validate_distribution(values, tolerance=1e-10)

    def test_values_stored_as_given_without_renormalisation(self):
        values = (-1e-12, 0.5, 0.5)
        dist = validate_distribution(values)
        assert dist.values == values

    @pytest.mark.parametrize("values,index", [
        (["0.5", " 0.5 "], 1),
        ((0.5, b"0.5"), 2),
        ((0.5, bytearray(b"0.5")), 2),
        ([True, False], 1),
        ((1, False), 2),
        ((0.5, None, 0.5), 2),
        ((0.5, [0.5]), 2),
    ])
    def test_a_component_that_is_no_number_is_refused_by_index(self, values, index):
        with pytest.raises(ComponentTypeError, match=f"^component {index} = .* is not a number$") as excinfo:
            validate_distribution(values)
        assert isinstance(excinfo.value, ValueError) and isinstance(excinfo.value, NegationError)

    @pytest.mark.parametrize("big", [10**400, Fraction(10**400, 3)])
    def test_a_number_beyond_float_range_is_out_of_range(self, big):
        with pytest.raises(RangeError, match="^component 2 lies outside"):
            validate_distribution((1, big))

    @pytest.mark.parametrize("values", [(1, 0), (Fraction(1, 4), Fraction(3, 4)), (Decimal("0.25"), 0.75)])
    def test_ints_fractions_and_decimals_are_stored_as_floats(self, values):
        dist = validate_distribution(values)
        assert dist.values == tuple(float(v) for v in values)
        assert all(type(v) is float for v in dist.values)

    @given(simplexes())
    def test_revalidating_a_distribution_is_the_identity(self, dist):
        assert validate_distribution(dist.values) == dist


INF, NAN, TOL = math.inf, math.nan, DEFAULT_TOLERANCE
# (values, tolerance, error type, message) for each refusal of the simplex
# check: every case must keep taking the per-component loop that names it.
REFUSALS = {
    "nan-first": ((NAN, 0.5, 0.5), TOL, RangeError, "component 1 = nan lies outside [0, 1]"),
    "nan-later": ((0.5, NAN, 0.5), TOL, RangeError, "component 2 = nan lies outside [0, 1]"),
    "nan-last": ((0.5, 0.5, NAN), TOL, RangeError, "component 3 = nan lies outside [0, 1]"),
    "plus-inf": ((0.5, INF), TOL, RangeError, "component 2 = inf lies outside [0, 1]"),
    "minus-inf": ((0.5, -INF, 0.5), TOL, RangeError, "component 2 = -inf lies outside [0, 1]"),
    "past-minus-tol": ((0.5, 0.5, math.nextafter(-TOL, -INF)), TOL, RangeError,
                       f"component 3 = {math.nextafter(-TOL, -INF)!r} lies outside [0, 1]"),
    "past-one-plus-tol": ((math.nextafter(1.0 + TOL, INF), 0.0), TOL, RangeError,
                          f"component 1 = {math.nextafter(1.0 + TOL, INF)!r} lies outside [0, 1]"),
    "first-of-two-out": ((1.5, -INF), TOL, RangeError, "component 1 = 1.5 lies outside [0, 1]"),
    "sum-off": ((0.5, 0.5 + 2e-9), TOL, SumError, "components sum to 1.0000000020000002, expected 1 within 1e-09"),
    "inf-minus-inf-at-inf-tol": ((INF, -INF), INF, ValueError, "-inf + inf in fsum"),
}


@pytest.mark.parametrize("check", [_check_simplex, Distribution], ids=["check_simplex", "Distribution"])
@pytest.mark.parametrize("values,tolerance,error,message", REFUSALS.values(), ids=REFUSALS)
def test_each_simplex_refusal_keeps_its_type_index_and_message(check, values, tolerance, error, message):
    with pytest.raises(error) as excinfo:
        check(values, tolerance)
    assert type(excinfo.value) is error and str(excinfo.value) == message


@pytest.mark.parametrize("values", [(0.0, 1.0), (-TOL, 1.0 + TOL), (1.0 + TOL, -TOL), (0.25,) * 4])
def test_components_on_the_tolerance_edges_pass(values):
    _check_simplex(values, TOL)
    assert Distribution(values).values == values


class TestConstructors:
    def test_uniform_examples(self):
        assert uniform_distribution(5).values == (0.2,) * 5
        assert uniform_distribution(2).values == (0.5, 0.5)
        assert uniform_distribution(4).values == (0.25,) * 4

    def test_uniform_rejects_short_lengths(self):
        with pytest.raises(LengthError):
            uniform_distribution(1)

    def test_point_examples(self):
        assert point_distribution(4, 1).values == (1.0, 0.0, 0.0, 0.0)
        assert point_distribution(4, 4).values == (0.0, 0.0, 0.0, 1.0)
        assert point_distribution(2, 2).values == (0.0, 1.0)

    @pytest.mark.parametrize("i", [0, 5, -1])
    def test_point_index_outside_range(self, i):
        with pytest.raises(ComponentIndexError):
            point_distribution(4, i)

    def test_point_index_error_is_an_index_error(self):
        with pytest.raises(IndexError):
            point_distribution(4, 9)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_constructors_validate_at_zero_tolerance_for_dyadic_lengths(self, n):
        validate_distribution(uniform_distribution(n).values, tolerance=0.0)
        validate_distribution(point_distribution(n, 1).values, tolerance=0.0)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_constructors_validate_at_1e12_for_all_lengths(self, n):
        validate_distribution(uniform_distribution(n).values, tolerance=1e-12)
        validate_distribution(point_distribution(n, n).values, tolerance=1e-12)


# Every entry point that takes a length states n >= 2 through core.require_length.
LENGTH_TAKERS = {
    "uniform_distribution": lambda: uniform_distribution(1),
    "point_distribution": lambda: point_distribution(1, 1),
    "sample_distributions": lambda: sample_distributions(1, 3, seed=0),
    "contexts_containing": lambda: contexts_containing(0.5, 1, 3, seed=0),
    "linear_from_boundary": lambda: linear_from_boundary(1, n_at_one=0.0),
    "evaluate": lambda: evaluate(YAGER, 0.5, n=1),
    "boundary_range_check": lambda: boundary_range_check(YAGER, 1),
}


@pytest.mark.parametrize("call", LENGTH_TAKERS.values(), ids=LENGTH_TAKERS)
def test_every_length_taker_refuses_n_1_with_the_same_error(call):
    with pytest.raises(LengthError) as excinfo:
        call()
    assert str(excinfo.value) == "need n >= 2, got 1"


#: Every float is an integer multiple of 2**-1074, the least subnormal.
_UNIT = 2**1074


def _exact_entropy(values) -> float:
    """Independent oracle: the sum of (1 - p) * p in exact integer arithmetic.
    Each p is m / 2**1074 for an integer m, so the sum is one integer over
    2**2148, and one int / int division rounds it correctly."""
    scaled = [numerator * (_UNIT // denominator) for numerator, denominator in map(float.as_integer_ratio, values)]
    return sum([(_UNIT - m) * m for m in scaled]) / (_UNIT * _UNIT)


class _Long(tuple):
    """A drawn (n, distribution) case whose repr names n and the distribution's
    first and last components, not all n of them."""

    def __repr__(self):
        n, dist = self
        return f"Case(n={n}, first={dist[0]!r}, last={dist[-1]!r})"


class TestEntropy:
    def test_point_distributions_have_zero_entropy(self):
        for n in range(2, 6):
            for i in range(1, n + 1):
                assert entropy(point_distribution(n, i)) == 0.0

    def test_uniform_entropy_hits_the_closed_form(self):
        assert entropy(uniform_distribution(5)) == 0.8
        for n in range(2, 11):
            assert entropy(uniform_distribution(n)) == pytest.approx((n - 1) / n, abs=2**-52)

    def test_example_distribution_entropy(self):
        # 0 + 0.1*0.9 + 0.2*0.8 + 0.3*0.7 + 0.4*0.6 = 0.70
        assert entropy(validate_distribution(EXAMPLE_PD)) == pytest.approx(0.70, abs=1e-12)

    def test_entropy_is_correctly_rounded(self):
        # The implementation must agree bit-for-bit with exact rational
        # summation of the stored float components.
        for n in range(2, 7):
            for dist in sample_distributions(n, 50, seed=n):
                assert entropy(dist) == _exact_entropy(dist.values)

    @settings(deadline=None)
    @given(st.integers(2, 12).flatmap(extreme_simplexes))
    def test_entropy_is_correctly_rounded_at_the_edges_of_the_simplex(self, dist):
        assert entropy(dist) == _exact_entropy(dist.values)

    # The lengths of wide-pd's distributions, and beyond them.
    @pytest.mark.parametrize("n", [1000, 2000, 5000])
    @settings(deadline=None, max_examples=10)
    @given(data=st.data())
    def test_entropy_is_correctly_rounded_on_long_distributions(self, n, data):
        _, dist = data.draw(extreme_simplexes(n).map(lambda dist: _Long((n, dist))))
        assert entropy(dist) == _exact_entropy(dist.values)

    @staticmethod
    def reference(values) -> float:
        """The Dekker kernel: p, the rounded head p*p and its exact tail,
        all summed by one fsum."""
        terms = []
        for p in values:
            head = p * p
            scaled = p * _SPLIT
            upper = scaled - (scaled - p)
            lower = p - upper
            terms += (p, -head, -(((upper * upper - head) + 2.0 * (upper * lower)) + lower * lower))
        return math.fsum(terms)

    # Below 2**-511 a square leaves the normal range and its products round,
    # so there both kernels may miss the exact value; they still agree.
    @settings(deadline=None)
    @given(st.lists(st.one_of(st.floats(TINIEST, 1.0), st.floats(-1074.0, 0.0).map(lambda e: 2.0**e)),
                    min_size=1, max_size=30).map(lambda draws: normalize([1.0, *draws])))
    def test_entropy_matches_the_dekker_kernel_down_to_the_least_subnormal(self, dist):
        assert entropy(dist) == self.reference(dist.values)

    def test_entropy_works_in_constant_memory(self):
        # Its terms come from a generator; a list of all 4n of them would
        # take about 20 MiB here.
        dist = uniform_distribution(200_000)
        gc.collect()
        tracemalloc.start()
        try:
            entropy(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bounds_by_brute_force_n2(self):
        values = [entropy(Distribution((k / 200, 1.0 - k / 200))) for k in range(201)]
        assert all(0.0 <= h <= 0.5 for h in values)
        assert max(values) == entropy(uniform_distribution(2)) == 0.5
        assert values[0] == values[-1] == 0.0

    def test_bounds_by_brute_force_n3(self):
        # Grid sums stray from 1 by ~1 ulp, which moves the attainable
        # maximum by the same order; 1e-12 absorbs that representation slack.
        steps = 60
        best = None
        grid_max = -1.0
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                a, b = i / steps, j / steps
                dist = Distribution((a, b, 1.0 - a - b))
                h = entropy(dist)
                assert 0.0 <= h <= 2 / 3 + 1e-12
                if h > grid_max:
                    grid_max, best = h, dist
        assert grid_max == pytest.approx(entropy(uniform_distribution(3)), abs=1e-12)
        assert all(abs(v - 1 / 3) <= 1 / steps for v in best.values)

    @given(simplexes())
    def test_entropy_within_bounds_on_random_distributions(self, dist):
        n = len(dist)
        assert -0.0 <= entropy(dist) <= (n - 1) / n + 1e-12
