"""Distribution validation, canonical constructors and the entropy measure."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given

from conftest import EXAMPLE_PD, simplexes
from pdneg import (
    YAGER,
    ComponentIndexError,
    Distribution,
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


class TestValidateDistribution:
    def test_example_distribution(self):
        dist = validate_distribution(EXAMPLE_PD)
        assert dist.n == 5
        assert dist.values == EXAMPLE_PD

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

    @given(simplexes())
    def test_revalidating_a_distribution_is_the_identity(self, dist):
        assert validate_distribution(dist.values) == dist


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


def _exact_entropy(values) -> float:
    """Independent oracle: the sum of (1 - p) * p in exact rational arithmetic."""
    total = sum((1 - Fraction(p)) * Fraction(p) for p in values)
    return float(total)


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
