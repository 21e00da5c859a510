"""Diagnostics: order-reversal checks, fixed points, the balance identity,
boundary ranges, linearity, independence probing, entropy deltas, iteration."""

from __future__ import annotations

import gc
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EXAMPLE_PD, extreme_simplexes, normalize
from pdneg import (
    ArgumentError,
    CheckReport,
    ContextMismatch,
    Distribution,
    EntropyReport,
    Generator,
    GeneratorError,
    IDENTITY,
    IndependenceRequired,
    InternalConsistencyError,
    IterationTrace,
    LengthError,
    LengthMismatch,
    Linear,
    LinearityVerdict,
    Mixture,
    NegationError,
    NegatorDescriptor,
    NegatorRequired,
    ROOT_SUM,
    Tsallis,
    UNIFORM,
    YAGER,
    Violation,
    analysis,
    apply_transformation,
    audit,
    boundary_range_check,
    check_negation_pair,
    contexts_containing,
    distance_to_uniform,
    entropy,
    entropy_delta,
    evaluate,
    fixed_point_check,
    functional_equation_check,
    functional_equation_residual,
    independence_probe,
    iterate_negation,
    linear_from_alpha,
    linear_from_boundary,
    linearity_test,
    mixture,
    parse_descriptor,
    sample_distributions,
    uniform_distribution,
    validate_distribution,
)
from pdneg.analysis import CHECK_TOLERANCE
from pdneg.cli import main
from pdneg.negators import _LinearFamily

EXAMPLE = validate_distribution(EXAMPLE_PD)


class TestCheckReport:
    def test_passed_is_derived_from_the_violations(self):
        violation = Violation(0.5, expected=0.0, actual=1.0)
        assert CheckReport("demo", [], 2, 0.0).passed
        report = CheckReport("demo", [violation], 2, 0.0, notes=["a note"])
        assert not report.passed
        assert (report.violations, report.notes) == ((violation,), ("a note",))
        assert list(report.to_dict()) == [
            "check_name", "passed", "violations", "grid_size", "tolerance", "seed", "notes"]
        assert report.to_dict()["passed"] is False
        # Golden JSON reads a tuple as a list, so the types are pinned here.
        pair = Violation((1, 2), expected=0.25, actual=0.5)
        assert CheckReport("demo", [pair], 0, 1e-12, seed=3, notes=["a note"]).to_dict() == {
            "check_name": "demo", "passed": False,
            "violations": [{"location": [1, 2], "expected": 0.25, "actual": 0.5, "magnitude": 0.25}],
            "grid_size": 0, "tolerance": 1e-12, "seed": 3, "notes": ["a note"]}
        assert CheckReport("demo", [], 2, 0.0).to_dict() == {
            "check_name": "demo", "passed": True, "violations": [], "grid_size": 2, "tolerance": 0.0, "seed": None}
        assert LinearityVerdict(True, 0.0, 0.0).to_dict() == {
            "is_linear": True, "alpha_estimate": 0.0, "max_residual": 0.0}

    def test_each_claim_refusal_reads_its_one_statement(self):
        assert fixed_point_check(Tsallis(2.0), 5).notes == (
            f"pointwise checks skipped: descriptor {IndependenceRequired.refusal}",)
        assert fixed_point_check(IDENTITY, 5).notes == (
            f"uniqueness sweep skipped: descriptor {NegatorRequired.refusal}",)
        with pytest.raises(NegatorRequired) as excinfo:
            iterate_negation(IDENTITY, EXAMPLE, 1)
        assert str(excinfo.value) == f"identity {NegatorRequired.refusal}"


class TestNegationPair:
    def test_fully_reversed_pair_passes(self):
        report = check_negation_pair(Distribution((0.7, 0.3)), Distribution((0.3, 0.7)))
        assert report.passed and report.violations == ()

    def test_order_preserving_pair_fails_at_the_witness(self):
        report = check_negation_pair(Distribution((0.7, 0.3)), Distribution((0.7, 0.3)))
        assert not report.passed
        assert report.violations[0].location == (2, 1)
        assert report.violations[0].magnitude == pytest.approx(0.4, abs=1e-15)

    def test_example_pair_passes(self):
        report = check_negation_pair(
            EXAMPLE, Distribution((0.225, 0.2125, 0.2, 0.1875, 0.175))
        )
        assert report.passed

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            check_negation_pair(Distribution((0.5, 0.5)), Distribution((0.4, 0.3, 0.3)))

    @given(st.data(), st.sampled_from([0.0, 1e-12, 0.05]))
    def test_matches_the_pairwise_definition(self, data, tolerance):
        # Small integer weights give ties, zeros and point masses.
        source = data.draw(st.sampled_from(["independent", "near-negation", YAGER, UNIFORM, Tsallis(2.0), IDENTITY]))
        longest = 200 if source == "near-negation" else 8
        p = normalize(data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=longest).filter(any)))
        if source == "independent":
            q = normalize(data.draw(st.lists(st.integers(0, 3), min_size=len(p), max_size=len(p)).filter(any)))
        elif source == "near-negation":
            # Yager's image reverses the order; one transposition breaks it at a few indices.
            q = list(apply_transformation(YAGER, p).values)
            i, j = data.draw(st.lists(st.integers(0, len(p) - 1), min_size=2, max_size=2))
            q[i], q[j] = q[j], q[i]
            q = Distribution(tuple(q))
        else:
            q = apply_transformation(source, p)
        expected = [
            ((i + 1, j + 1), q[j], q[i], q[j] - q[i])
            for i in range(len(p)) for j in range(len(p))
            if i != j and p[i] <= p[j] and q[i] < q[j] - tolerance
        ]
        report = check_negation_pair(p, q, tolerance)
        assert report.passed == (not expected)
        assert [(v.location, v.expected, v.actual, v.magnitude) for v in report.violations] == expected


class TestFixedPoint:
    def test_yager(self):
        report = fixed_point_check(YAGER, 4)
        assert report.passed
        assert evaluate(YAGER, 0.25, n=4) == 0.25

    def test_uniform(self):
        assert fixed_point_check(UNIFORM, 5).passed

    def test_identity_passes_with_the_uniqueness_sweep_skipped(self):
        report = fixed_point_check(IDENTITY, 3)
        assert report.passed
        assert any("negator" in note for note in report.notes)

    def test_dependent_descriptor_skips_the_pointwise_parts(self):
        report = fixed_point_check(Tsallis(2.0), 5)
        assert report.passed
        assert any("pd-independence" in note for note in report.notes)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_linear_family(self, n):
        for tenth in range(11):
            assert fixed_point_check(Linear(tenth / 10), n).passed

    def test_increasing_function_fails_the_sign_sweep(self):
        rising = Generator(lambda p: p * p, "rising", claims_pd_independent=True)
        report = fixed_point_check(rising, 4)
        assert not report.passed
        # 0 and 1 are spurious fixed points of the normalised square.
        locations = {violation.location for violation in report.violations}
        assert 0.0 in locations and 1.0 in locations

    @pytest.mark.parametrize("descriptor, n", [(YAGER, 3), (Linear(0.3), 4)])
    def test_zero_tolerance_reports_the_rounding_of_one_over_n(self, descriptor, n):
        # Yager's kernel at n = 3 maps 1/3 to (1 - 1/3)/2, one rounding (5.55e-17) above
        # 1/3, and linear:alpha=0.3 at n = 4 maps 1/4 one rounding below it: part (a)
        # reports each component of N(U), part (b) N(1/n).  The sweep adds nothing:
        # the default grid holds no 1/3, and at 1/4 the image lies on neither wrong side.
        u, alpha = 1.0 / n, descriptor.alpha
        image = alpha / n + (1.0 - alpha) * (1.0 - u) / (n - 1)
        report = fixed_point_check(descriptor, n, tolerance=0.0)
        assert [(v.location, v.expected, v.actual, v.magnitude) for v in report.violations] == [
            (location, u, image, abs(image - u)) for location in (*range(1, n + 1), u)
        ]
        assert abs(image - u) == pytest.approx(5.55e-17, rel=1e-3)


class _NaNAlpha(_LinearFamily):
    """A linear-family kernel whose alpha is NaN, so N(1/n) is NaN and N(uniform) leaves the simplex."""

    alpha = math.nan


class TestFixedPointOfABlindKernel:
    """A kernel that reads no context has N(1/n) in every component of N(uniform),
    so the fixed point checks that one value; its report is the one that the image
    of the uniform distribution, mapped component by component, gives."""

    BLIND = ["yager", "uniform", "identity", "linear:alpha=0.3", "mix:[0.3*linear:alpha=0.2,0.7*yager]"]

    @staticmethod
    def per_component(descriptor, n, tolerance):
        u = 1.0 / n
        image = apply_transformation(descriptor, uniform_distribution(n)).values
        return [Violation(index, expected=u, actual=value)
                for index, value in enumerate(image, 1) if abs(value - u) > tolerance]

    @pytest.mark.parametrize("tolerance", [0.0, CHECK_TOLERANCE])
    @pytest.mark.parametrize("n", [3, 4, 5, 1000])
    @pytest.mark.parametrize("spec", BLIND)
    def test_the_one_value_gives_the_per_component_report(self, spec, n, tolerance, monkeypatch):
        descriptor = parse_descriptor(spec)
        report = audit(descriptor, n, grid_size=11, tolerance=tolerance).results["fixed-point"]
        expected = self.per_component(descriptor, n, tolerance)
        assert [v for v in report.violations if isinstance(v.location, int)] == expected
        # A kernel taken to read its context maps the whole uniform distribution: the same report.
        monkeypatch.setattr(analysis, "_reads_context", lambda descriptor: True)
        assert audit(descriptor, n, grid_size=11, tolerance=tolerance).results["fixed-point"] == report

    @pytest.mark.parametrize("descriptor", [_NaNAlpha(), mixture([(0.5, YAGER), (0.5, _NaNAlpha())])])
    def test_a_nan_n_of_one_over_n_raises_what_the_full_path_raises(self, descriptor):
        with pytest.raises(InternalConsistencyError) as full:
            apply_transformation(descriptor, uniform_distribution(5))
        for check in (lambda: fixed_point_check(descriptor, 5, grid_size=11), lambda: audit(descriptor, 5, 11)):
            with pytest.raises(InternalConsistencyError) as found:
                check()
            assert str(found.value) == str(full.value)


class TestFunctionalEquation:
    def test_yager_residual_is_zero(self):
        assert functional_equation_residual(YAGER, 4, 0.5) == 0.0

    def test_uniform_residual_is_tiny(self):
        for k in range(11):
            assert functional_equation_residual(UNIFORM, 5, k / 10) <= 1e-12

    def test_linear_residual_at_the_example_point(self):
        assert functional_equation_residual(Linear(0.5), 5, 0.3) <= 1e-12

    def test_dependent_descriptor_is_rejected(self):
        with pytest.raises(IndependenceRequired):
            functional_equation_residual(Tsallis(2.0), 5, 0.3)

    @pytest.mark.parametrize("descriptor", [YAGER, UNIFORM, Linear(0.25), Linear(0.75)])
    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_sweep_passes_for_the_linear_family(self, descriptor, n):
        assert functional_equation_check(descriptor, n).passed

    @pytest.mark.parametrize("descriptor", [YAGER, UNIFORM, IDENTITY, Linear(0.5)])
    def test_boundary_tie_between_zero_and_one(self, descriptor):
        for n in range(2, 11):
            at_zero = evaluate(descriptor, 0.0, n=n)
            at_one = evaluate(descriptor, 1.0, n=n)
            assert abs(at_zero - (1.0 - at_one) / (n - 1)) <= 1e-12


class TestBoundaryRange:
    def test_yager(self):
        assert boundary_range_check(YAGER, 5).passed
        assert evaluate(YAGER, 1.0, n=5) == 0.0
        assert evaluate(YAGER, 0.0, n=5) == 0.25

    def test_linear_from_the_example(self):
        descriptor = linear_from_boundary(5, n_at_one=0.1)
        assert boundary_range_check(descriptor, 5).passed
        at_zero = evaluate(descriptor, 0.0, n=5)
        assert at_zero == pytest.approx(0.225, abs=1e-12)
        assert 0.2 <= at_zero <= 0.25

    def test_uniform_sits_on_both_interval_endpoints(self):
        assert boundary_range_check(UNIFORM, 4).passed
        assert evaluate(UNIFORM, 1.0, n=4) == evaluate(UNIFORM, 0.0, n=4) == 0.25

    def test_dependent_descriptor_is_rejected(self):
        with pytest.raises(IndependenceRequired):
            boundary_range_check(Tsallis(2.0), 5)

    def test_non_negator_is_rejected(self):
        with pytest.raises(NegatorRequired):
            boundary_range_check(IDENTITY, 5)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_independent_negator_builtins(self, n):
        for descriptor in (YAGER, UNIFORM, Linear(0.3), mixture([(0.4, UNIFORM), (0.6, YAGER)])):
            assert boundary_range_check(descriptor, n).passed


class TestLinearity:
    def test_yager_is_the_alpha_zero_border_case(self):
        verdict = linearity_test(YAGER, 6)
        assert verdict.is_linear
        assert verdict.alpha_estimate == 0.0

    def test_uniform_is_the_alpha_one_border_case(self):
        verdict = linearity_test(UNIFORM, 6)
        assert verdict.is_linear
        assert verdict.alpha_estimate == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_linear_family_recovers_alpha(self, n):
        for tenth in range(11):
            alpha = tenth / 10
            verdict = linearity_test(linear_from_alpha(alpha), n)
            assert verdict.is_linear
            assert verdict.alpha_estimate == pytest.approx(alpha, abs=1e-9)

    def test_mixture_of_the_border_cases_is_linear(self):
        verdict = linearity_test(mixture([(0.3, UNIFORM), (0.7, YAGER)]), 5)
        assert verdict.is_linear
        assert verdict.alpha_estimate == pytest.approx(0.3, abs=1e-9)

    def test_curved_generator_is_refuted(self):
        curved = Generator(lambda p: (1.0 - p) ** 2, "curved", claims_pd_independent=True)
        verdict = linearity_test(curved, 4)
        assert not verdict.is_linear
        assert verdict.max_residual > 1e-3

    def test_preconditions(self):
        with pytest.raises(IndependenceRequired):
            linearity_test(Tsallis(2.0), 5)
        with pytest.raises(NegatorRequired):
            linearity_test(IDENTITY, 5)
        with pytest.raises(ArgumentError):
            linearity_test(YAGER, 5, grid_size=2)


class TestPointwiseCheckPreconditions:
    # Independence is refused first, then a non-negator, then the length.
    @pytest.mark.parametrize(
        "descriptor,refusal",
        [(Tsallis(2.0), IndependenceRequired), (IDENTITY, NegatorRequired), (YAGER, LengthError)],
    )
    @pytest.mark.parametrize("check", [boundary_range_check, linearity_test])
    def test_refusal_order(self, check, descriptor, refusal):
        with pytest.raises(refusal):
            check(descriptor, 1, grid_size=2)

    # The balance check refuses the claim, then the length, then the grid, in the order of the two above.
    @pytest.mark.parametrize(
        "descriptor,n,refusal",
        [(Tsallis(2.0), 1, IndependenceRequired), (YAGER, 1, LengthError), (YAGER, 5, ArgumentError)],
    )
    def test_balance_identity_check_refuses_the_claim_then_the_length_then_the_grid(self, descriptor, n, refusal):
        with pytest.raises(refusal):
            functional_equation_check(descriptor, n, grid_size=1)

    @pytest.mark.parametrize("descriptor,refusal", [(Tsallis(2.0), IndependenceRequired), (IDENTITY, LengthError)])
    def test_balance_identity_refuses_dependence_before_the_length(self, descriptor, refusal):
        with pytest.raises(refusal):
            functional_equation_residual(descriptor, 1, 0.5)

    # N(0) and N(1) (linearity needs N(1) alone) are their own kernel call, then the grid is one call per block.
    @pytest.mark.parametrize("check,ends", [(boundary_range_check, [2]), (linearity_test, [1])])
    def test_one_kernel_call_per_grid_block_and_no_pointwise_evaluation(self, check, ends, monkeypatch):
        calls = []
        kernel = type(YAGER).images

        def counted(self, values, n, context=None):
            calls.append(len(values))
            return kernel(self, values, n, context)

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate called")

        monkeypatch.setattr(type(YAGER), "images", counted)
        monkeypatch.setattr("pdneg.analysis.evaluate", refuse)
        monkeypatch.setattr("pdneg.analysis.GRID_BLOCK", 40)
        check(YAGER, 5, grid_size=101)
        assert calls == ends + [40, 40, 21]


# Arguments outside their range are refused before any work, as ArgumentError.
ARGUMENT_REFUSALS = {
    "fixed_point_check-grid-1": (lambda: fixed_point_check(YAGER, 5, grid_size=1),
                                 "grid_size must be at least 2, got 1"),
    "contexts_containing-p-1": (lambda: contexts_containing(1.0, 3, 2, 0),
                                "need 0 <= p < 1 to fill the remaining mass, got 1.0"),
}


@pytest.mark.parametrize("call,message", ARGUMENT_REFUSALS.values(), ids=ARGUMENT_REFUSALS)
def test_arguments_out_of_range_are_argument_errors(call, message):
    with pytest.raises(ArgumentError) as excinfo:
        call()
    assert str(excinfo.value) == message


# Under a NaN tolerance every comparison is false, so a check would pass whatever it found
# (the balance identity and the boundary ranges fail (1 - p)^2 at the default tolerance).
TOLERANCE_CALLS = {
    "fixed_point_check": lambda tolerance: fixed_point_check(TestCheckFailurePaths.SQUARE, 5, tolerance=tolerance),
    "functional_equation_check": lambda tolerance: functional_equation_check(
        TestCheckFailurePaths.SQUARE, 5, tolerance=tolerance),
    "boundary_range_check": lambda tolerance: boundary_range_check(
        TestCheckFailurePaths.SQUARE, 5, tolerance=tolerance),
    "linearity_test": lambda tolerance: linearity_test(YAGER, 5, tolerance=tolerance),
    "check_negation_pair": lambda tolerance: check_negation_pair(EXAMPLE, EXAMPLE, tolerance),
    "independence_probe": lambda tolerance: independence_probe(
        Tsallis(2.0), 0.5, contexts_containing(0.5, 5, 8, 0), tolerance),
    "audit": lambda tolerance: audit(TestCheckFailurePaths.SQUARE, 5, tolerance=tolerance),
}


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-12])
@pytest.mark.parametrize("call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS)
def test_a_tolerance_must_be_finite_and_non_negative(call, tolerance):
    with pytest.raises(ArgumentError, match=r"^tolerance must be a finite number >= 0, got "):
        call(tolerance)


def _canonical(f, n, p):
    # A claimed-independent generator at p, inside (p, q, ..., q) with q = (1 - p)/(n - 1).
    return f(p) / (f(p) + (n - 1) * f((1.0 - p) / (n - 1)))


class TestCheckFailurePaths:
    SQUARE = Generator(lambda p: (1.0 - p) ** 2, "square", claims_pd_independent=True)
    RISING = Generator(lambda p: 1.0 + p, "rising", claims_pd_independent=True)

    def test_balance_identity_witnesses(self):
        f, n = self.SQUARE.fn, 5
        report = functional_equation_check(self.SQUARE, n, grid_size=11)
        assert not report.passed
        # p = 1/n is the fixed point of both N and Yager's negator, so the identity holds there.
        assert [v.location for v in report.violations] == [k / 10 for k in range(11) if k != 2]
        for v in report.violations:
            p = v.location
            residual = abs(_canonical(f, n, (1.0 - p) / (n - 1)) - (1.0 - _canonical(f, n, p)) / (n - 1))
            assert v.expected == 0.0
            assert v.actual == v.magnitude == pytest.approx(residual, rel=1e-12)

    def test_boundary_endpoints_are_reported_once(self):
        # N(p) = (1 + p)/6 at n = 5: above 1/5 for p > 1/5 and below it for p < 1/5.
        report = boundary_range_check(self.RISING, 5, grid_size=11)
        locations = [v.location for v in report.violations]
        assert locations.count(0.0) == 1
        assert locations.count(1.0) == 1
        assert locations == [k / 10 for k in range(11) if k != 2]
        for v in report.violations:
            assert v.expected == 0.2
            assert v.actual == pytest.approx((1.0 + v.location) / 6, abs=1e-15)
            assert v.magnitude == pytest.approx(abs(v.actual - 0.2), abs=1e-15)

    def test_boundary_tie_violation_comes_first(self):
        # (1 - p)^2 at n = 5: N(1) = 0 ties N(0) to 1/4, but N(0) = 1/3.25.
        report = boundary_range_check(self.SQUARE, 5, grid_size=11)
        tie, *swept = report.violations
        assert (tie.location, tie.expected) == (0.0, 0.25)
        assert tie.actual == pytest.approx(1 / 3.25, abs=1e-15)
        assert tie.magnitude == pytest.approx(1 / 3.25 - 0.25, abs=1e-15)
        # The sweep reports N(0) once more, now as lying above 1/(n-1), which is also 1/4.
        assert [v for v in swept if v.location == 0.0] == [tie]

    @pytest.mark.parametrize("check", [functional_equation_check, boundary_range_check, linearity_test])
    def test_an_infinite_generator_value_is_a_generator_error(self, check):
        infinite_at_one = Generator(lambda p: math.inf if p == 1.0 else 1.0 - p, "inf", claims_pd_independent=True)
        with pytest.raises(GeneratorError, match="infinite"):
            check(infinite_at_one, 5)

    def test_linearity_gives_up_when_n_times_n1_leaves_the_unit_interval(self):
        # N(1) = 1/3 at n = 5, so alpha = n N(1) = 5/3 is no linear negator's.
        verdict = linearity_test(self.RISING, 5)
        assert verdict == LinearityVerdict(is_linear=False, alpha_estimate=None, max_residual=math.inf)


class _NaNWhere(NegatorDescriptor):
    """Yager's negator, claiming what Yager claims, but NaN wherever ``spoilt(p, context)`` holds."""

    claims_negator = claims_pd_independent = uses_length = True

    def __init__(self, spoilt):
        self.spoilt = spoilt

    def images(self, values, n, context=None):
        return [math.nan if self.spoilt(p, context) else y for p, y in zip(values, YAGER.images(values, n))]


class TestNaNImages:
    """Every comparison against the tolerance fails closed: a NaN image is a
    violation of magnitude math.inf, and a NaN residual is no linear fit."""

    @staticmethod
    def assert_nan_violations(report, locations):
        nan_at = {v.location for v in report.violations if math.isnan(v.actual)}
        assert locations <= nan_at
        assert all(v.magnitude == math.inf for v in report.violations if math.isnan(v.actual))

    @pytest.mark.parametrize("n", [2, 5])
    def test_a_nan_band_fails_every_grid_check(self, n):
        band = _NaNWhere(lambda p, context: 0.7 < p < 0.8)
        found = audit(band, n, grid_size=1001)
        assert not found.passed
        spoilt = {k / 1000 for k in range(701, 800)}
        self.assert_nan_violations(found.results["fixed-point"], spoilt)
        self.assert_nan_violations(found.results["boundary-range"], spoilt)
        residuals = found.results["functional-equation"].violations
        assert spoilt <= {v.location for v in residuals}
        assert all(v.actual != v.actual and v.magnitude == math.inf for v in residuals)
        assert found.results["linearity"] == LinearityVerdict(is_linear=False, alpha_estimate=0.0,
                                                              max_residual=math.inf)
        assert found.results["independence-probe"].passed

    def test_a_nan_at_one_breaks_the_boundary_tie_and_the_linear_fit(self):
        at_one = _NaNWhere(lambda p, context: p == 1.0)
        found = audit(at_one, 5, grid_size=11)
        tie, *swept = found.results["boundary-range"].violations
        assert (tie.location, tie.actual, tie.magnitude) == (0.0, 0.25, math.inf) and math.isnan(tie.expected)
        assert [(v.location, v.expected, v.magnitude) for v in swept] == [(1.0, 0.2, math.inf)]
        self.assert_nan_violations(found.results["fixed-point"], {1.0})
        assert found.results["linearity"] == LinearityVerdict(is_linear=False, alpha_estimate=None,
                                                              max_residual=math.inf)

    def test_a_nan_at_one_over_n_fails_the_fixed_point(self):
        # NaN at 1/n only without a context: N(uniform) is still uniform.
        at_u = _NaNWhere(lambda p, context: p == 0.2 and context is None)
        report = fixed_point_check(at_u, 5, grid_size=11)
        assert [v.location for v in report.violations] == [0.2, 0.2]
        self.assert_nan_violations(report, {0.2})

    def test_a_nan_from_the_shared_yager_kernel_fails_the_balance_identity(self, monkeypatch):
        # For yager N(Y(p)) and Y(N(p)) are one list; a NaN in it is still a residual of magnitude inf.
        kernel = _LinearFamily.images

        def spoilt(self, values, n, context=None):
            return [math.nan if p == 0.5 else y for p, y in zip(values, kernel(self, values, n, context))]

        monkeypatch.setattr(_LinearFamily, "images", spoilt)
        report = functional_equation_check(YAGER, 5, grid_size=11)
        assert [(v.location, v.magnitude) for v in report.violations] == [(0.5, math.inf)]

    def test_a_nan_evaluation_fails_the_probe(self):
        class NaNInThree(NegatorDescriptor):
            def images(self, values, n, context=None):
                return [math.nan if len(context) == 3 else 0.5 for _ in values]

        contexts = [Distribution((0.5, 0.5)), Distribution((0.5, 0.25, 0.25)), Distribution((0.5, 0.5))]
        report = independence_probe(NaNInThree(), 0.5, contexts)
        assert [(v.location, v.magnitude) for v in report.violations] == [((1, 2), math.inf), ((2, 3), math.inf)]

    def test_violation_stores_a_nan_magnitude_as_infinite(self):
        assert Violation(0.5, expected=0.2, actual=math.nan).magnitude == math.inf
        assert Violation(0.5, expected=math.nan, actual=0.2).magnitude == math.inf
        assert Violation(0.5, expected=0.2, actual=0.3).magnitude == abs(0.3 - 0.2)
        # The magnitude is computed, the same either way round, and cannot be given.
        for expected, actual in [(0.2, 0.3), (1 / 3, 0.1), (0.0, 5e-324), (0.25, math.inf), (-math.inf, 0.5)]:
            assert Violation(0.5, expected, actual).magnitude == Violation(0.5, actual, expected).magnitude
        with pytest.raises(TypeError):
            Violation(0.5, expected=0.2, actual=0.3, magnitude=0.1)


class _Counted(NegatorDescriptor):
    """A descriptor that counts the values its kernel maps and otherwise acts as ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.claims_negator = inner.claims_negator
        self.claims_pd_independent = inner.claims_pd_independent
        self.uses_length = inner.uses_length
        self.mapped = 0

    def spec_string(self):
        return self.inner.spec_string()

    def images(self, values, n, context=None):
        self.mapped += len(values)
        return self.inner.images(values, n, context)


class TestGridBlocks:
    """The grid checks sweep GRID_BLOCK points per kernel call, all four in one
    pass; no report depends on the block size or on which checks share the pass."""

    DESCRIPTORS = [
        YAGER, UNIFORM, Linear(0.3), IDENTITY, ROOT_SUM, Tsallis(2.0),
        mixture([(0.3, Linear(0.2)), (0.7, YAGER)]),
        TestCheckFailurePaths.SQUARE, TestCheckFailurePaths.RISING,
    ]
    CHECKS = [fixed_point_check, functional_equation_check, boundary_range_check, linearity_test]

    @staticmethod
    def outcome(result):
        return (type(result), str(result)) if isinstance(result, NegationError) else repr(result)

    def alone(self, descriptor, grid_size):
        out = []
        for check in self.CHECKS:
            try:
                out.append(self.outcome(check(descriptor, 5, grid_size=grid_size)))
            except NegationError as exc:
                out.append(self.outcome(exc))
        return out

    def together(self, descriptor, grid_size):
        try:
            results = audit(descriptor, 5, grid_size=grid_size).results
            return [self.outcome(result) for name, result in results.items() if name != "independence-probe"]
        except NegationError as exc:
            return self.outcome(exc)

    def reports(self, grid_size):
        out = []
        for descriptor in self.DESCRIPTORS:
            alone = self.alone(descriptor, grid_size)
            # The pass raises the first error of a check run alone that is no claim refusal.
            errors = [o for o in alone if isinstance(o, tuple) and o[0] not in (IndependenceRequired, NegatorRequired)]
            assert self.together(descriptor, grid_size) == (errors[0] if errors else alone)
            out.extend(alone)
        return out

    # Around multiples of 7 and of the default block size.
    @pytest.mark.parametrize("grid_size", [2, 3, 6, 7, 8, 14, 15, 22, 2048, 2049, 4096, 4097])
    def test_every_report_is_the_same_in_blocks_of_7_and_in_one_pass(self, grid_size, monkeypatch):
        default = self.reports(grid_size)
        monkeypatch.setattr("pdneg.analysis.GRID_BLOCK", 7)
        assert self.reports(grid_size) == default

    @staticmethod
    def points_mapped(monkeypatch, *argv):
        """The exit code of ``pdneg check`` and the number of values its descriptor's kernel mapped."""
        counted = []

        def parse(text, n=None):
            counted.append(_Counted(parse_descriptor(text, n=n)))
            return counted[-1]

        monkeypatch.setattr("pdneg.cli.parse_descriptor", parse)
        return main(["check", *argv]), counted[0].mapped

    @pytest.mark.parametrize("spec", ["yager", "mix:[0.3*linear:alpha=0.2,0.7*yager]"])
    def test_a_check_run_maps_each_grid_point_at_most_twice(self, spec, monkeypatch, capsys):
        grid = 1001
        code, mapped = self.points_mapped(monkeypatch, spec, "--n", "5", "--grid", str(grid))
        assert code == 0
        # N at p and at Yager's Y(p); besides the grid, N maps the uniform distribution,
        # 1/n, N(0) and N(1) for the boundary range, N(1) for linearity and the probe's 8 contexts.
        assert mapped <= 2 * grid + 20

    def test_a_grid_too_small_for_linearity_is_refused_before_the_sweep(self, monkeypatch, capsys):
        # Only the one-off values: the uniform distribution, 1/n, and N(0) and N(1) for the
        # boundary range; linearity refuses the grid before it maps N(1).
        assert self.points_mapped(monkeypatch, "yager", "--n", "5", "--grid", "2") == (2, 5 + 1 + 2)

    @pytest.mark.parametrize("descriptor", [YAGER, mixture([(0.3, Linear(0.2)), (0.7, YAGER)])])
    def test_the_pass_holds_one_block(self, descriptor, monkeypatch):
        monkeypatch.setattr("pdneg.analysis.GRID_BLOCK", 512)  # a smaller block, for the test's time

        def peak(grid_size):
            tracemalloc.start()
            try:
                audit(descriptor, 5, grid_size=grid_size)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50 * analysis.GRID_BLOCK) <= 1.5 * peak(2 * analysis.GRID_BLOCK)


class _Pointwise(NegatorDescriptor):
    """f(p, n) at each value, claiming to be a pd-independent negator."""

    claims_negator = claims_pd_independent = uses_length = True

    def __init__(self, f):
        self.f = f

    def images(self, values, n, context=None):
        return [self.f(p, n) for p in values]


def _wobble(p, n):
    """Yager's Y(p) + 0.05 x sin(2 pi log2 |x|), x = p - 1/n.  At n = 3 it strictly
    decreases and keeps the balance identity, yet negates no distribution."""
    x = p - 1.0 / n
    return (1.0 - p) / (n - 1) + (0.05 * x * math.sin(2.0 * math.pi * math.log2(abs(x))) if x else 0.0)


def _interval(p, value, low, high, tolerance):
    if value < low - tolerance:
        return Violation(p, expected=low, actual=value)
    return Violation(p, expected=high, actual=value)


def _per_point_reads(descriptor, n, tolerance, points, images):
    """Each grid check's violations on one block, found point by point, by check name."""
    u, high, found = 1.0 / n, 1.0 / (n - 1), {"fixed-point": [], "functional-equation": [], "boundary-range": []}
    for p, value in zip(points, images):
        # Fixed point: N(p) = p only within the tolerance of 1/n; elsewhere N(p) - p is finite,
        # positive below 1/n - tol and negative above 1/n + tol.
        gap = abs(value - p)
        if gap <= tolerance and abs(p - u) > tolerance:
            found["fixed-point"].append(Violation(p, expected=u, actual=p))
        elif not gap <= tolerance and (math.isnan(gap) or gap == math.inf or value < p < u - tolerance
                                       or value > p > u + tolerance):
            found["fixed-point"].append(Violation(p, expected=p, actual=value))
        crossed = descriptor.images(YAGER.images([p], n), n)[0]
        residual = abs(crossed - YAGER.images([value], n)[0])
        if not residual <= tolerance:
            found["functional-equation"].append(Violation(p, expected=0.0, actual=residual))
        if p >= u and not -tolerance <= value <= u + tolerance:
            found["boundary-range"].append(_interval(p, value, 0.0, u, tolerance))
        if p <= u and not u - tolerance <= value <= high + tolerance:
            found["boundary-range"].append(_interval(p, value, u, high, tolerance))
    return found


class TestBlockReads:
    """The grid checks read each block in builtins, scanning point by point only
    what may fail, and a block computes each image once."""

    SQRT = Generator(math.sqrt, "sqrt", claims_pd_independent=True)

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_each_read_names_the_violations_of_a_per_point_read(self, data):
        n = data.draw(st.sampled_from([2, 3, 5, 1000]), "n")
        last = data.draw(st.integers(2, 120), "grid intervals")  # linearity needs 3 points
        points = [k / last for k in range(last + 1)]
        # The wide tolerance puts several grid points within it of 1/n.
        tolerance = data.draw(st.sampled_from([0.0, CHECK_TOLERANCE, 3.5 / last]), "tolerance")
        spoilt = data.draw(st.sampled_from(points), "NaN at")
        descriptor = data.draw(st.sampled_from([
            YAGER, Linear(0.3), self.SQRT, IDENTITY, _Pointwise(_wobble),
            _Pointwise(lambda p, n: math.nan if p == spoilt else (1.0 - p) / (n - 1)),
            # Halfway between 1/n and 1/(n-1) at every p: inside the bound below 1/n only.
            _Pointwise(lambda p, n: (1.0 - p) / (n - 1) + (1.0 / (n - 1) - 1.0 / n) / 2),
        ]), "descriptor")
        # A read depends on n and the tolerance alone; the block holds the descriptor's images.
        checks = [check_type(YAGER, n, len(points), tolerance)
                  for check_type in (analysis._FixedPoint, analysis._FunctionalEquation, analysis._BoundaryRange)]
        for check in checks:
            check.violations.clear()
        linearity = analysis._Linearity(descriptor, n, len(points), tolerance) if descriptor.claims_negator else None
        sweeps = linearity is not None and linearity.sweeps
        cut = data.draw(st.integers(0, len(points)), "block split")
        expected = {check.name: [] for check in checks}
        for block_points in (points[:cut], points[cut:]):
            if block_points:
                block = analysis._Block(descriptor, n, block_points)
                for name, violations in _per_point_reads(descriptor, n, tolerance, block_points, block.images).items():
                    expected[name].extend(violations)
                for check in checks + [linearity] if sweeps else checks:
                    check.read(block)
        for check in checks:  # by repr, since a NaN field equals nothing
            assert list(map(repr, check.violations)) == list(map(repr, expected[check.name])), check.name
        if sweeps:
            images = descriptor.images(points, n)
            assert linearity.max_residual == max(abs(value - y) if math.isfinite(value) else math.inf
                                                 for value, y in zip(images, linearity.line.images(points, n)))

    @staticmethod
    def extremes_computed(monkeypatch, check_types, tolerance):
        """The (function, start, stop) of each extreme of N computed in a sweep of linear:alpha=0.3 at n = 5."""
        computed = []
        extreme = analysis._Block.extreme

        def counted(block, pick, start, stop):
            if (pick, start, stop) not in block._memo:
                computed.append((pick.__name__, start, stop))
            return extreme(block, pick, start, stop)

        with monkeypatch.context() as patch:
            patch.setattr(analysis._Block, "extreme", counted)
            checks = [check_type(Linear(0.3), 5, 101, tolerance) for check_type in check_types]
            analysis._sweep(Linear(0.3), 5, 101, checks)
        return computed

    @pytest.mark.parametrize("tolerance,fixed_point_runs", [(CHECK_TOLERANCE, (20, 21)), (0.015, (19, 22))])
    def test_a_sweep_computes_each_extreme_it_reads_once(self, tolerance, fixed_point_runs, monkeypatch):
        below, above = fixed_point_runs
        # 1/n = 0.2 is the grid point 20/100; the fixed point splits at 1/n -+ tol, the boundary range at 1/n.
        fixed_point = [("min", 0, below), ("max", above, 101)]
        boundary = [("min", 0, 20), ("max", 0, 20), ("min", 21, 101), ("max", 21, 101)]
        assert self.extremes_computed(monkeypatch, [analysis._FixedPoint], tolerance) == fixed_point
        assert self.extremes_computed(monkeypatch, [analysis._BoundaryRange], tolerance) == boundary
        both = self.extremes_computed(monkeypatch, analysis._GRID_CHECKS, tolerance)
        assert sorted(both) == sorted(set(fixed_point + boundary))

    @pytest.mark.parametrize("descriptor,exact", [(YAGER, True), (UNIFORM, True), (Linear(0.3), False)])
    def test_a_balance_within_the_tolerance_builds_no_residual_list(self, descriptor, exact):
        block = analysis._Block(descriptor, 5, [k / 100 for k in range(101)])
        assert block.balance(CHECK_TOLERANCE) is None
        # At tol 0 linear:alpha=0.3 misses the balance by one rounding at 55 of the 101 points.
        residuals = block.balance(0.0)
        assert residuals is None if exact else sum(residual > 0.0 for residual in residuals) == 55

    @pytest.mark.parametrize("descriptor,per_block", [(YAGER, 2), (UNIFORM, 4), (Linear(0.3), 4)])
    def test_a_block_computes_each_image_once(self, descriptor, per_block, monkeypatch):
        calls = []
        kernel = _LinearFamily.images

        def counted(self, values, n, context=None):
            calls.append((self.alpha, values, kernel(self, values, n, context)))
            return calls[-1][2]

        monkeypatch.setattr(_LinearFamily, "images", counted)
        monkeypatch.setattr("pdneg.analysis.GRID_BLOCK", 40)
        checks = [check_type(descriptor, 5, 101, CHECK_TOLERANCE) for check_type in analysis._GRID_CHECKS]
        del calls[:]
        analysis._sweep(descriptor, 5, 101, checks)
        assert all(check.violations == [] for check in checks[:3]) and checks[3].result().max_residual == 0.0
        # calls holds every input list, so no two of them share an id.
        assert len(calls) == 3 * per_block
        assert len({(alpha, id(values)) for alpha, values, _ in calls}) == len(calls)
        if descriptor is YAGER:  # N(p), Yager's Y(p) too, then N(N(p)), Y(N(p)) too
            for (_, points, images), (_, inner, _) in zip(calls[::2], calls[1::2]):
                assert inner is images and len(points) in (40, 21)


class TestAudit:
    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("spec", ["yager", "identity", "tsallis:k=2", "mix:[0.3*linear:alpha=0.2,0.7*yager]",
                                      "rootsum"])
    def test_the_verdict_and_the_checks_are_those_of_pdneg_check(self, spec, n, capsys):
        found = audit(parse_descriptor(spec, n=n), n)
        code = main(["check", spec, "--n", str(n)])
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert found.passed == (code == 0)
        assert set(found.results) == {check["check_name"] for check in checks} | {"linearity"}


class TestIndependenceProbe:
    def test_tsallis_two_is_refuted_across_contexts(self):
        report = independence_probe(
            Tsallis(2.0), 0.5, [Distribution((0.5, 0.5)), Distribution((0.5, 0.25, 0.25))]
        )
        assert not report.passed
        violation = report.violations[0]
        assert violation.location == (1, 2)
        assert violation.expected == 0.5
        assert violation.actual == pytest.approx(0.75 / 2.625, abs=1e-15)
        assert violation.magnitude >= 0.2

    def test_yager_passes_within_a_length_group(self):
        contexts = [Distribution((0.5, 0.3, 0.2)), Distribution((0.5, 0.25, 0.25))]
        report = independence_probe(YAGER, 0.5, contexts)
        assert report.passed
        assert any("equal lengths" in note for note in report.notes)

    def test_yager_groups_contexts_by_length(self):
        contexts = [
            Distribution((0.5, 0.5)),
            Distribution((0.5, 0.3, 0.2)),
            Distribution((0.5, 0.25, 0.25)),
        ]
        report = independence_probe(YAGER, 0.5, contexts)
        assert report.passed

    def test_tsallis_one_passes_within_a_length_group(self):
        contexts = [
            Distribution((0.4, 0.3, 0.3)),
            Distribution((0.4, 0.5, 0.1)),
            Distribution((0.4, 0.2, 0.4)),
        ]
        assert independence_probe(Tsallis(1.0), 0.4, contexts).passed

    def test_tsallis_one_is_compared_across_lengths(self):
        # k = 1 behaves like the affine negator within one length, but its
        # value still shifts with n, and the probe is allowed to see that.
        contexts = [Distribution((0.4, 0.6)), Distribution((0.4, 0.3, 0.3))]
        report = independence_probe(Tsallis(1.0), 0.4, contexts)
        assert not report.passed
        assert report.violations[0].magnitude == pytest.approx(0.3, abs=1e-12)

    def test_context_must_contain_the_value(self):
        with pytest.raises(ContextMismatch):
            independence_probe(Tsallis(2.0), 0.4, [Distribution((0.5, 0.5))])

    def test_contexts_are_read_one_at_a_time(self):
        # Context #1 holds p but N cannot be evaluated there; context #2 lacks p.  The evaluation
        # error is raised first, since #2 is not read before N is evaluated in #1.
        negative = Generator(lambda p: -p, "negative")
        contexts = iter([Distribution((0.5, 0.5)), Distribution((0.3, 0.7))])
        with pytest.raises(GeneratorError):
            independence_probe(negative, 0.5, contexts)
        assert next(contexts) == Distribution((0.3, 0.7))
        with pytest.raises(ContextMismatch, match="^context #2 has no component equal to 0.5$"):
            independence_probe(Tsallis(2.0), 0.5, [Distribution((0.5, 0.5)), Distribution((0.3, 0.7))])

    @pytest.mark.parametrize("offset", [0.0, 5e-13, -5e-13])
    def test_a_value_within_the_context_tolerance_is_a_component(self, offset):
        assert independence_probe(YAGER, 0.5 + offset, [Distribution((0.5, 0.5)), Distribution((0.5, 0.5))]).passed
        with pytest.raises(ContextMismatch):
            independence_probe(YAGER, 0.5 + offset + 1e-11, [Distribution((0.5, 0.5))])

    def test_generated_contexts_share_the_probed_component(self):
        contexts = contexts_containing(0.5, 4, 6, seed=3)
        assert len(contexts) == 6
        assert all(context[0] == 0.5 for context in contexts)
        assert contexts == contexts_containing(0.5, 4, 6, seed=3)


class _ContextLength:
    """A kernel of the descriptor's own, which reads the context's length."""

    def images(self, values, n, context=None):
        return super().images(values, n if context is None else len(context), context)


class _ContextLinear(_ContextLength, Linear):
    pass


class _ContextMixture(_ContextLength, Mixture):
    pass


class TestAuditProbe:
    """audit evaluates a descriptor whose kernel reads no context once, draws no
    context for it, and reports the probe it would report on the drawn contexts."""

    # {n1} and {n0} stand for boundary values admitted at the length n.
    BLIND = ["yager", "uniform", "linear:alpha=0.3", "linear:n1={n1}", "linear:n0={n0}", "identity",
             "mix:[0.3*linear:alpha=0.2,0.7*yager]", "mix:[0.4*yager,0.6*mix:[0.5*uniform,0.5*linear:n1={n1}]]"]
    READING = [Tsallis(2.0), ROOT_SUM, Generator(lambda p: (1 - p) ** 2, claims_pd_independent=True),
               _ContextLinear(0.3), _ContextMixture([(1.0, YAGER)]), mixture([(0.5, YAGER), (0.5, Tsallis(2.0))])]

    @staticmethod
    def parsed(spec, n):
        return parse_descriptor(spec.format(n1=repr(0.5 / n), n0=repr((1 / n + 1 / (n - 1)) / 2)), n)

    @staticmethod
    def drawn(descriptor, n, tolerance=CHECK_TOLERANCE, seed=0):
        contexts = contexts_containing(analysis.PROBE_VALUE, n, analysis.PROBE_CONTEXTS, seed)
        return independence_probe(descriptor, analysis.PROBE_VALUE, contexts, tolerance, seed=seed)

    @pytest.mark.parametrize("n", [2, 3, 5, 1000])
    @pytest.mark.parametrize("spec", BLIND)
    def test_a_blind_kernel_reports_the_probe_on_the_drawn_contexts(self, spec, n):
        descriptor = self.parsed(spec, n)
        for seed in (0, 7, 2**31 - 1):
            for tolerance in (0.0, 1e-12):
                found = audit(descriptor, n, grid_size=11, tolerance=tolerance, seed=seed)
                probe, drawn = found.results["independence-probe"], self.drawn(descriptor, n, tolerance, seed)
                assert probe == drawn
                assert probe.to_dict() == drawn.to_dict()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_value_is_every_pair_either_way(self, bad, monkeypatch):
        kernel = _LinearFamily.images

        def spoilt(self, values, n, context=None):
            return [bad if p == 0.5 else y for p, y in zip(values, kernel(self, values, n, context))]

        monkeypatch.setattr(_LinearFamily, "images", spoilt)
        probe = audit(YAGER, 5, grid_size=11).results["independence-probe"]
        assert repr(probe) == repr(self.drawn(YAGER, 5))  # by repr, since NaN != NaN
        assert len(probe.violations) == math.comb(analysis.PROBE_CONTEXTS, 2) == 28
        assert all(v.magnitude == math.inf for v in probe.violations)

    @pytest.mark.parametrize("n", [5, 1000])
    @pytest.mark.parametrize("spec,kernels", [("yager", 1), ("linear:alpha=0.3", 1),
                                              ("mix:[0.3*linear:alpha=0.2,0.7*yager]", 2)])
    def test_a_blind_kernel_is_evaluated_once_in_its_one_context(self, spec, kernels, n, monkeypatch):
        probed = {}
        kernel = _LinearFamily.images

        def counted(self, values, n, context=None):
            if values == (analysis.PROBE_VALUE,):
                probed[id(self)] = probed.get(id(self), 0) + 1
            return kernel(self, values, n, context)

        monkeypatch.setattr(_LinearFamily, "images", counted)
        audit(self.parsed(spec, n), n, grid_size=11)
        # One evaluation for the PROBE_CONTEXTS copies of one context: once by each kernel of a mixture.
        assert list(probed.values()) == [1] * kernels

    @staticmethod
    def draws(descriptor, monkeypatch):
        """How many simplex points audit draws for the descriptor at n = 5."""
        calls = []
        draw = analysis._simplex_point

        def counted(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(analysis, "_simplex_point", counted)
        audit(descriptor, 5, grid_size=11)
        return len(calls)

    @pytest.mark.parametrize("spec", BLIND)
    def test_a_blind_kernel_draws_no_context(self, spec, monkeypatch):
        assert self.draws(self.parsed(spec, 5), monkeypatch) == 0

    @pytest.mark.parametrize("descriptor", READING)
    def test_a_kernel_that_reads_its_context_is_probed_in_every_context(self, descriptor, monkeypatch):
        assert self.draws(descriptor, monkeypatch) == analysis.PROBE_CONTEXTS
        assert audit(descriptor, 5, grid_size=11).results["independence-probe"] == self.drawn(descriptor, 5)

    @staticmethod
    def peak(descriptor):
        """tracemalloc's peak over audit(descriptor, 10**5, 11), after one warm-up at n = 10."""
        audit(descriptor, 10, grid_size=11)
        gc.collect()
        tracemalloc.start()
        try:
            audit(descriptor, 10**5, grid_size=11)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_blind_kernel_holds_no_drawn_context(self):
        # The fixed point reads N(1/n) alone, so the peak is the probe's one undrawn context (0.8 MiB), built
        # with no second length-n tuple; eight drawn contexts as well take 27.5 MiB.
        assert self.peak(YAGER) <= 1 * 2**20

    def test_a_kernel_that_reads_its_context_holds_one_drawn_context_at_a_time(self):
        # One context, its draws and Tsallis's evaluation in it take 9.2 MiB; eight contexts at once, 27.5 MiB.
        assert self.peak(Tsallis(2.0)) <= 12 * 2**20


class TestEntropyDelta:
    def test_yager_on_the_example(self):
        report = entropy_delta(YAGER, EXAMPLE)
        expected_output = math.fsum(
            (1 - q) * q for q in (0.25, 0.225, 0.2, 0.175, 0.15)
        )
        assert report.input_entropy == pytest.approx(0.70, abs=1e-12)
        assert report.output_entropy == pytest.approx(expected_output, abs=1e-12)
        assert report.delta == pytest.approx(0.09375, abs=1e-12)

    def test_uniform_reaches_the_maximum(self):
        report = entropy_delta(UNIFORM, EXAMPLE)
        assert report.output_entropy == 0.8

    def test_delta_is_the_exact_difference_of_the_fields(self):
        report = entropy_delta(YAGER, EXAMPLE)
        assert report.delta == report.output_entropy - report.input_entropy
        # The report computes the delta from its two entropies and takes no other.
        assert report == EntropyReport(report.input_entropy, report.output_entropy)
        for h0, h1 in [(0.7, 0.79375), (0.1, 0.3), (0.8, 0.5)]:
            assert EntropyReport(h0, h1).delta == h1 - h0
        with pytest.raises(TypeError):
            EntropyReport(0.5, 0.75, delta=0.25)

    @pytest.mark.parametrize("descriptor", [YAGER, UNIFORM, Tsallis(2.0), Linear(0.5)])
    def test_the_uniform_distribution_is_a_fixed_point_of_the_delta(self, descriptor):
        assert entropy_delta(descriptor, uniform_distribution(5)).delta == 0.0
        assert abs(entropy_delta(descriptor, uniform_distribution(3)).delta) <= 1e-12


class TestIterateNegation:
    def test_yager_trace_from_a_point_distribution(self):
        trace = iterate_negation(YAGER, Distribution((1.0, 0.0, 0.0)), 2)
        assert [d.values for d in trace.steps] == [
            (1.0, 0.0, 0.0),
            (0.0, 0.5, 0.5),
            (0.5, 0.25, 0.25),
        ]
        assert trace.entropies == (0.0, 0.5, 0.625)
        assert trace.distances_to_uniform[0] == pytest.approx(2 / 3, abs=1e-15)
        assert trace.distances_to_uniform[1] == pytest.approx(1 / 3, abs=1e-15)
        assert trace.distances_to_uniform[2] == pytest.approx(1 / 6, abs=1e-15)
        # A trace computes each step's diagnostics from the steps alone.
        rebuilt = IterationTrace(list(trace.steps))
        assert rebuilt == trace
        assert rebuilt.distances_to_uniform == tuple(distance_to_uniform(d) for d in trace.steps)
        assert rebuilt.entropies == tuple(entropy(d) for d in trace.steps)
        with pytest.raises(TypeError):
            IterationTrace(trace.steps, trace.distances_to_uniform, trace.entropies)

    @settings(deadline=None)
    @given(st.sampled_from([2, 3, 5, 10, 1000]).flatmap(extreme_simplexes))
    def test_distance_to_uniform_is_the_largest_componentwise_distance(self, dist):
        # The greatest and least components decide it: the same float as
        # the largest |v - u| over every component.
        u = 1.0 / len(dist)
        assert repr(distance_to_uniform(dist)) == repr(max(abs(value - u) for value in dist.values))

    def test_uniform_descriptor_collapses_in_one_step(self):
        trace = iterate_negation(UNIFORM, EXAMPLE, 3)
        assert trace.steps[0] == EXAMPLE
        for step in trace.steps[1:]:
            assert step.values == (0.2,) * 5

    def test_uniform_distribution_is_stationary(self):
        trace = iterate_negation(YAGER, uniform_distribution(4), 10)
        assert all(step.values == (0.25,) * 4 for step in trace.steps)

    def test_zero_steps_echoes_the_input(self):
        trace = iterate_negation(YAGER, EXAMPLE, 0)
        assert trace.steps == (EXAMPLE,)

    def test_preconditions_and_the_evaluation_cap(self):
        with pytest.raises(NegatorRequired):
            iterate_negation(IDENTITY, EXAMPLE, 2)
        with pytest.raises(ArgumentError):
            iterate_negation(YAGER, EXAMPLE, -1)
        with pytest.raises(ArgumentError):
            iterate_negation(YAGER, Distribution((0.5, 0.5)), 500_001)


def _random_descriptor(rng: random.Random):
    pool = [
        IDENTITY,
        ROOT_SUM,
        UNIFORM,
        YAGER,
        Tsallis(rng.uniform(0.2, 3.0)),
        Linear(rng.random()),
    ]
    if rng.random() < 0.5:
        return rng.choice(pool)
    parts = rng.sample(pool, k=rng.randint(2, 3))
    raw = [rng.random() + 0.05 for _ in parts]
    total = math.fsum(raw)
    return mixture([(w / total, d) for w, d in zip(raw, parts)])


class TestRandomizedInvariants:
    def test_uniform_distribution_is_a_fixed_point_of_every_transformation(self):
        rng = random.Random(2024)
        for _ in range(500):
            descriptor = _random_descriptor(rng)
            n = rng.randint(2, 10)
            image = apply_transformation(descriptor, uniform_distribution(n))
            assert all(abs(v - 1.0 / n) <= 1e-12 for v in image.values)

    def test_negator_builtins_reverse_order_on_random_distributions(self):
        negators = [UNIFORM, YAGER, Tsallis(0.5), Tsallis(2.0), Linear(0.25),
                    mixture([(0.5, UNIFORM), (0.5, YAGER)])]
        for n in range(2, 8):
            for dist in sample_distributions(n, 40, seed=100 + n):
                for descriptor in negators:
                    out = apply_transformation(descriptor, dist)
                    assert check_negation_pair(dist, out).passed

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
    @pytest.mark.parametrize("n", [2, 5, 1000])
    def test_draws_match_a_loop_over_expovariate(self, n, seed):
        """Both samplers stay bit-identical to normalised rng.expovariate(1.0) draws."""
        def reference(length, count, scale):
            rng = random.Random(seed)
            for _ in range(count):
                draws = [rng.expovariate(1.0) for _ in range(length)]
                total = math.fsum(draws)
                yield tuple(scale * d / total for d in draws)

        assert [d.values for d in sample_distributions(n, 6, seed)] == list(reference(n, 6, 1.0))
        for p in (0.0, 0.5):
            assert [c.values for c in contexts_containing(p, n, 8, seed)] == [
                (p,) + values for values in reference(n - 1, 8, 1.0 - p)]

    def test_sampling_is_seeded_and_valid(self):
        first = sample_distributions(5, 20, seed=9)
        second = sample_distributions(5, 20, seed=9)
        assert first == second
        assert all(len(dist) == 5 for dist in first)
        assert sample_distributions(5, 5, seed=10) != first[:5]
