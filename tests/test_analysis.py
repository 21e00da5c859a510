"""Diagnostics: order-reversal checks, fixed points, the balance identity,
boundary ranges, linearity, independence probing, entropy deltas, iteration."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import EXAMPLE_PD, normalize
from pdneg import (
    ArgumentError,
    CheckReport,
    ContextMismatch,
    Distribution,
    Generator,
    GeneratorError,
    IDENTITY,
    IndependenceRequired,
    LengthError,
    LengthMismatch,
    Linear,
    LinearityVerdict,
    NegationError,
    NegatorRequired,
    ROOT_SUM,
    Tsallis,
    UNIFORM,
    YAGER,
    Violation,
    apply_transformation,
    boundary_range_check,
    check_negation_pair,
    contexts_containing,
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
    sample_distributions,
    uniform_distribution,
    validate_distribution,
)

EXAMPLE = validate_distribution(EXAMPLE_PD)


class TestCheckReport:
    def test_passed_is_derived_from_the_violations(self):
        violation = Violation(0.5, expected=0.0, actual=1.0, magnitude=1.0)
        assert CheckReport("demo", [], 2, 0.0).passed
        report = CheckReport("demo", [violation], 2, 0.0, notes=["a note"])
        assert not report.passed
        assert (report.violations, report.notes) == ((violation,), ("a note",))
        assert list(report.to_dict()) == [
            "check_name", "passed", "violations", "grid_size", "tolerance", "seed", "notes"]
        assert report.to_dict()["passed"] is False

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
        p = normalize(data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=8).filter(any)))
        source = data.draw(st.sampled_from(["independent", YAGER, UNIFORM, Tsallis(2.0), IDENTITY]))
        if source == "independent":
            q = normalize(data.draw(st.lists(st.integers(0, 3), min_size=len(p), max_size=len(p)).filter(any)))
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

    def test_zero_tolerance_reports_the_rounding_of_one_third(self):
        # Yager's kernel at n = 3 maps 1/3 to (1 - 1/3)/2, one rounding (5.55e-17)
        # above 1/3: part (a) reports each component of N(U), part (b) N(1/3).
        # The default grid holds no 1/3, so the uniqueness sweep adds nothing.
        u = 1.0 / 3
        image = 0.0 / 3 + (1.0 - 0.0) * (1.0 - u) / (3 - 1)
        report = fixed_point_check(YAGER, 3, tolerance=0.0)
        assert [(v.location, v.expected, v.actual, v.magnitude) for v in report.violations] == [
            (location, u, image, abs(image - u)) for location in (1, 2, 3, u)
        ]
        assert abs(image - u) == pytest.approx(5.55e-17, rel=1e-3)


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

class TestGridBlocks:
    """The grid checks sweep GRID_BLOCK points per kernel call; no report depends on it."""

    DESCRIPTORS = [
        YAGER, UNIFORM, Linear(0.3), IDENTITY, ROOT_SUM, Tsallis(2.0),
        mixture([(0.3, Linear(0.2)), (0.7, YAGER)]),
        TestCheckFailurePaths.SQUARE, TestCheckFailurePaths.RISING,
    ]
    CHECKS = [fixed_point_check, functional_equation_check, boundary_range_check, linearity_test]

    def reports(self, grid_size):
        out = []
        for descriptor in self.DESCRIPTORS:
            for check in self.CHECKS:
                try:
                    out.append(repr(check(descriptor, 5, grid_size=grid_size)))
                except NegationError as exc:
                    out.append(repr(exc))
        return out

    # Around multiples of 7 and of the default block size.
    @pytest.mark.parametrize("grid_size", [2, 3, 6, 7, 8, 14, 15, 22, 4096, 4097])
    def test_every_report_is_the_same_in_blocks_of_7(self, grid_size, monkeypatch):
        default = self.reports(grid_size)
        monkeypatch.setattr("pdneg.analysis.GRID_BLOCK", 7)
        assert self.reports(grid_size) == default


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

    def test_generated_contexts_share_the_probed_component(self):
        contexts = contexts_containing(0.5, 4, 6, seed=3)
        assert len(contexts) == 6
        assert all(context[0] == 0.5 for context in contexts)
        assert contexts == contexts_containing(0.5, 4, 6, seed=3)


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

    def test_sampling_is_seeded_and_valid(self):
        first = sample_distributions(5, 20, seed=9)
        second = sample_distributions(5, 20, seed=9)
        assert first == second
        assert all(len(dist) == 5 for dist in first)
        assert sample_distributions(5, 5, seed=10) != first[:5]
