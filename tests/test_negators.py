"""Descriptor algebra: built-ins, generators, mixtures, the linear family,
and the textual descriptor syntax."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EXAMPLE_PD, simplexes
from pdneg import (
    ArgumentError,
    ContextMismatch,
    ContextRequired,
    DescriptorError,
    Distribution,
    EmptyMixture,
    Generator,
    GeneratorError,
    IDENTITY,
    InternalConsistencyError,
    Linear,
    Mixture,
    NegationError,
    RangeError,
    ROOT_SUM,
    Tsallis,
    UNIFORM,
    WeightError,
    YAGER,
    Yager,
    apply_transformation,
    evaluate,
    from_generator,
    linear_from_alpha,
    linear_from_boundary,
    mixture,
    parse_descriptor,
    point_distribution,
    sample_distributions,
    validate_distribution,
)

EXAMPLE = validate_distribution(EXAMPLE_PD)

NEGATOR_BUILTINS = [UNIFORM, YAGER, Tsallis(0.5), Tsallis(2.0), Linear(0.25), Linear(0.75)]


class TestClaims:
    @pytest.mark.parametrize(
        "descriptor,negator,independent",
        [
            (IDENTITY, False, True),
            (ROOT_SUM, False, False),
            (UNIFORM, True, True),
            (YAGER, True, True),
            (Tsallis(2.0), True, False),
            (Linear(0.3), True, True),
            (Generator(lambda p: 1.0 - p, "affine"), True, False),
        ],
    )
    def test_builtin_claims(self, descriptor, negator, independent):
        assert descriptor.claims_negator is negator
        assert descriptor.claims_pd_independent is independent

    def test_mixture_claims_are_inferred_from_components(self):
        all_good = mixture([(0.5, UNIFORM), (0.5, YAGER)])
        assert all_good.claims_negator and all_good.claims_pd_independent
        with_identity = mixture([(0.5, IDENTITY), (0.5, YAGER)])
        assert not with_identity.claims_negator
        assert with_identity.claims_pd_independent
        with_tsallis = mixture([(0.5, Tsallis(2.0)), (0.5, YAGER)])
        assert with_tsallis.claims_negator
        assert not with_tsallis.claims_pd_independent

    def test_uses_length_marks_descriptors_needing_n(self):
        assert UNIFORM.uses_length and YAGER.uses_length and Linear(0.5).uses_length
        assert not IDENTITY.uses_length
        assert not ROOT_SUM.uses_length
        assert not Tsallis(2.0).uses_length
        assert not Generator(lambda p: 1.0, "flat").uses_length
        assert mixture([(1.0, YAGER)]).uses_length
        assert not mixture([(1.0, Tsallis(2.0))]).uses_length

    @pytest.mark.parametrize("k", [0.0, -1.0, float("nan")])
    def test_tsallis_parameter_must_be_positive(self, k):
        with pytest.raises(RangeError):
            Tsallis(k)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, float("nan")])
    def test_linear_parameter_must_be_in_unit_interval(self, alpha):
        with pytest.raises(RangeError):
            Linear(alpha)


class TestEvaluate:
    def test_yager_at_zero(self):
        assert evaluate(YAGER, 0.0, n=5) == 0.25

    def test_uniform_ignores_the_probability(self):
        assert evaluate(UNIFORM, 0.73, n=5) == 0.2

    def test_identity_returns_its_argument(self):
        assert evaluate(IDENTITY, 0.37) == 0.37

    def test_tsallis_value_depends_on_the_context(self):
        half_half = evaluate(Tsallis(2.0), 0.5, context=Distribution((0.5, 0.5)))
        assert half_half == 0.5
        split = evaluate(Tsallis(2.0), 0.5, context=Distribution((0.5, 0.25, 0.25)))
        assert split == 0.75 / 2.625

    def test_independent_descriptors_see_only_the_context_length(self):
        one = evaluate(YAGER, 0.4, context=Distribution((0.4, 0.35, 0.25)))
        other = evaluate(YAGER, 0.4, context=Distribution((0.4, 0.6, 0.0)))
        assert one == other

    @pytest.mark.parametrize("descriptor", [ROOT_SUM, Tsallis(2.0), Generator(lambda p: 1.0 - p, "affine")])
    def test_dependent_descriptors_need_a_context(self, descriptor):
        with pytest.raises(ContextRequired):
            evaluate(descriptor, 0.5, n=3)

    def test_context_must_contain_the_value(self):
        with pytest.raises(ContextMismatch):
            evaluate(Tsallis(2.0), 0.4, context=Distribution((0.5, 0.5)))

    def test_length_required_for_length_dependent_descriptors(self):
        with pytest.raises(ArgumentError):
            evaluate(UNIFORM, 0.5)

    def test_context_and_length_must_agree(self):
        with pytest.raises(ArgumentError):
            evaluate(YAGER, 0.5, context=Distribution((0.5, 0.5)), n=3)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_probability_out_of_range(self, p):
        with pytest.raises(RangeError):
            evaluate(YAGER, p, n=4)

    def test_claimed_independent_generator_evaluates_without_context(self):
        flat = Generator(lambda p: 1.0, "flat", claims_pd_independent=True)
        assert evaluate(flat, 0.3, n=4) == 0.25


class TestApplyTransformation:
    def test_yager_negates_a_point_distribution(self):
        out = apply_transformation(YAGER, Distribution((1.0, 0.0, 0.0, 0.0)))
        assert out.values == (0.0, 1 / 3, 1 / 3, 1 / 3)

    def test_linear_negation_of_the_example(self):
        descriptor = linear_from_boundary(5, n_at_one=0.1)
        out = apply_transformation(descriptor, EXAMPLE)
        expected = (0.225, 0.2125, 0.2, 0.1875, 0.175)
        assert out.values == pytest.approx(expected, abs=1e-12)

    def test_tsallis_on_a_two_component_distribution(self):
        out = apply_transformation(Tsallis(2.0), Distribution((0.7, 0.3)))
        assert out.values == pytest.approx((0.51 / 1.42, 0.91 / 1.42), abs=1e-12)

    def test_uniform_maps_everything_to_the_uniform_distribution(self):
        assert apply_transformation(UNIFORM, EXAMPLE).values == (0.2,) * 5

    @pytest.mark.parametrize(
        "descriptor",
        [IDENTITY, ROOT_SUM, UNIFORM, YAGER, Tsallis(2.0), Linear(0.3),
         Generator(lambda p: (1.0 - p) ** 2, "square"), ],
    )
    def test_equal_components_map_to_bit_equal_outputs(self, descriptor):
        out = apply_transformation(descriptor, Distribution((0.25, 0.3, 0.25, 0.2)))
        assert out[0] == out[2]

    @given(simplexes(), st.sampled_from([IDENTITY, ROOT_SUM, UNIFORM, YAGER, Tsallis(0.5),
                                         Tsallis(2.0), Linear(0.0), Linear(0.5), Linear(1.0)]))
    def test_simplex_closure(self, dist, descriptor):
        out = apply_transformation(descriptor, dist)
        validate_distribution(out.values)
        for i, p in enumerate(dist.values):
            for j, q in enumerate(dist.values):
                if p == q:
                    assert out[i] == out[j]

    def test_off_simplex_output_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(Yager, "images", lambda self, values, n, context=None: [0.4] * len(values))
        with pytest.raises(InternalConsistencyError):
            apply_transformation(YAGER, Distribution((0.5, 0.5)))


class TestFromGenerator:
    def test_cost_is_linear_in_the_length(self):
        calls = 0

        def counting(p):
            nonlocal calls
            calls += 1
            return 1.0 - p

        n = 2000
        from_generator(counting, sample_distributions(n, 1, seed=3)[0])
        assert calls <= 2 * n

    def test_affine_generator_matches_hand_computation(self):
        out = from_generator(lambda p: 1.0 - p, Distribution((0.5, 0.3, 0.2)))
        assert out.values == pytest.approx((0.25, 0.35, 0.4), abs=1e-15)

    def test_affine_generator_matches_the_closed_form_path(self):
        dist = Distribution((0.5, 0.3, 0.2))
        generated = from_generator(lambda p: 1.0 - p, dist)
        closed = apply_transformation(YAGER, dist)
        assert generated.values == pytest.approx(closed.values, abs=1e-12)

    def test_constant_generator_yields_the_uniform_distribution(self):
        out = from_generator(lambda p: 1.0, Distribution((0.4, 0.3, 0.2, 0.1)))
        assert out.values == (0.25,) * 4

    def test_square_root_generator(self):
        root_half = math.sqrt(0.5)
        out = from_generator(math.sqrt, Distribution((0.25, 0.25, 0.5)))
        denominator = 0.5 + 0.5 + root_half
        expected = (0.5 / denominator, 0.5 / denominator, root_half / denominator)
        assert out.values == pytest.approx(expected, abs=1e-15)

    def test_negative_generator_value_is_rejected(self):
        with pytest.raises(GeneratorError) as excinfo:
            from_generator(lambda p: p - 0.5, Distribution((0.7, 0.3)))
        assert "negative" in str(excinfo.value)

    def test_zero_sum_generator_is_rejected(self):
        with pytest.raises(GeneratorError) as excinfo:
            from_generator(lambda p: 0.0, Distribution((0.7, 0.3)))
        assert "expected > 0" in str(excinfo.value)

    @pytest.mark.parametrize(
        "fn,reference",
        [
            (lambda p: 1.0 - p, YAGER),
            (lambda p: 1.0, UNIFORM),
            (lambda p: 1.0 - p * p, Tsallis(2.0)),
            (math.sqrt, ROOT_SUM),
        ],
    )
    def test_generator_equivalence_with_closed_forms(self, fn, reference):
        for n in range(2, 11):
            for dist in sample_distributions(n, 25, seed=17 * n):
                generated = from_generator(fn, dist)
                closed = apply_transformation(reference, dist)
                assert generated.values == pytest.approx(closed.values, abs=1e-12)



class TestGeneratorContract:
    INFINITE_AT_ONE = Generator(lambda p: math.inf if p == 1.0 else 1.0 - p, "inf-at-one",
                                claims_pd_independent=True)

    def test_an_infinite_value_is_rejected_without_a_context(self):
        with pytest.raises(GeneratorError, match="infinite"):
            evaluate(self.INFINITE_AT_ONE, 1.0, n=5)

    def test_an_infinite_value_is_rejected_inside_a_distribution(self):
        with pytest.raises(GeneratorError, match="infinite"):
            apply_transformation(self.INFINITE_AT_ONE, Distribution((1.0, 0.0, 0.0)))

    def test_an_overflowing_normaliser_is_rejected(self):
        with pytest.raises(GeneratorError, match="overflows"):
            from_generator(lambda p: 1e308, Distribution((0.5, 0.5)))


class TestProbabilitySlack:
    # Components up to 1e-9 outside [0, 1] pass validation; the kernels see them clamped.
    @pytest.mark.parametrize(
        "descriptor",
        [YAGER, Tsallis(2.0), ROOT_SUM, mixture([(0.25, Tsallis(0.5)), (0.75, YAGER)])],
    )
    @pytest.mark.parametrize(
        "slack,clamped",
        [((1.0 + 5e-10, -5e-10, 0.0), (1.0, 0.0, 0.0)), ((-3e-10, 0.4, 0.6 + 3e-10), (0.0, 0.4, 0.6 + 3e-10))],
    )
    def test_apply_matches_the_clamped_copy(self, descriptor, slack, clamped):
        out = apply_transformation(descriptor, Distribution(slack))
        assert out.values == apply_transformation(descriptor, Distribution(clamped)).values

    def test_boundary_conversion_snaps_alpha_back_into_the_unit_interval(self):
        assert 6 * (1.0 - 5 * (1 / 6)) > 1.0  # the raw alpha overshoots 1
        assert linear_from_boundary(6, n_at_zero=1 / 6) == Linear(1.0)

class TestTsallisAcrossK:
    @settings(deadline=None)
    @given(st.floats(min_value=-15.0, max_value=4.0), st.integers(2, 1000), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_valid_and_equal_to_the_expm1_generator(self, log_k, n, seed, point):
        k = 10.0 ** log_k
        dist = point_distribution(n, seed % n + 1) if point else sample_distributions(n, 1, seed)[0]
        try:
            out = apply_transformation(Tsallis(k), dist)
        except NegationError:
            return
        validate_distribution(out.values)
        reference = from_generator(lambda p: 1.0 if p == 0.0 else -math.expm1(k * math.log(p)), dist)
        assert max(abs(a - b) for a, b in zip(out.values, reference.values)) <= 1e-12

    @pytest.mark.parametrize("k", [1e-15, 1e-13, 1e-10, 1e-8, 1.0, 1e4])
    def test_no_cancellation_on_seeded_distributions(self, k):
        for dist in sample_distributions(6, 200, seed=0):
            validate_distribution(apply_transformation(Tsallis(k), dist).values)


class TestMixture:
    def test_example_mixture_value(self):
        descriptor = mixture([(0.5, UNIFORM), (0.5, YAGER)])
        assert evaluate(descriptor, 0.0, n=5) == 0.5 * 0.2 + 0.5 * 0.25 == 0.225

    def test_single_component_mixture_is_bit_identical_to_the_component(self):
        wrapped = mixture([(1.0, YAGER)])
        for k in range(101):
            p = k / 100
            assert evaluate(wrapped, p, n=5) == evaluate(YAGER, p, n=5)

    def test_mixture_of_identical_components(self):
        descriptor = mixture([(0.3, UNIFORM), (0.7, UNIFORM)])
        assert evaluate(descriptor, 0.6, n=4) == pytest.approx(0.25, abs=1e-15)

    def test_mixture_evaluation_is_the_weighted_sum(self):
        weights = (0.2, 0.3, 0.5)
        parts = (UNIFORM, YAGER, Linear(0.3))
        combined = mixture(list(zip(weights, parts)))
        for k in range(0, 101, 7):
            p = k / 100
            expected = math.fsum(w * evaluate(d, p, n=6) for w, d in zip(weights, parts))
            assert abs(evaluate(combined, p, n=6) - expected) <= 1e-12

    def test_nested_mixture(self):
        inner = mixture([(0.5, UNIFORM), (0.5, YAGER)])
        outer = mixture([(0.4, YAGER), (0.6, inner)])
        expected = mixture([(0.4, YAGER), (0.3, UNIFORM), (0.3, YAGER)])
        for k in range(0, 101, 9):
            p = k / 100
            assert evaluate(outer, p, n=5) == pytest.approx(evaluate(expected, p, n=5), abs=1e-15)

    def test_weight_sum_error_reports_the_actual_sum(self):
        with pytest.raises(WeightError) as excinfo:
            mixture([(0.5, UNIFORM), (0.4, YAGER)])
        assert "0.9" in str(excinfo.value)

    @pytest.mark.parametrize("weight", [-0.1, 1.2])
    def test_weight_out_of_range(self, weight):
        with pytest.raises(WeightError):
            mixture([(weight, UNIFORM), (1.0 - weight, YAGER)])

    def test_empty_mixture_is_rejected(self):
        with pytest.raises(EmptyMixture):
            mixture([])


class TestLinearFamily:
    def test_alpha_zero_coincides_with_yager(self):
        descriptor = linear_from_alpha(0.0)
        for n in (2, 5, 9):
            for k in range(0, 101, 3):
                p = k / 100
                assert evaluate(descriptor, p, n=n) == evaluate(YAGER, p, n=n)

    def test_alpha_one_coincides_with_uniform(self):
        descriptor = linear_from_alpha(1.0)
        for n in (2, 5, 9):
            for k in range(0, 101, 3):
                p = k / 100
                assert evaluate(descriptor, p, n=n) == evaluate(UNIFORM, p, n=n)

    def test_example_alpha_half_value(self):
        assert evaluate(linear_from_alpha(0.5), 0.4, n=5) == pytest.approx(0.175, abs=1e-15)

    def test_boundary_at_one_fixes_alpha(self):
        descriptor = linear_from_boundary(5, n_at_one=0.1)
        assert descriptor == Linear(0.5)
        assert evaluate(descriptor, 1.0, n=5) == pytest.approx(0.1, abs=1e-12)

    def test_boundary_at_zero_converts_through_the_tie(self):
        from_zero = linear_from_boundary(5, n_at_zero=0.225)
        from_one = linear_from_boundary(5, n_at_one=0.1)
        for k in range(101):
            p = k / 100
            assert evaluate(from_zero, p, n=5) == pytest.approx(evaluate(from_one, p, n=5), abs=1e-12)
        assert evaluate(from_zero, 0.0, n=5) == pytest.approx(0.225, abs=1e-12)

    def test_boundary_interval_endpoints(self):
        uniform_like = linear_from_boundary(4, n_at_one=0.25)
        assert uniform_like.alpha == 1.0
        with pytest.raises(RangeError):
            linear_from_boundary(4, n_at_one=0.26)
        yager_like = linear_from_boundary(4, n_at_zero=1 / 3)
        assert yager_like.alpha == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(RangeError):
            linear_from_boundary(4, n_at_zero=0.24)
        with pytest.raises(RangeError):
            linear_from_boundary(4, n_at_zero=0.34)

    def test_exactly_one_boundary_value(self):
        with pytest.raises(ArgumentError):
            linear_from_boundary(5)
        with pytest.raises(ArgumentError):
            linear_from_boundary(5, n_at_one=0.1, n_at_zero=0.225)

    def test_alpha_and_boundary_constructions_agree(self):
        for n in (2, 5, 10):
            for tenth in range(11):
                alpha = tenth / 10
                direct = linear_from_alpha(alpha)
                via_boundary = linear_from_boundary(n, n_at_one=alpha / n)
                for k in range(0, 101, 4):
                    p = k / 100
                    assert abs(evaluate(direct, p, n=n) - evaluate(via_boundary, p, n=n)) <= 1e-12


class TestOrderReversal:
    @pytest.mark.parametrize("descriptor", NEGATOR_BUILTINS)
    def test_negators_reverse_the_order_of_07_03(self, descriptor):
        out = apply_transformation(descriptor, Distribution((0.7, 0.3)))
        assert out[0] <= out[1] + 1e-12

    @pytest.mark.parametrize("descriptor", [IDENTITY, ROOT_SUM])
    def test_increasing_transformations_preserve_the_order(self, descriptor):
        out = apply_transformation(descriptor, Distribution((0.7, 0.3)))
        assert out[0] > out[1] + 1e-12

    @given(simplexes(), st.sampled_from(NEGATOR_BUILTINS))
    def test_negators_reverse_order_on_random_distributions(self, dist, descriptor):
        out = apply_transformation(descriptor, dist)
        for i, p in enumerate(dist.values):
            for j, q in enumerate(dist.values):
                if p <= q:
                    assert out[i] >= out[j] - 1e-12


class TestParser:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("identity", IDENTITY),
            ("rootsum", ROOT_SUM),
            ("uniform", UNIFORM),
            ("yager", YAGER),
            ("tsallis:k=2", Tsallis(2.0)),
            ("tsallis:k=0.5", Tsallis(0.5)),
            ("linear:alpha=0.5", Linear(0.5)),
            ("linear:alpha=1e-1", Linear(0.1)),
            ("mix:[0.5*uniform,0.5*yager]", mixture([(0.5, UNIFORM), (0.5, YAGER)])),
            (
                "mix:[0.25*yager,0.75*mix:[0.5*uniform,0.5*yager]]",
                mixture([(0.25, YAGER), (0.75, mixture([(0.5, UNIFORM), (0.5, YAGER)]))]),
            ),
        ],
    )
    def test_parses_every_descriptor_form(self, text, expected):
        assert parse_descriptor(text) == expected

    @pytest.mark.parametrize(
        "descriptor",
        [IDENTITY, ROOT_SUM, UNIFORM, YAGER, Tsallis(0.5), Linear(0.125),
         Mixture(((0.5, UNIFORM), (0.5, Linear(0.25))))],
    )
    def test_spec_string_round_trips(self, descriptor):
        assert parse_descriptor(descriptor.spec_string()) == descriptor

    def test_boundary_forms_resolve_with_the_length(self):
        assert parse_descriptor("linear:n1=0.1", n=5) == Linear(0.5)
        assert parse_descriptor("linear:n0=0.225", n=5).alpha == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("text", ["linear:n1=0.1", "linear:n0=0.2"])
    def test_boundary_forms_without_a_length_fail_with_position(self, text):
        with pytest.raises(DescriptorError) as excinfo:
            parse_descriptor(text)
        assert excinfo.value.position == 7
        assert str(excinfo.value) == f"{text[:10]} needs the distribution length n at position 7"

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("yagr", 0),
            ("Yager", 0),
            (" yager", 0),
            ("yager extra", 5),
            ("tsallis:k=", 10),
            ("tsallis=2", 7),
            ("linear:beta=1", 7),
            ("mix:[]", 5),
            ("mix:[0.5*yager", 14),
            ("mix:[0.5 * yager]", 8),
        ],
    )
    def test_malformed_strings_fail_with_position(self, text, position):
        with pytest.raises(DescriptorError) as excinfo:
            parse_descriptor(text)
        assert excinfo.value.position == position

    def test_parameter_errors_keep_their_own_types(self):
        with pytest.raises(RangeError):
            parse_descriptor("tsallis:k=-2")
        with pytest.raises(RangeError):
            parse_descriptor("linear:alpha=1.5")
        with pytest.raises(WeightError):
            parse_descriptor("mix:[0.5*yager,0.4*uniform]")

    @pytest.mark.parametrize(
        "build,message",
        [(lambda: parse_descriptor(5), "descriptor must be a string, got int"),
         (lambda: Mixture(((1.0, "yager"),)), "mixture component 'yager' is not a descriptor")],
        ids=["parse_descriptor-int", "Mixture-of-a-string"],
    )
    def test_a_value_that_is_no_descriptor_is_a_descriptor_error(self, build, message):
        with pytest.raises(DescriptorError) as excinfo:
            build()
        assert str(excinfo.value) == message
