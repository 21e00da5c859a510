"""Transformation functions and negators on probability values.

A *transformation function* N maps probability values to probability values
so that applying it component-wise to any distribution yields another
distribution.  A *negator* is a decreasing transformation function; applying
it component-wise produces a negation of the input distribution (larger
components become smaller and vice versa).

This module provides an immutable descriptor algebra for such functions:

``Identity``
    N(p) = p.  Increasing, so not a negator.
``RootSum``
    N(p) = sqrt(p) / sum(sqrt(p_i)).  Increasing and pd-dependent.
``Uniform``
    N(p) = 1/n.  Ignores p; every negation lands on the uniform distribution.
``Yager``
    N(p) = (1 - p) / (n - 1).
``Tsallis(k)``
    N(p) = (1 - p^k) / (n - sum(p_i^k)), k > 0.  pd-dependent for k != 1.
``Linear(alpha)``
    N(p) = alpha/n + (1 - alpha)(1 - p)/(n - 1), the convex combination of
    the uniform and Yager negators; alpha in [0, 1].
``Generator(fn, label)``
    N(p) = fn(p) / sum(fn(p_i)) for a finite, non-negative fn with positive sum.
``Mixture(components)``
    Weighted sum of other descriptors, weights in [0, 1] summing to 1.

Each descriptor carries two claims: ``claims_negator`` (it is a decreasing
transformation function) and ``claims_pd_independent`` (its value at p does
not depend on the surrounding distribution).  The claims are declared for
built-ins and inferred for mixtures; the analysis module checks them
empirically.

Each descriptor maps a whole vector of values in one call of its kernel,
:meth:`NegatorDescriptor.images`, which computes a pd-dependent normaliser
once.  Costs in the distribution length n: :func:`apply_transformation` is
O(n); :func:`evaluate` is O(n) with a context and O(1) without (O(n) for a
claimed-independent generator, via its canonical context); and
:func:`pdneg.analysis.check_negation_pair` is O(n log n) when the pair passes.

One slack, :data:`pdneg.core.DEFAULT_TOLERANCE` (1e-9), serves both ends of
a transformation: a probability argument may lie that far outside [0, 1]
and is clamped into it, and a transformed distribution must sum to 1 within
it, as distribution validation requires of any input.

Descriptors also have a textual form (see :func:`parse_descriptor`) used by
the command line:

    identity | rootsum | uniform | yager | tsallis:k=<real>
    | linear:alpha=<real> | linear:n1=<real> | linear:n0=<real>
    | mix:[<w1>*<desc1>,<w2>*<desc2>,...]

The ``linear:n1=`` / ``linear:n0=`` forms fix the value of the negator at
p = 1 (resp. p = 0) and therefore need the distribution length to resolve;
``parse_descriptor`` must be given ``n`` for them.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import DEFAULT_TOLERANCE, Distribution, require_length
from .errors import (
    ArgumentError,
    ContextMismatch,
    ContextRequired,
    DescriptorError,
    EmptyMixture,
    GeneratorError,
    InternalConsistencyError,
    LengthError,
    RangeError,
    SumError,
    WeightError,
)

#: Tolerance for matching a probed value against a context component.
CONTEXT_TOLERANCE = 1e-12
#: Tolerance on the mixture weight sum.
WEIGHT_TOLERANCE = 1e-12


class NegatorDescriptor:
    """Immutable description of a transformation function.

    ``uses_length`` is True when evaluating the descriptor needs the
    distribution length as an input beyond the probability value and the
    context distribution itself.
    """

    claims_negator: bool = False
    claims_pd_independent: bool = False
    uses_length: bool = False

    def spec_string(self) -> str:
        """The textual form; a parameterless built-in's is its lower-cased class name."""
        return type(self).__name__.lower()

    def images(self, values: Sequence[float], n: int | None, context: Sequence[float] | None = None) -> list[float]:
        """The images of ``values``, each already in [0, 1], at length ``n``.

        ``context`` is the distribution the values come from, or ``values``
        itself when they are that whole distribution.  pd-dependent
        descriptors normalise over it once per call and check that each
        value is one of its components; without it they raise
        :class:`ContextRequired`, except a generator claiming independence.
        """
        raise DescriptorError(f"unknown descriptor type {type(self).__name__}")


@dataclass(frozen=True)
class Identity(NegatorDescriptor):
    claims_pd_independent = True

    def images(self, values, n, context=None):
        return list(values)


class _LinearFamily(NegatorDescriptor):
    """N(p) = alpha/n + (1 - alpha)(1 - p)/(n - 1); uniform is alpha = 1, Yager alpha = 0."""

    claims_negator = True
    claims_pd_independent = True
    uses_length = True

    def images(self, values, n, context=None):
        if n is None:
            raise ArgumentError(
                f"{type(self).__name__} evaluation needs the distribution length; pass n= or a context distribution"
            )
        require_length(n)
        head, slope = self.alpha / n, 1.0 - self.alpha
        return [head + slope * (1.0 - p) / (n - 1) for p in values]


class _Normalised(NegatorDescriptor):
    """N(p) = f(p) / sum f(p_i) over the context; ``numerators(values)`` gives f at each value."""

    def images(self, values, n, context=None):
        if context is None:
            return self._without_context(values, n)
        if context is values:
            numerators = self.numerators(values)
            return self._normalise(numerators, numerators)
        for p in values:
            if min(abs(c - p) for c in context) > CONTEXT_TOLERANCE:
                raise ContextMismatch(f"{p!r} is not a component of the context distribution")
        terms = self.numerators([min(max(c, 0.0), 1.0) for c in context])
        return self._normalise(self.numerators(values), terms)

    def _normalise(self, numerators: list[float], terms: list[float]) -> list[float]:
        try:
            total = math.fsum(terms)
        except OverflowError:
            raise GeneratorError(f"{self.spec_string()} overflows when summed over the context") from None
        if total <= 0.0:
            raise GeneratorError(f"{self.spec_string()} sums to {total!r} over the context, expected > 0")
        return [x / total for x in numerators]

    def _without_context(self, values, n):
        raise ContextRequired(f"{type(self).__name__} is pd-dependent and needs a context distribution")


@dataclass(frozen=True)
class RootSum(_Normalised):
    def numerators(self, values):
        return [math.sqrt(p) for p in values]


@dataclass(frozen=True)
class Uniform(_LinearFamily):
    alpha = 1.0


@dataclass(frozen=True)
class Yager(_LinearFamily):
    alpha = 0.0


@dataclass(frozen=True)
class Tsallis(_Normalised):
    k: float
    claims_negator = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", float(self.k))
        # k < 0 would make the generator 1 - p^k non-positive on (0, 1]
        # and undefined at 0, so only k > 0 is admitted.
        if not (math.isfinite(self.k) and self.k > 0):
            raise RangeError(f"Tsallis parameter k must be > 0, got {self.k!r}")

    def spec_string(self) -> str:
        return f"tsallis:k={self.k!r}"

    def numerators(self, values):
        # 1 - p^k as -expm1(k log p) keeps its accuracy where p^k is near 1 (tiny k);
        # their sum is the normaliser n - sum p_i^k.  0.0 - x makes expm1(0) +0.0.
        k = self.k
        return [0.0 - math.expm1(k * math.log(p)) if p > 0.0 else 1.0 for p in values]


@dataclass(frozen=True)
class Linear(_LinearFamily):
    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (math.isfinite(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise RangeError(f"Linear parameter alpha must lie in [0, 1], got {self.alpha!r}")

    def spec_string(self) -> str:
        return f"linear:alpha={self.alpha!r}"


@dataclass(frozen=True)
class Generator(_Normalised):
    """Descriptor backed by a caller-supplied generator function.

    ``fn`` must be effect-free, finite and non-negative on [0, 1], and have
    a positive sum that does not overflow over every distribution it is
    applied to; a breach raises :class:`GeneratorError`.  The function
    itself is not serialisable; ``label`` stands in for it in reports.

    pd-independence cannot be decided from function values, so the claim
    defaults to False and may be asserted by the caller (typically after
    probing).  A claimed-independent generator evaluated without a context
    uses the canonical two-value distribution (p, q, ..., q) with
    q = (1 - p)/(n - 1), which by the claim is as good as any other.
    """

    fn: Callable[[float], float]
    label: str = "generator"
    claims_pd_independent: bool = False
    claims_negator = True

    def spec_string(self) -> str:
        return f"generator:{self.label}"

    def numerators(self, values):
        out = [self.fn(p) for p in values]
        for p, fp in zip(values, out):
            if not 0.0 <= fp < math.inf:
                raise GeneratorError(f"generator {self.label} is negative, infinite or NaN at {p!r}: f = {fp!r}")
        return out

    def _without_context(self, values, n):
        if not (self.claims_pd_independent and n is not None):
            return super()._without_context(values, n)
        out = []
        for p, q in zip(values, YAGER.images(values, n)):
            fp, fq = self.numerators((p, q))
            out.extend(self._normalise([fp], [fp] + [fq] * (n - 1)))
        return out


@dataclass(frozen=True)
class Mixture(NegatorDescriptor):
    components: tuple[tuple[float, NegatorDescriptor], ...]

    def __post_init__(self) -> None:
        components = tuple((float(w), d) for w, d in self.components)
        object.__setattr__(self, "components", components)
        if not components:
            raise EmptyMixture("a mixture needs at least one component")
        for weight, inner in components:
            if not (math.isfinite(weight) and 0.0 <= weight <= 1.0):
                raise WeightError(f"mixture weight {weight!r} lies outside [0, 1]")
            if not isinstance(inner, NegatorDescriptor):
                raise DescriptorError(f"mixture component {inner!r} is not a descriptor")
        total = math.fsum(w for w, _ in components)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise WeightError(f"mixture weights sum to {total!r}, expected 1")
        for claim, combine in (("claims_negator", all), ("claims_pd_independent", all), ("uses_length", any)):
            object.__setattr__(self, claim, combine(getattr(inner, claim) for _, inner in components))

    def spec_string(self) -> str:
        inner = ",".join(f"{w!r}*{d.spec_string()}" for w, d in self.components)
        return f"mix:[{inner}]"

    def images(self, values, n, context=None):
        weights = [w for w, _ in self.components]
        columns = zip(*(inner.images(values, n, context) for _, inner in self.components))
        return [math.fsum(map(operator.mul, weights, column)) for column in columns]


IDENTITY = Identity()
ROOT_SUM = RootSum()
UNIFORM = Uniform()
YAGER = Yager()

#: Parameterless built-ins by their textual name.
BUILTINS: dict[str, NegatorDescriptor] = {d.spec_string(): d for d in (IDENTITY, ROOT_SUM, UNIFORM, YAGER)}


def _coerce_probability(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < -DEFAULT_TOLERANCE or p > 1.0 + DEFAULT_TOLERANCE:
        raise RangeError(f"probability {p!r} lies outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def evaluate(
    descriptor: NegatorDescriptor,
    p: float,
    context: Distribution | None = None,
    *,
    n: int | None = None,
) -> float:
    """Evaluate a transformation function at a single probability value.

    pd-independent descriptors ignore the context's values (only its length
    matters, and ``n`` may be passed instead).  pd-dependent descriptors
    need a context containing ``p`` as a component within 1e-12; a
    pd-dependent descriptor without one raises :class:`ContextRequired`,
    except for generators that claim independence, which fall back to the
    canonical two-value context.
    """
    p = _coerce_probability(p)
    if context is not None:
        if n is not None and n != len(context):
            raise ArgumentError(f"n={n} disagrees with the context length {len(context)}")
        n = len(context)
        context = context.values
    return descriptor.images((p,), n, context)[0]


def apply_transformation(descriptor: NegatorDescriptor, dist: Distribution) -> Distribution:
    """Apply a transformation function component-wise to a distribution.

    One kernel call maps every component in O(n); an image depends only on
    its value and the shared normaliser, so equal inputs map to bit-equal
    outputs.  The output must land back on the simplex within
    :data:`pdneg.core.DEFAULT_TOLERANCE`, the output-sum tolerance;
    anything else is an :class:`InternalConsistencyError`, never
    renormalised away.
    """
    values = dist.values
    if min(values) < 0.0 or max(values) > 1.0:
        values = tuple(_coerce_probability(v) for v in values)
    images = descriptor.images(values, len(values), values)
    try:
        return Distribution(images)
    except (RangeError, SumError, LengthError) as exc:
        raise InternalConsistencyError(
            f"{descriptor.spec_string()} produced values off the simplex: {exc}"
        ) from exc


def from_generator(fn: Callable[[float], float], dist: Distribution, label: str = "generator") -> Distribution:
    """Transform a distribution by normalising a generator function over it.

    The result is (f(p_1), ..., f(p_n)) / sum(f(p_i)).  Raises
    :class:`GeneratorError` when some f(p_i) is negative or not finite, or
    the sum is not positive or overflows.  A decreasing ``fn`` yields a
    negation of ``dist``.
    """
    return apply_transformation(Generator(fn, label), dist)


def mixture(components: Sequence[tuple[float, NegatorDescriptor]] | Iterable[tuple[float, NegatorDescriptor]]) -> Mixture:
    """Build the weighted sum of other descriptors.

    The result claims to be a negator (resp. pd-independent) exactly when
    every component does.
    """
    return Mixture(tuple(components))


def _snap_unit(x: float) -> float:
    # Absorb float excursions just outside [0, 1] from boundary conversions.
    if -1e-12 <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + 1e-12:
        return 1.0
    return x


def linear_from_alpha(alpha: float) -> Linear:
    """The convex combination of the uniform and Yager negators."""
    return Linear(alpha)


def linear_from_boundary(
    n: int,
    n_at_one: float | None = None,
    n_at_zero: float | None = None,
) -> Linear:
    """Build the linear negator fixed by its value at p = 1 or at p = 0.

    For length n the admissible boundary values are N(1) in [0, 1/n] and
    N(0) in [1/n, 1/(n-1)]; the two determine each other through
    N(1) = 1 - (n - 1) N(0), and either pins alpha = n N(1).
    """
    require_length(n)
    if (n_at_one is None) == (n_at_zero is None):
        raise ArgumentError("exactly one of n_at_one and n_at_zero must be supplied")
    if n_at_zero is not None:
        n_at_zero = float(n_at_zero)
        low, high = 1.0 / n, 1.0 / (n - 1)
        if math.isnan(n_at_zero) or not low <= n_at_zero <= high:
            raise RangeError(
                f"N(0) = {n_at_zero!r} outside the admissible interval [1/{n}, 1/{n - 1}] = [{low!r}, {high!r}]"
            )
        n_at_one = 1.0 - (n - 1) * n_at_zero
    else:
        n_at_one = float(n_at_one)
        if math.isnan(n_at_one) or not 0.0 <= n_at_one <= 1.0 / n:
            raise RangeError(
                f"N(1) = {n_at_one!r} outside the admissible interval [0, 1/{n}] = [0.0, {1.0 / n!r}]"
            )
    return Linear(_snap_unit(n * _snap_unit(n_at_one)))


# ---------------------------------------------------------------------------
# Textual descriptor syntax
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[a-z]+")
_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


class _Parser:
    """Recursive-descent parser for the descriptor syntax.

    Parsing is exact: no whitespace skipping, no case folding.  Failures
    raise :class:`DescriptorError` carrying the offending position.
    """

    def __init__(self, text: str, n: int | None):
        self.text = text
        self.n = n
        self.pos = 0

    def parse(self) -> NegatorDescriptor:
        descriptor = self.descriptor()
        if self.pos != len(self.text):
            self.fail("unexpected trailing characters")
        return descriptor

    def fail(self, message: str) -> None:
        raise DescriptorError(message, position=self.pos)

    def expect(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            self.fail(f"expected {token!r}")
        self.pos += len(token)

    def number(self) -> float:
        match = _FLOAT_RE.match(self.text, self.pos)
        if match is None:
            self.fail("expected a number")
        self.pos = match.end()
        return float(match.group())

    def descriptor(self) -> NegatorDescriptor:
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            self.fail("expected a negator name")
        name = match.group()
        self.pos = match.end()
        if name in BUILTINS:
            return BUILTINS[name]
        if name == "tsallis":
            self.expect(":k=")
            return Tsallis(self.number())
        if name == "linear":
            self.expect(":")
            if self.text.startswith("alpha=", self.pos):
                self.pos += len("alpha=")
                return Linear(self.number())
            for key, boundary in (("n1=", "n_at_one"), ("n0=", "n_at_zero")):
                if self.text.startswith(key, self.pos):
                    if self.n is None:
                        self.fail(f"linear:{key} needs the distribution length n")
                    self.pos += len(key)
                    return linear_from_boundary(self.n, **{boundary: self.number()})
            self.fail("expected alpha=, n1= or n0=")
        if name == "mix":
            self.expect(":[")
            components = [self.weighted()]
            while self.text.startswith(",", self.pos):
                self.pos += 1
                components.append(self.weighted())
            self.expect("]")
            return Mixture(tuple(components))
        self.pos -= len(name)
        self.fail(f"unknown negator {name!r}")
        raise AssertionError("unreachable")

    def weighted(self) -> tuple[float, NegatorDescriptor]:
        weight = self.number()
        self.expect("*")
        return weight, self.descriptor()


def parse_descriptor(text: str, n: int | None = None) -> NegatorDescriptor:
    """Parse the textual descriptor syntax.

    ``n`` is required only by the ``linear:n1=``/``linear:n0=`` boundary
    forms, which resolve to a concrete ``Linear`` for that length.
    """
    if not isinstance(text, str):
        raise DescriptorError(f"descriptor must be a string, got {type(text).__name__}")
    return _Parser(text, n).parse()
