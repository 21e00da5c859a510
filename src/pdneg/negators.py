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
once.  A kernel does only the arithmetic its result needs: Yager's maps p
to (1 - p) / (n - 1), and a two-component mixture sums its weighted images
in one IEEE addition, which is the correctly rounded sum ``math.fsum``
gives; a mixture of more components sums each value with ``math.fsum``.
Costs in the distribution length n: :func:`apply_transformation` is
O(n); :func:`evaluate` is O(n) with a context and O(1) without (for a
claimed-independent generator too, computed from the two terms of its
canonical context); and :func:`pdneg.analysis.check_negation_pair` is
O(n log n), plus O(n) for each index with a violation.

One slack, :data:`pdneg.core.DEFAULT_TOLERANCE` (1e-9), serves both ends of
a transformation: a probability argument may lie that far outside [0, 1]
and is clamped into it, and a transformed distribution must sum to 1 within
it, as distribution validation requires of any input.

Descriptors also have a textual form (see :func:`parse_descriptor`) used by
the command line:

    identity | rootsum | uniform | yager | tsallis:k=<real>
    | linear:alpha=<real> | linear:n1=<real> | linear:n0=<real>
    | mix:[<w1>*<desc1>,<w2>*<desc2>,...]

Mixtures nest at most MAX_MIX_DEPTH (32) deep.  The ``linear:n1=`` /
``linear:n0=`` forms fix the value of the negator at p = 1 (resp. p = 0)
and therefore need the distribution length to resolve; ``parse_descriptor``
must be given ``n`` for them.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable, Iterable, Sequence
from itertools import repeat

from .core import DEFAULT_TOLERANCE, Distribution, _Frozen, require_length
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
#: Most mixtures that may nest one inside another.
MAX_MIX_DEPTH = 32


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
        A descriptor that needs the length and has neither ``n`` nor a
        context raises :class:`ArgumentError`.
        """
        raise DescriptorError(f"unknown descriptor type {type(self).__name__}")


def _length_required(descriptor: NegatorDescriptor) -> ArgumentError:
    return ArgumentError(
        f"{type(descriptor).__name__} evaluation needs the distribution length; pass n= or a context distribution"
    )


class Identity(_Frozen, NegatorDescriptor):
    claims_pd_independent = True

    def images(self, values, n, context=None):
        return list(values)


class _LinearFamily(_Frozen, NegatorDescriptor):
    """N(p) = alpha/n + (1 - alpha)(1 - p)/(n - 1); uniform is alpha = 1, Yager alpha = 0.

    At alpha = 0 (``yager``, ``Linear(0.0)``, ``linear:n1=0``) the kernel
    computes (1 - p) / (n - 1) in two operations.  That is the general form
    0.0 + 1.0 * (1 - p) / (n - 1) bit for bit at every p, NaN and infinities
    included, except where (1 - p) / (n - 1) rounds to -0.0, which needs
    p > 1 and n >= 2**1023, outside the kernel's domain.
    """

    claims_negator = True
    claims_pd_independent = True
    uses_length = True

    def images(self, values, n, context=None):
        if n is None:
            raise _length_required(self)
        require_length(n)
        rest = float(n - 1)
        if self.alpha == 0.0:
            return [(1.0 - p) / rest for p in values]
        head, slope = self.alpha / n, 1.0 - self.alpha
        return [head + slope * (1.0 - p) / rest for p in values]


class _Normalised(_Frozen, NegatorDescriptor):
    """N(p) = f(p) / sum f(p_i) over the context; ``numerators(values)`` gives f at each value."""

    def images(self, values, n, context=None):
        if context is None:  # the canonical context (p, q, ..., q), q = Y(p), holds two distinct terms
            if not self.claims_pd_independent:
                raise ContextRequired(f"{type(self).__name__} is pd-dependent and needs a context distribution")
            if n is None:
                raise _length_required(self)
            canonical, rest = YAGER.images(values, n), n - 1
            return [self._normalise([fp], [fp, rest * fq])[0]
                    for fp, fq in zip(self.numerators(values), self.numerators(canonical))]
        if context is values:
            numerators = self.numerators(values)
            return self._normalise(numerators, numerators)
        for p in values:  # an exact match first; the tolerance scan only without one
            if p not in context and min(abs(c - p) for c in context) > CONTEXT_TOLERANCE:
                raise ContextMismatch(f"{p!r} is not a component of the context distribution")
        if min(context) < 0.0 or max(context) > 1.0:
            context = [min(max(c, 0.0), 1.0) for c in context]
        terms = self.numerators(context)
        return self._normalise(self.numerators(values), terms)

    def _normalise(self, numerators: list[float], terms: list[float]) -> list[float]:
        try:
            total = math.fsum(terms)
        except OverflowError:
            total = math.inf
        if total == math.inf:
            raise GeneratorError(f"{self.spec_string()} overflows when summed over the context")
        if total <= 0.0:
            raise GeneratorError(f"{self.spec_string()} sums to {total!r} over the context, expected > 0")
        return [x / total for x in numerators]


class RootSum(_Normalised):
    def numerators(self, values):
        return [math.sqrt(p) for p in values]


class Uniform(_LinearFamily):
    alpha = 1.0


class Yager(_LinearFamily):
    alpha = 0.0


class Tsallis(_Normalised):
    FIELDS = ("k",)
    claims_negator = True

    def __init__(self, k: float) -> None:
        k = float(k)
        # k < 0 would make the generator 1 - p^k non-positive on (0, 1]
        # and undefined at 0, so only k > 0 is admitted.
        if not (math.isfinite(k) and k > 0):
            raise RangeError(f"Tsallis parameter k must be > 0, got {k!r}")
        self.__dict__["k"] = k

    def spec_string(self) -> str:
        return f"tsallis:k={self.k!r}"

    def numerators(self, values):
        # 1 - p^k as -expm1(k log p) keeps its accuracy where p^k is near 1 (tiny k);
        # their sum is the normaliser n - sum p_i^k.  0.0 - x makes expm1(0) +0.0.
        k = self.k
        return [0.0 - math.expm1(k * math.log(p)) if p > 0.0 else 1.0 for p in values]


class Linear(_LinearFamily):
    FIELDS = ("alpha",)

    def __init__(self, alpha: float) -> None:
        alpha = float(alpha)
        if not (math.isfinite(alpha) and 0.0 <= alpha <= 1.0):
            raise RangeError(f"Linear parameter alpha must lie in [0, 1], got {alpha!r}")
        self.__dict__["alpha"] = alpha

    def spec_string(self) -> str:
        return f"linear:alpha={self.alpha!r}"


class Generator(_Normalised):
    """Descriptor backed by a caller-supplied generator function.

    ``fn`` must be effect-free, finite and non-negative on [0, 1], and have
    a positive sum that does not overflow over every distribution it is
    applied to; a breach raises :class:`GeneratorError`.  So does an
    exception raised by ``fn``, or a result that does not compare as a real
    number, chained from the error; either names ``label`` and the first
    failing p, which ``fn`` is called on again, one p at a time, to find.
    The function itself is not serialisable; ``label`` stands in for it in
    reports.

    pd-independence cannot be decided from function values, so the claim
    defaults to False and may be asserted by the caller (typically after
    probing).  A claimed-independent generator evaluated without a context
    uses the canonical two-value distribution (p, q, ..., q) with
    q = (1 - p)/(n - 1), which by the claim is as good as any other; its
    normaliser is summed as f(p) + (n - 1) * f(q).
    """

    FIELDS = ("fn", "label", "claims_pd_independent")
    claims_negator = True

    def __init__(self, fn: Callable[[float], float], label: str = "generator",
                 claims_pd_independent: bool = False) -> None:
        self.__dict__.update(fn=fn, label=label, claims_pd_independent=claims_pd_independent)

    def spec_string(self) -> str:
        return f"generator:{self.label}"

    def numerators(self, values):
        try:
            out = [self.fn(p) for p in values]
            for fp in out:
                if not 0.0 <= fp < math.inf:
                    break
            else:
                return out
        except Exception:
            pass
        return [self._numerator(p) for p in values]  # again, one p at a time, to name the first that fails

    def _numerator(self, p: float):
        try:
            fp = self.fn(p)
        except Exception as error:
            raise GeneratorError(f"generator {self.label} raises {type(error).__name__} at {p!r}: {error}") from error
        try:
            valid = bool(0.0 <= fp < math.inf)
        except Exception as error:
            raise GeneratorError(f"generator {self.label} gives no real number at {p!r}: f = {fp!r}") from error
        if not valid:
            raise GeneratorError(f"generator {self.label} is negative, infinite or NaN at {p!r}: f = {fp!r}")
        return fp


class Mixture(_Frozen, NegatorDescriptor):
    """``depth`` counts the mixtures nested here, this one included: at most
    MAX_MIX_DEPTH.  It is not a field, so it is neither shown nor compared.

    The kernel sums each value's weighted images ``w * x`` with
    ``math.fsum``.  Two components are summed in one IEEE addition instead,
    ``w * x + v * y + 0.0``: the sum of two floats is correctly rounded, as
    fsum's is, and ``+ 0.0`` turns -0.0 + -0.0 into fsum's 0.0.  When that
    list's sum is not finite, the components are mapped again and summed by
    fsum, so NaN and infinities come out, and fsum's ValueError on inf - inf
    and its OverflowError are raised, as with any other number of components.
    """

    FIELDS = ("components",)

    def __init__(self, components: Iterable[tuple[float, NegatorDescriptor]]) -> None:
        components = tuple((float(w), d) for w, d in components)
        if not components:
            raise EmptyMixture("a mixture needs at least one component")
        for weight, inner in components:
            if not (math.isfinite(weight) and 0.0 <= weight <= 1.0):
                raise WeightError(f"mixture weight {weight!r} lies outside [0, 1]")
            if not isinstance(inner, NegatorDescriptor):
                raise DescriptorError(f"mixture component {inner!r} is not a descriptor")
        depth = 1 + max((inner.depth for _, inner in components if isinstance(inner, Mixture)), default=0)
        if depth > MAX_MIX_DEPTH:
            raise DescriptorError(f"mixtures nest more than {MAX_MIX_DEPTH} deep")
        total = math.fsum(w for w, _ in components)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise WeightError(f"mixture weights sum to {total!r}, expected 1")
        self.__dict__.update(components=components, depth=depth)
        for claim, combine in (("claims_negator", all), ("claims_pd_independent", all), ("uses_length", any)):
            self.__dict__[claim] = combine(getattr(inner, claim) for _, inner in components)

    def spec_string(self) -> str:
        inner = ",".join(f"{w!r}*{d.spec_string()}" for w, d in self.components)
        return f"mix:[{inner}]"

    def images(self, values, n, context=None):
        if len(self.components) == 2:
            (w, first), (v, second) = self.components
            pairs = zip(first.images(values, n, context), second.images(values, n, context))
            out = [w * x + v * y + 0.0 for x, y in pairs]
            if math.isfinite(sum(out)):
                return out
        weighted = [map(operator.mul, repeat(w), inner.images(values, n, context)) for w, inner in self.components]
        return list(map(math.fsum, zip(*weighted)))


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
    canonical two-value context of length ``n`` and, like the linear family,
    raise :class:`ArgumentError` without ``n``.
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
    return Mixture(components)


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
    N(1) = 1 - (n - 1) N(0), and either pins alpha = n N(1), clamped into
    [0, 1] against the rounding of that conversion.
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
    return Linear(min(max(n * n_at_one, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Textual descriptor syntax
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[a-z]+")
_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


class _Parser:
    """Recursive-descent parser for the descriptor syntax.

    Parsing is exact: no whitespace skipping, no case folding.  Failures
    raise :class:`DescriptorError` carrying the offending position.  A
    ``mix`` nested deeper than MAX_MIX_DEPTH is refused at its position.
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

    def descriptor(self, depth: int = 0) -> NegatorDescriptor:
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
            if depth == MAX_MIX_DEPTH:
                self.pos -= len(name)
                self.fail(f"mixtures nest more than {MAX_MIX_DEPTH} deep")
            self.expect(":[")
            components = [self.weighted(depth + 1)]
            while self.text.startswith(",", self.pos):
                self.pos += 1
                components.append(self.weighted(depth + 1))
            self.expect("]")
            return Mixture(components)
        self.pos -= len(name)
        self.fail(f"unknown negator {name!r}")
        raise AssertionError("unreachable")

    def weighted(self, depth: int) -> tuple[float, NegatorDescriptor]:
        weight = self.number()
        self.expect("*")
        return weight, self.descriptor(depth)


def parse_descriptor(text: str, n: int | None = None) -> NegatorDescriptor:
    """Parse the textual descriptor syntax.

    ``n`` is required only by the ``linear:n1=``/``linear:n0=`` boundary
    forms, which resolve to a concrete ``Linear`` for that length.
    """
    if not isinstance(text, str):
        raise DescriptorError(f"descriptor must be a string, got {type(text).__name__}")
    return _Parser(text, n).parse()
