"""Executable diagnostics for transformation functions and negations.

Fixed points, the balance equation for pd-independent functions, boundary
ranges and linearity are checked on dense grids over [0, 1], and
pd-independence on seeded random contexts; :func:`check_negation_pair`
checks order reversal for a given pair of distributions.
Every check returns a :class:`CheckReport` listing each violation with its
location and magnitude; a report passes exactly when it has no violations.

The four grid checks (fixed point, balance identity, boundary ranges,
linearity) share one sweep of the grid, in blocks of GRID_BLOCK points; each
public check runs it with itself alone, and :func:`audit`, the one plan of
``pdneg check``, with all four, then the independence probe.  Every check
reads one block object: the points, N at each, and Yager's Y(p), N(Y(p)),
Y(N(p)), linearity's line and the min and max of N over a run, each computed
once, when first read.  A linear-family kernel is known by its alpha, so for
``yager`` Y(p) is N(p) itself, as is the line of a linear negator.  The reads
run in builtins (bisect, map, min, max, sum): the fixed-point and boundary
checks split a block at 1/n, share a run's extremes where they split alike,
and go point by point only near 1/n and through a run whose bound an image
breaks; the balance reads nothing where N(Y(p)) and Y(N(p)) are equal lists
of finite values, passes a block of finite images whose residuals' Euclidean
norm (math.dist) is within half the tolerance, and otherwise scans the
residuals point by point, listing them only when one may exceed the
tolerance.  A claim a check presumes and the descriptor lacks
is refused first; then the length, the other preconditions and one-off
evaluations, such as N(1/n), N(0) and N(1), run before the sweep.  Every
check refuses a tolerance that is not a finite number >= 0, and every
comparison against the tolerance fails closed: a NaN or infinite image is a
violation of magnitude math.inf.

The linear family's and the identity's kernels, and a mixture of those
alone, compute N(p) from p and n and read no context.  For them the fixed
point checks N(uniform) from the one value N(1/n), and the independence
probe, which reads its contexts one at a time, gets one context that draws
nothing and evaluates N in it once; :func:`audit` draws seeded ones only for
a kernel that may read them.

Both seeded samplers draw each point through one helper, _simplex_point:
unit exponentials -log(1.0 - random()) read through itertools.islice, as
random.Random.expovariate(1.0) computes them, scaled to the mass they fill
by their math.fsum; each result is bit-identical to a loop over the values.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
import weakref
from collections.abc import Iterable, Mapping
from types import MappingProxyType

from .core import (DEFAULT_TOLERANCE, Distribution, EntropyReport, _checked_distribution, _Frozen, entropy,
                   require_length, uniform_distribution)
from .errors import ArgumentError, ContextMismatch, IndependenceRequired, LengthMismatch, NegatorRequired
from .negators import (
    CONTEXT_TOLERANCE,
    YAGER,
    Identity,
    Linear,
    Mixture,
    NegatorDescriptor,
    _coerce_probability,
    _LinearFamily,
    apply_transformation,
    evaluate,
)

#: Grid resolution used by default for all sweeps over [0, 1].
DEFAULT_GRID_SIZE = 1001
#: Default tolerance of every check here and of ``pdneg check --tol``.
CHECK_TOLERANCE = 1e-12
#: Hard cap on component evaluations per iterate_negation call.
MAX_COMPONENT_EVALUATIONS = 10**6
#: Grid points per kernel call in the grid sweeps: a sweep holds one block's
#: points, images and residuals at a time, whatever the grid size.
GRID_BLOCK = 2048


class _Report(_Frozen):
    """A check's result, rendered by ``to_dict`` as its FIELDS in order: a
    nested report by its own ``to_dict``, a tuple as a list."""

    def to_dict(self) -> dict:
        return {name: _rendered(getattr(self, name)) for name in self.FIELDS}


def _rendered(value):
    if isinstance(value, _Report):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_rendered(item) for item in value]
    return value


class Violation(_Report):
    """One point at which a checked property fails.

    ``location`` is a grid probability, a 1-based component index, or a
    1-based index pair, depending on the check.  ``magnitude`` is computed,
    not given: |actual - expected|, how far ``actual`` lies from
    ``expected``; a NaN distance, as from a NaN image, is stored as math.inf.
    """

    FIELDS = ("location", "expected", "actual", "magnitude")

    def __init__(self, location: object, expected: float, actual: float) -> None:
        magnitude = abs(actual - expected)
        if magnitude != magnitude:
            magnitude = math.inf
        self.__dict__.update(location=location, expected=expected, actual=actual, magnitude=magnitude)


class CheckReport(_Report):
    """Outcome of one property check; ``passed`` is true iff there are no violations.

    ``grid_size`` is 0 for checks that do not sweep a grid.
    """

    FIELDS = ("check_name", "violations", "grid_size", "tolerance", "seed", "notes")

    def __init__(self, check_name: str, violations: Iterable[Violation], grid_size: int, tolerance: float,
                 seed: int | None = None, notes: Iterable[str] = ()) -> None:
        self.__dict__.update(check_name=check_name, violations=tuple(violations), grid_size=grid_size,
                             tolerance=tolerance, seed=seed, notes=tuple(notes))

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """The fields rendered, with ``passed`` second and ``notes`` only when there are any."""
        name, *rest = super().to_dict().items()
        report = dict([name, ("passed", self.passed), *rest])
        if not self.notes:
            del report["notes"]
        return report


class LinearityVerdict(_Report):
    """Whether a descriptor behaves as a linear negator on a grid."""

    FIELDS = ("is_linear", "alpha_estimate", "max_residual")

    def __init__(self, is_linear: bool, alpha_estimate: float | None, max_residual: float) -> None:
        self.__dict__.update(is_linear=is_linear, alpha_estimate=alpha_estimate, max_residual=max_residual)


class IterationTrace(_Frozen):
    """Distributions under repeated negation, with per-step diagnostics computed
    from the steps, not given: each one's :func:`distance_to_uniform` and :func:`entropy`."""

    FIELDS = ("steps", "distances_to_uniform", "entropies")

    def __init__(self, steps: Iterable[Distribution]) -> None:
        steps = tuple(steps)
        self.__dict__.update(steps=steps, distances_to_uniform=tuple(map(distance_to_uniform, steps)),
                             entropies=tuple(map(entropy, steps)))


def check_negation_pair(p_dist: Distribution, q_dist: Distribution, tolerance: float = CHECK_TOLERANCE) -> CheckReport:
    """Check that Q reverses the component order of P.

    Passes iff p_i <= p_j implies q_i >= q_j (within tolerance) for every
    index pair; each violating 1-based pair (i, j) is reported, in order of
    i then j.  One sweep over the components sorted by p, then q, largest
    first, keeps the running maximum of q: at each index it is the largest
    q at a p no smaller, since equal p put their largest q first.  The sweep
    collects each index whose q lies more than the tolerance below it, and
    only those indices are paired with every j.  O(n log n), plus O(n) for
    each index with a violation.
    """
    if len(p_dist) != len(q_dist):
        raise LengthMismatch(f"lengths differ: {len(p_dist)} vs {len(q_dist)}")
    _require_tolerance(tolerance)
    p, q = p_dist.values, q_dist.values
    top, failing = -math.inf, []
    for _, q_i, i in sorted(zip(p, q, range(len(p))), reverse=True):
        if q_i > top:
            top = q_i
        elif q_i < top - tolerance:
            failing.append(i)
    violations = [
        Violation((i + 1, j + 1), expected=q[j], actual=q[i])
        for i in sorted(failing) for j in range(len(p))
        if i != j and p[i] <= p[j] and q[i] < q[j] - tolerance
    ]
    return CheckReport("negation-pair", violations, 0, tolerance)


def _require_tolerance(tolerance: float) -> None:
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ArgumentError(f"tolerance must be a finite number >= 0, got {tolerance}")


def _require_grid(grid_size: int, least: int = 2) -> None:
    if grid_size < least:
        raise ArgumentError(f"grid_size must be at least {least}, got {grid_size}")


#: The refusal of each claim a check may presume.
_REFUSALS = {"claims_pd_independent": IndependenceRequired, "claims_negator": NegatorRequired}


def _refusal(descriptor: NegatorDescriptor, presumes: Iterable[str]) -> IndependenceRequired | NegatorRequired | None:
    """The refusal of the first claim in ``presumes`` that the descriptor does not make, or None."""
    missing = [_REFUSALS[claim] for claim in presumes if not getattr(descriptor, claim)]
    return missing[0](f"{descriptor.spec_string()} {missing[0].refusal}") if missing else None


class _Block:
    """One block of a sweep, which every check reads: the grid points, N at each
    (``images``), whether every image is ``finite``, and each other value a check
    reads, computed once and remembered: an image by its kernel and input list,
    an extreme of ``images`` by its function and run."""

    def __init__(self, descriptor: NegatorDescriptor, n: int, points: list[float]) -> None:
        self.descriptor, self.n, self.points, self._memo = descriptor, n, points, {}
        self.images = self.image(descriptor, points)
        self.finite = math.isfinite(sum(self.images))

    def image(self, descriptor: NegatorDescriptor, values: list[float]) -> list[float]:
        linear = isinstance(descriptor, _LinearFamily)
        key = (type(descriptor).images, descriptor.alpha) if linear else id(descriptor), id(values)
        if key not in self._memo:
            self._memo[key] = descriptor.images(values, self.n)
        return self._memo[key]

    def extreme(self, pick, start: int, stop: int) -> float:
        """``pick`` (min or max) of images[start:stop]: the fixed-point and
        boundary-range reads share it where they split the block alike."""
        key = pick, start, stop
        if key not in self._memo:
            self._memo[key] = pick(self.images[start:stop])
        return self._memo[key]

    def balance(self, tolerance: float) -> list[float] | None:
        """The residual |N(Y(p)) - Y(N(p))| at each point, or None when none
        exceeds the tolerance: the two are one list (``yager``) or equal lists
        (``uniform``) of finite values, or else the images are finite and the
        residuals' Euclidean norm, math.dist, is within half the tolerance.
        Only when the norm cannot settle the block is the largest residual
        found point by point, without a list."""
        crossed, back = self.image(self.descriptor, self.image(YAGER, self.points)), self.image(YAGER, self.images)
        if crossed == back and math.isfinite(sum(back)):
            return None
        # Y maps a finite image to a finite value, so back is finite with the images.  The norm
        # is at least the largest residual, half the tolerance absorbs its last-bit rounding, and
        # a NaN or infinite residual makes it NaN or infinite.
        if self.finite and math.dist(crossed, back) <= tolerance / 2:
            return None
        # max skips a NaN that is not its first argument, and a NaN makes the sum of crossed NaN.
        if self.finite and math.isfinite(sum(crossed)) and max(map(abs, map(operator.sub, crossed, back))) <= tolerance:
            return None
        return list(map(abs, map(operator.sub, crossed, back)))


class _GridCheck:
    """One grid check, in the three stages of the sweep that all grid checks share.

    ``presumes`` names the claims the check is defined for, in the order
    :func:`_refusal` refuses them.  For a descriptor that makes them all, a
    subclass's constructor runs the check's other preconditions and its one-off
    evaluations, then this constructor, which holds the grid size, the
    tolerance and the violations found so far.  ``read(block)`` takes each
    block of the sweep in order; a check whose ``sweeps`` is false reads none.
    ``result()`` returns what the check's public function returns, by default
    a report of its ``violations``.
    """

    name: str
    presumes: tuple[str, ...] = ()
    sweeps = True
    notes: list[str] | tuple[str, ...] = ()

    def __init__(self, grid_size: int, tolerance: float) -> None:
        self.grid_size, self.tolerance = grid_size, tolerance
        self.violations: list[Violation] = []

    def result(self):
        return CheckReport(self.name, self.violations, self.grid_size, self.tolerance, notes=self.notes)


def _sweep(descriptor: NegatorDescriptor, n: int, grid_size: int, checks: list[_GridCheck]) -> None:
    """Pass every point p = k/(grid_size - 1) of the grid over [0, 1], in order,
    to each check that sweeps, as one :class:`_Block` of at most GRID_BLOCK
    points at a time.  Every kernel without a context maps value by value, so
    no result depends on the block size."""
    readers = [check for check in checks if check.sweeps]
    if not readers:
        return
    last = grid_size - 1
    for start in range(0, grid_size, GRID_BLOCK):
        block = _Block(descriptor, n, [k / last for k in range(start, min(start + GRID_BLOCK, grid_size))])
        for check in readers:
            check.read(block)
        del block  # so that no two blocks' images are held at once


def _alone(check_type: type[_GridCheck], descriptor: NegatorDescriptor, n: int, grid_size: int, tolerance: float):
    _require_tolerance(tolerance)
    if refusal := _refusal(descriptor, check_type.presumes):
        raise refusal
    require_length(n)
    check = check_type(descriptor, n, grid_size, tolerance)
    _sweep(descriptor, n, grid_size, [check])
    return check.result()


class _FixedPoint(_GridCheck):
    """A kernel that reads no context maps every component of the uniform
    distribution to one value v = N(1/n).  n copies of v pass _check_simplex
    exactly when v lies in [-tol, 1 + tol] and |n v - 1| <= tol (tol is
    DEFAULT_TOLERANCE), since n * v rounds as the fsum of n copies does and a
    NaN fails both; so v is checked once, and each component is a violation
    only if v is one.  A v that fails, and any kernel that reads its context,
    take apply_transformation's path, which raises InternalConsistencyError."""

    name = "fixed-point"

    def __init__(self, descriptor, n, grid_size, tolerance):
        super().__init__(grid_size, tolerance)
        self.u = u = 1.0 / n
        slack = DEFAULT_TOLERANCE
        at_u = None if _reads_context(descriptor) else descriptor.images((u,), n)[0]
        if at_u is not None and -slack <= at_u <= 1.0 + slack and abs(n * at_u - 1.0) <= slack:
            image = itertools.repeat(at_u, n if abs(at_u - u) > tolerance else 0)
        else:
            image = apply_transformation(descriptor, uniform_distribution(n)).values
        self.violations.extend(Violation(index, expected=u, actual=value)
                               for index, value in enumerate(image, 1) if abs(value - u) > tolerance)
        self.notes = []
        self.sweeps = descriptor.claims_pd_independent and descriptor.claims_negator
        if descriptor.claims_pd_independent:
            if at_u is None:
                at_u = evaluate(descriptor, u, n=n)
            if not abs(at_u - u) <= tolerance:
                self.violations.append(Violation(u, expected=u, actual=at_u))
            if descriptor.claims_negator:
                _require_grid(grid_size)
            else:
                self.notes.append(f"uniqueness sweep skipped: descriptor {NegatorRequired.refusal}")
        else:
            self.notes.append(f"pointwise checks skipped: descriptor {IndependenceRequired.refusal}")

    def read(self, block):
        points, images, tolerance, size = block.points, block.images, self.tolerance, len(block.points)
        below, above = bisect.bisect_left(points, self.u - tolerance), bisect.bisect_right(points, self.u + tolerance)
        # N(p) - p must exceed the tolerance below 1/n - tol and lie under -tol above 1/n + tol.  On a
        # run it is at least min(N) - max(p) and at most max(N) - min(p), so a run within that passes.
        if below and not (block.finite and tolerance < block.extreme(min, 0, below) - points[below - 1]):
            self.scan(points[:below], images[:below])
        self.scan(points[below:above], images[below:above])
        if above < size and not (block.finite and block.extreme(max, above, size) - points[above] < -tolerance):
            self.scan(points[above:], images[above:])

    def scan(self, points, images):
        u, tolerance, violations, inf = self.u, self.tolerance, self.violations, math.inf
        below, above = u - tolerance, u + tolerance
        for p, value in zip(points, images):
            gap = abs(value - p)
            if gap <= tolerance:
                if abs(p - u) > tolerance:
                    violations.append(Violation(p, expected=u, actual=p))
            # A non-finite image, or one on the wrong side of p away from 1/n.
            elif not gap < inf or (value < p if p < below else value > p and p > above):
                violations.append(Violation(p, expected=p, actual=value))


def fixed_point_check(descriptor: NegatorDescriptor, n: int, grid_size: int = DEFAULT_GRID_SIZE,
                      tolerance: float = CHECK_TOLERANCE) -> CheckReport:
    """Verify the fixed-point behaviour of a descriptor at length n.

    (a) the uniform distribution maps to itself; (b) for a pd-independent
    descriptor, 1/n is a fixed point of the function; (c) for a
    pd-independent negator, a grid sweep confirms 1/n is the only fixed
    point: any grid p with N(p) = p must lie within tolerance of 1/n, and
    elsewhere N(p) - p has the correct sign (positive below 1/n, negative
    above).
    """
    return _alone(_FixedPoint, descriptor, n, grid_size, tolerance)


def functional_equation_residual(descriptor: NegatorDescriptor, n: int, p: float) -> float:
    """Residual of the balance identity N(Y(p)) = Y(N(p)), Y Yager's negator.

    For any pd-independent transformation function the two-value
    distribution (p, q, ..., q) with q = Y(p) = (1 - p)/(n - 1) forces
    N(q) = (1 - N(p))/(n - 1), i.e. N commutes with Y at length n; the
    returned value is |N(Y(p)) - Y(N(p))|, zero in exact arithmetic.
    """
    ps = [_coerce_probability(p)]
    if refusal := _refusal(descriptor, _FunctionalEquation.presumes):
        raise refusal
    require_length(n)
    residuals = _Block(descriptor, n, ps).balance(0.0)
    return 0.0 if residuals is None else residuals[0]


class _FunctionalEquation(_GridCheck):
    name = "functional-equation"
    presumes = ("claims_pd_independent",)

    def __init__(self, descriptor, n, grid_size, tolerance):
        _require_grid(grid_size)
        super().__init__(grid_size, tolerance)

    def read(self, block):
        tolerance = self.tolerance
        residuals = block.balance(tolerance)
        if residuals is not None:
            self.violations.extend(Violation(p, expected=0.0, actual=residual)
                                   for p, residual in zip(block.points, residuals) if not residual <= tolerance)


def functional_equation_check(descriptor: NegatorDescriptor, n: int, grid_size: int = DEFAULT_GRID_SIZE,
                              tolerance: float = CHECK_TOLERANCE) -> CheckReport:
    """Sweep the balance-identity residual over a grid."""
    return _alone(_FunctionalEquation, descriptor, n, grid_size, tolerance)


def _interval_violation(location, value, low, high, tolerance):
    """The violation of a value outside [low - tolerance, high + tolerance]; a NaN is held against high."""
    return Violation(location, expected=low if value < low - tolerance else high, actual=value)


class _BoundaryRange(_GridCheck):
    name = "boundary-range"
    presumes = ("claims_pd_independent", "claims_negator")

    def __init__(self, descriptor, n, grid_size, tolerance):
        _require_grid(grid_size)
        super().__init__(grid_size, tolerance)
        self.u, self.high = 1.0 / n, 1.0 / (n - 1)
        at_zero, at_one = descriptor.images([0.0, 1.0], n)
        tied = (1.0 - at_one) / (n - 1)
        if not abs(at_zero - tied) <= tolerance:
            self.violations.append(Violation(0.0, expected=tied, actual=at_zero))

    def read(self, block):
        points, images, u, tolerance, size = block.points, block.images, self.u, self.tolerance, len(block.points)
        below, above = bisect.bisect_left(points, u), bisect.bisect_right(points, u)
        # N(p) must lie in [u, high] for p < u and in [0, u] for p > u, each widened by the tolerance.
        if below and not (block.finite and u - tolerance <= block.extreme(min, 0, below)
                          and block.extreme(max, 0, below) <= self.high + tolerance):
            self.scan(points[:below], images[:below])
        self.scan(points[below:above], images[below:above])
        if above < size and not (block.finite and 0.0 - tolerance <= block.extreme(min, above, size)
                                 and block.extreme(max, above, size) <= u + tolerance):
            self.scan(points[above:], images[above:])

    def scan(self, points, images):
        u, high, tolerance, violations = self.u, self.high, self.tolerance, self.violations
        low_above, high_above, low_below, high_below = 0.0 - tolerance, u + tolerance, u - tolerance, high + tolerance
        for p, value in zip(points, images):
            if p >= u and not low_above <= value <= high_above:
                violations.append(_interval_violation(p, value, 0.0, u, tolerance))
            if p <= u and not low_below <= value <= high_below:
                violations.append(_interval_violation(p, value, u, high, tolerance))


def boundary_range_check(descriptor: NegatorDescriptor, n: int, grid_size: int = DEFAULT_GRID_SIZE,
                         tolerance: float = CHECK_TOLERANCE) -> CheckReport:
    """Check the admissible value ranges of a pd-independent negator.

    On a grid, N(p) must stay in [0, 1/n] for p >= 1/n and in
    [1/n, 1/(n-1)] for p <= 1/n, and N(0) and N(1) must be tied by
    N(0) = (1 - N(1))/(n - 1).  The grid's ends are exactly 0 and 1, so
    N(1) in [0, 1/n] and N(0) in [1/n, 1/(n-1)] are checked once each, as
    the sweep's first and last points.
    """
    return _alone(_BoundaryRange, descriptor, n, grid_size, tolerance)


class _Linearity(_GridCheck):
    name = "linearity"
    presumes = ("claims_pd_independent", "claims_negator")

    def __init__(self, descriptor, n, grid_size, tolerance):
        _require_grid(grid_size, 3)
        super().__init__(grid_size, tolerance)
        raw = n * descriptor.images([1.0], n)[0]
        alpha = min(max(raw, 0.0), 1.0)
        # An n N(1) that leaves [0, 1] by more than the tolerance, or is NaN, is no linear negator's alpha.
        self.sweeps = abs(alpha - raw) <= tolerance
        self.line = Linear(alpha) if self.sweeps else None
        self.max_residual = 0.0 if self.sweeps else math.inf

    def read(self, block):
        line = block.image(self.line, block.points)
        if not block.finite:  # a NaN or infinite image fits no line
            self.max_residual = math.inf
        elif line is not block.images:  # else N is the line's own kernel, and each residual x - x is 0
            self.max_residual = max(self.max_residual, max(map(abs, map(operator.sub, block.images, line))))

    def result(self):
        return LinearityVerdict(
            is_linear=self.max_residual <= self.tolerance,
            alpha_estimate=None if self.line is None else self.line.alpha,
            max_residual=self.max_residual,
        )


def linearity_test(descriptor: NegatorDescriptor, n: int, grid_size: int = DEFAULT_GRID_SIZE,
                   tolerance: float = CHECK_TOLERANCE) -> LinearityVerdict:
    """Decide whether a pd-independent negator is linear at length n.

    The candidate line is pinned by the points (1/n, 1/n) and (1, N(1)),
    giving alpha = n N(1); the verdict reports the worst grid residual
    against alpha/n + (1 - alpha)(1 - p)/(n - 1).
    """
    return _alone(_Linearity, descriptor, n, grid_size, tolerance)


#: The grid checks, in the order audit runs and reports them.
_GRID_CHECKS = (_FixedPoint, _FunctionalEquation, _BoundaryRange, _Linearity)
#: The value audit's independence probe evaluates N at, and how many seeded contexts hold it.
PROBE_VALUE = 0.5
PROBE_CONTEXTS = 8


class Audit(_Frozen):
    """Each check's result by name, in the order :func:`audit` ran them: a
    CheckReport, the LinearityVerdict, or the check's IndependenceRequired or
    NegatorRequired.  ``passed`` counts the CheckReports only."""

    FIELDS = ("results",)

    def __init__(self, results: Mapping[str, CheckReport | LinearityVerdict | IndependenceRequired | NegatorRequired]):
        self.__dict__["results"] = results

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results.values() if isinstance(result, CheckReport))


def audit(descriptor: NegatorDescriptor, n: int, grid_size: int = DEFAULT_GRID_SIZE,
          tolerance: float = CHECK_TOLERANCE, seed: int = 0) -> Audit:
    """The checks ``pdneg check`` runs, and its verdict.

    The grid checks "fixed-point", "functional-equation", "boundary-range" and
    "linearity" run their preconditions and one-off evaluations in that order,
    then share one sweep; a check presuming a claim the descriptor lacks has
    that refusal as its result, and any other error is raised.  For a kernel
    that reads no context, "fixed-point" maps no length-n distribution: it
    checks N(uniform) from N(1/n) alone, as :class:`_FixedPoint` says.  The
    "independence-probe" then evaluates N at PROBE_VALUE in PROBE_CONTEXTS
    length-n contexts, read one at a time: for a kernel that may read them,
    those of :func:`contexts_containing`, drawn one by one; for any other (the
    linear family's, the identity's, and a mixture's of those alone), one
    context (PROBE_VALUE, 1 - PROBE_VALUE, 0, ..., 0), on the simplex as
    built and so unchecked, PROBE_CONTEXTS times: it draws nothing, N is
    evaluated in it once, and it gives the drawn ones' report.  That context
    is then the one length-n tuple audit holds.
    """
    _require_tolerance(tolerance)
    require_length(n)
    started = {check.name: _refusal(descriptor, check.presumes) or check(descriptor, n, grid_size, tolerance)
               for check in _GRID_CHECKS}
    _sweep(descriptor, n, grid_size, [check for check in started.values() if isinstance(check, _GridCheck)])
    results = {name: check.result() if isinstance(check, _GridCheck) else check for name, check in started.items()}
    if _reads_context(descriptor):
        contexts = _drawn_contexts(PROBE_VALUE, n, PROBE_CONTEXTS, seed)
    else:  # built with no second length-n tuple
        blind = tuple(itertools.chain((PROBE_VALUE, 1 - PROBE_VALUE), itertools.repeat(0.0, n - 2)))
        contexts = (_checked_distribution(blind),) * PROBE_CONTEXTS
    results["independence-probe"] = independence_probe(descriptor, PROBE_VALUE, contexts, tolerance, seed=seed)
    return Audit(MappingProxyType(results))


def _reads_context(descriptor: NegatorDescriptor) -> bool:
    """Whether the descriptor's kernel may read the context it is given: not
    the linear family's or the identity's, nor a mixture's of those alone."""
    kernel = type(descriptor).images
    if kernel is Mixture.images:
        return any(_reads_context(inner) for _, inner in descriptor.components)
    return kernel is not _LinearFamily.images and kernel is not Identity.images


def independence_probe(descriptor: NegatorDescriptor, p: float, contexts: Iterable[Distribution],
                       tolerance: float = CHECK_TOLERANCE, *, seed: int | None = None) -> CheckReport:
    """Evaluate a descriptor at the same value inside several distributions.

    Passes iff all evaluations agree within tolerance; disagreeing context
    pairs are reported with their 1-based indices.  Descriptors whose
    formula takes the length n as an input (uniform, Yager, linear and
    mixtures of them) are only compared within equal-length groups, since
    their value legitimately changes with n; the restriction is recorded in
    the report notes.  O(count·n): each context in turn is searched for p, N
    is evaluated in it, and it is dropped, so a stream of contexts is held one
    at a time, and an error evaluating N in one context is raised before a
    :class:`ContextMismatch` in a later one.  A run of one context object is
    searched and evaluated in once; a weak reference to the last context
    tells whether the next is the same, without holding it.
    """
    _require_tolerance(tolerance)
    values, groups, last = [], {}, None
    for index, context in enumerate(contexts):
        if last is None or last() is not context:
            if p not in context.values and min(abs(c - p) for c in context.values) > CONTEXT_TOLERANCE:
                raise ContextMismatch(f"context #{index + 1} has no component equal to {p!r}")
            value, last = evaluate(descriptor, p, context=context), weakref.ref(context)
        values.append(value)
        groups.setdefault(len(context) if descriptor.uses_length else None, []).append(index)
        del context  # so that the next context is not drawn while this one is held
    notes = []
    if descriptor.uses_length:
        notes.append("contexts compared within equal lengths only: evaluation takes n as an input")
    violations = [Violation((i + 1, j + 1), expected=values[i], actual=values[j])
                  for ids in groups.values() for i, j in itertools.combinations(ids, 2)
                  if not abs(values[i] - values[j]) <= tolerance]
    return CheckReport("independence-probe", violations, 0, tolerance, seed=seed, notes=notes)


def entropy_delta(descriptor: NegatorDescriptor, dist: Distribution) -> EntropyReport:
    """Entropy of a distribution and of its image under a descriptor; the
    report computes ``delta``, the image's entropy less the input's."""
    return EntropyReport(entropy(dist), entropy(apply_transformation(descriptor, dist)))


def distance_to_uniform(dist: Distribution) -> float:
    """Max-norm distance from the uniform distribution of the same length.

    The farthest component is the greatest or the least, since the rounded
    fl(v - u) is monotone in v and fl(u - v) = -fl(v - u)."""
    values, u = dist.values, 1.0 / len(dist)
    return max(max(values) - u, u - min(values))


def require_iteration(descriptor: NegatorDescriptor, n: int, steps: int) -> None:
    """Raise what :func:`iterate_negation` refuses for a length-n distribution:
    a descriptor that does not claim to be a negator, steps < 0, or more than
    MAX_COMPONENT_EVALUATIONS component evaluations."""
    if not descriptor.claims_negator:
        raise NegatorRequired(f"{descriptor.spec_string()} {NegatorRequired.refusal}")
    if steps < 0:
        raise ArgumentError(f"steps must be >= 0, got {steps}")
    if steps * n > MAX_COMPONENT_EVALUATIONS:
        raise ArgumentError(
            f"{steps} steps over {n} components exceeds the "
            f"{MAX_COMPONENT_EVALUATIONS} component-evaluation cap"
        )


def iterate_negation(descriptor: NegatorDescriptor, dist: Distribution, steps: int) -> IterationTrace:
    """Trace of repeated negation, starting from the input distribution; the
    trace computes each step's distance to uniform and entropy."""
    require_iteration(descriptor, len(dist), steps)
    trace = [dist]
    for _ in range(steps):
        trace.append(apply_transformation(descriptor, trace[-1]))
    return IterationTrace(trace)


def sample_distributions(n: int, count: int, seed: int) -> tuple[Distribution, ...]:
    """Draw distributions uniformly from the simplex (seeded, reproducible).

    Normalises independent unit-exponential draws, the standard way to
    sample the flat distribution on the simplex.
    """
    require_length(n)
    rng = random.Random(seed)
    return tuple(Distribution(_simplex_point(rng, n, 1.0)) for _ in range(count))


def contexts_containing(p: float, n: int, count: int, seed: int) -> tuple[Distribution, ...]:
    """Random length-n distributions whose first component is exactly p.

    Used to probe pd-independence: the remaining mass 1 - p is spread over
    n - 1 seeded random proportions.
    """
    require_length(n)
    if not 0.0 <= p < 1.0:
        raise ArgumentError(f"need 0 <= p < 1 to fill the remaining mass, got {p!r}")
    return tuple(_drawn_contexts(p, n, count, seed))


def _drawn_contexts(p: float, n: int, count: int, seed: int) -> Iterable[Distribution]:
    """The contexts of :func:`contexts_containing`, drawn one at a time."""
    rng = random.Random(seed)
    return (Distribution([p] + _simplex_point(rng, n - 1, 1.0 - p)) for _ in range(count))


def _simplex_point(rng: random.Random, size: int, mass: float) -> list[float]:
    """``size`` draws bit-identical to ``rng.expovariate(1.0)``, each scaled to ``mass * d / total``."""
    draws = [-math.log(1.0 - r) for r in itertools.islice(iter(rng.random, None), size)]
    total = math.fsum(draws)
    return [mass * d / total for d in draws]
