"""Executable diagnostics for transformation functions and negations.

Universally quantified properties (order reversal, fixed points, the
balance equation for pd-independent functions, boundary ranges, linearity)
are checked on dense grids over [0, 1] and on randomized distributions.
Every check returns a :class:`CheckReport` listing each violation with its
location and magnitude; a report passes exactly when it has no violations.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

from .core import Distribution, EntropyReport, entropy, require_length, uniform_distribution
from .errors import ArgumentError, ContextMismatch, IndependenceRequired, LengthMismatch, NegatorRequired
from .negators import (
    CONTEXT_TOLERANCE,
    YAGER,
    Linear,
    NegatorDescriptor,
    _coerce_probability,
    apply_transformation,
    evaluate,
)

#: Grid resolution used by default for all sweeps over [0, 1].
DEFAULT_GRID_SIZE = 1001
#: Default tolerance of every check here and of ``pdneg check --tol``.
CHECK_TOLERANCE = 1e-12
#: Hard cap on component evaluations per iterate_negation call.
MAX_COMPONENT_EVALUATIONS = 10**6
#: Grid points per kernel call in the grid sweeps: a sweep holds one block of
#: points and images at a time, whatever the grid size.
GRID_BLOCK = 4096


@dataclass(frozen=True)
class Violation:
    """One point at which a checked property fails.

    ``location`` is a grid probability, a 1-based component index, or a
    1-based index pair, depending on the check.
    """

    location: object
    expected: float
    actual: float
    magnitude: float

    def to_dict(self) -> dict:
        location = list(self.location) if isinstance(self.location, tuple) else self.location
        return {
            "location": location,
            "expected": self.expected,
            "actual": self.actual,
            "magnitude": self.magnitude,
        }


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one property check; ``passed`` is true iff there are no violations.

    ``grid_size`` is 0 for checks that do not sweep a grid.
    """

    check_name: str
    violations: tuple[Violation, ...]
    grid_size: int
    tolerance: float
    seed: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "violations", tuple(self.violations))
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        report = {
            "check_name": self.check_name,
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "grid_size": self.grid_size,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }
        if self.notes:
            report["notes"] = list(self.notes)
        return report


@dataclass(frozen=True)
class LinearityVerdict:
    """Whether a descriptor behaves as a linear negator on a grid."""

    is_linear: bool
    alpha_estimate: float | None
    max_residual: float

    def to_dict(self) -> dict:
        return {
            "is_linear": self.is_linear,
            "alpha_estimate": self.alpha_estimate,
            "max_residual": self.max_residual,
        }


@dataclass(frozen=True)
class IterationTrace:
    """Distributions under repeated negation, with per-step diagnostics."""

    steps: tuple[Distribution, ...]
    distances_to_uniform: tuple[float, ...]
    entropies: tuple[float, ...]


def _sweep(grid_size: int, *kernels: Callable[[list[float]], list[float]]) -> Iterator[tuple[float, ...]]:
    """Each point p = k/(grid_size - 1) of the grid over [0, 1], in order, with
    its value under each kernel.  The kernels map a block of at most
    GRID_BLOCK points at a time; every kernel without a context maps value by
    value, so the values do not depend on the block size.  The grid size is
    checked at the call, the kernels run as the sweep is read."""
    if grid_size < 2:
        raise ArgumentError(f"grid_size must be at least 2, got {grid_size}")
    last = grid_size - 1

    def block(start: int) -> Iterator[tuple[float, ...]]:
        ps = [k / last for k in range(start, min(start + GRID_BLOCK, grid_size))]
        return zip(ps, *(kernel(ps) for kernel in kernels))

    return itertools.chain.from_iterable(map(block, range(0, grid_size, GRID_BLOCK)))


def _reverses_order(p: tuple[float, ...], q: tuple[float, ...], tolerance: float) -> bool:
    # Sweep the components from the largest p down, in groups of equal p,
    # keeping the largest q seen at a strictly larger p.  A group violates
    # the order iff its smallest q lies more than the tolerance below that
    # running maximum or below the largest q of the group itself (equal p
    # constrain both ways).  Needs tolerance >= 0, so that i = j never counts.
    higher = -math.inf
    order = sorted(range(len(p)), key=p.__getitem__, reverse=True)
    for _, group in itertools.groupby(order, key=p.__getitem__):
        qs = [q[i] for i in group]
        top = max(higher, max(qs))
        if min(qs) < top - tolerance:
            return False
        higher = top
    return True


def check_negation_pair(p_dist: Distribution, q_dist: Distribution, tolerance: float = CHECK_TOLERANCE) -> CheckReport:
    """Check that Q reverses the component order of P.

    Passes iff p_i <= p_j implies q_i >= q_j (within tolerance) for every
    index pair; each violating 1-based pair (i, j) is reported, in order of
    i then j.  O(n log n) when the pair passes; the violations of a failing
    pair are enumerated over all n^2 index pairs.
    """
    if len(p_dist) != len(q_dist):
        raise LengthMismatch(f"lengths differ: {len(p_dist)} vs {len(q_dist)}")
    if tolerance >= 0.0 and _reverses_order(p_dist.values, q_dist.values, tolerance):
        return CheckReport("negation-pair", (), 0, tolerance)
    violations = []
    n = len(p_dist)
    for i in range(n):
        for j in range(n):
            if i != j and p_dist[i] <= p_dist[j] and q_dist[i] < q_dist[j] - tolerance:
                violations.append(
                    Violation((i + 1, j + 1), expected=q_dist[j], actual=q_dist[i],
                              magnitude=q_dist[j] - q_dist[i])
                )
    return CheckReport("negation-pair", violations, 0, tolerance)


def fixed_point_check(
    descriptor: NegatorDescriptor,
    n: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    tolerance: float = CHECK_TOLERANCE,
) -> CheckReport:
    """Verify the fixed-point behaviour of a descriptor at length n.

    (a) the uniform distribution maps to itself; (b) for a pd-independent
    descriptor, 1/n is a fixed point of the function; (c) for a
    pd-independent negator, a grid sweep confirms 1/n is the only fixed
    point: any grid p with N(p) = p must lie within tolerance of 1/n, and
    elsewhere N(p) - p has the correct sign (positive below 1/n, negative
    above).
    """
    image = apply_transformation(descriptor, uniform_distribution(n))
    violations = []
    notes = []
    u = 1.0 / n
    for index, value in enumerate(image.values):
        if abs(value - u) > tolerance:
            violations.append(Violation(index + 1, expected=u, actual=value, magnitude=abs(value - u)))
    if descriptor.claims_pd_independent:
        at_u = evaluate(descriptor, u, n=n)
        if abs(at_u - u) > tolerance:
            violations.append(Violation(u, expected=u, actual=at_u, magnitude=abs(at_u - u)))
        if descriptor.claims_negator:
            for p, value in _sweep(grid_size, partial(descriptor.images, n=n)):
                if abs(value - p) <= tolerance:
                    if abs(p - u) > tolerance:
                        violations.append(Violation(p, expected=u, actual=p, magnitude=abs(p - u)))
                elif p < u - tolerance and value < p:
                    violations.append(Violation(p, expected=p, actual=value, magnitude=p - value))
                elif p > u + tolerance and value > p:
                    violations.append(Violation(p, expected=p, actual=value, magnitude=value - p))
        else:
            notes.append(f"uniqueness sweep skipped: descriptor {NegatorRequired.refusal}")
    else:
        notes.append(f"pointwise checks skipped: descriptor {IndependenceRequired.refusal}")
    return CheckReport("fixed-point", violations, grid_size, tolerance, notes=notes)


def _require_claims(descriptor: NegatorDescriptor, n: int, *, negator: bool = False) -> None:
    if not descriptor.claims_pd_independent:
        raise IndependenceRequired(f"{descriptor.spec_string()} {IndependenceRequired.refusal}")
    if negator and not descriptor.claims_negator:
        raise NegatorRequired(f"{descriptor.spec_string()} {NegatorRequired.refusal}")
    require_length(n)


def _balance_residuals(descriptor: NegatorDescriptor, n: int, ps: list[float]) -> list[float]:
    _require_claims(descriptor, n)
    lhs = descriptor.images(YAGER.images(ps, n), n)
    return [abs(a - b) for a, b in zip(lhs, YAGER.images(descriptor.images(ps, n), n))]


def functional_equation_residual(descriptor: NegatorDescriptor, n: int, p: float) -> float:
    """Residual of the balance identity N(Y(p)) = Y(N(p)), Y Yager's negator.

    For any pd-independent transformation function the two-value
    distribution (p, q, ..., q) with q = Y(p) = (1 - p)/(n - 1) forces
    N(q) = (1 - N(p))/(n - 1), i.e. N commutes with Y at length n; the
    returned value is |N(Y(p)) - Y(N(p))|, zero in exact arithmetic.
    """
    return _balance_residuals(descriptor, n, [_coerce_probability(p)])[0]


def functional_equation_check(
    descriptor: NegatorDescriptor,
    n: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    tolerance: float = CHECK_TOLERANCE,
) -> CheckReport:
    """Sweep the balance-identity residual over a grid."""
    violations = []
    for p, residual in _sweep(grid_size, partial(_balance_residuals, descriptor, n)):
        if residual > tolerance:
            violations.append(Violation(p, expected=0.0, actual=residual, magnitude=residual))
    return CheckReport("functional-equation", violations, grid_size, tolerance)


def _interval_violation(location, value, low, high, tolerance):
    if value < low - tolerance:
        return Violation(location, expected=low, actual=value, magnitude=low - value)
    if value > high + tolerance:
        return Violation(location, expected=high, actual=value, magnitude=value - high)
    return None


def boundary_range_check(
    descriptor: NegatorDescriptor,
    n: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    tolerance: float = CHECK_TOLERANCE,
) -> CheckReport:
    """Check the admissible value ranges of a pd-independent negator.

    On a grid, N(p) must stay in [0, 1/n] for p >= 1/n and in
    [1/n, 1/(n-1)] for p <= 1/n, and N(0) and N(1) must be tied by
    N(0) = (1 - N(1))/(n - 1).  The grid's ends are exactly 0 and 1, so
    N(1) in [0, 1/n] and N(0) in [1/n, 1/(n-1)] are checked once each, as
    the sweep's first and last points.
    """
    _require_claims(descriptor, n, negator=True)
    u = 1.0 / n
    high = 1.0 / (n - 1)
    violations = []
    sweep = _sweep(grid_size, partial(descriptor.images, n=n))  # checks the grid size before N(0), N(1)
    at_zero, at_one = descriptor.images([0.0, 1.0], n)
    tied = (1.0 - at_one) / (n - 1)
    if abs(at_zero - tied) > tolerance:
        violations.append(Violation(0.0, expected=tied, actual=at_zero, magnitude=abs(at_zero - tied)))
    for p, value in sweep:
        if p >= u:
            candidate = _interval_violation(p, value, 0.0, u, tolerance)
            if candidate is not None:
                violations.append(candidate)
        if p <= u:
            candidate = _interval_violation(p, value, u, high, tolerance)
            if candidate is not None:
                violations.append(candidate)
    return CheckReport("boundary-range", violations, grid_size, tolerance)


def linearity_test(
    descriptor: NegatorDescriptor,
    n: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    tolerance: float = CHECK_TOLERANCE,
) -> LinearityVerdict:
    """Decide whether a pd-independent negator is linear at length n.

    The candidate line is pinned by the points (1/n, 1/n) and (1, N(1)),
    giving alpha = n N(1); the verdict reports the worst grid residual
    against alpha/n + (1 - alpha)(1 - p)/(n - 1).
    """
    _require_claims(descriptor, n, negator=True)
    if grid_size < 3:
        raise ArgumentError(f"grid_size must be at least 3, got {grid_size}")
    raw = n * descriptor.images([1.0], n)[0]
    alpha = min(max(raw, 0.0), 1.0)
    if abs(alpha - raw) > tolerance:
        return LinearityVerdict(is_linear=False, alpha_estimate=None, max_residual=math.inf)
    max_residual = 0.0
    for _, value, on_line in _sweep(grid_size, partial(descriptor.images, n=n), partial(Linear(alpha).images, n=n)):
        max_residual = max(max_residual, abs(value - on_line))
    return LinearityVerdict(
        is_linear=max_residual <= tolerance,
        alpha_estimate=alpha,
        max_residual=max_residual,
    )


def independence_probe(
    descriptor: NegatorDescriptor,
    p: float,
    contexts: Iterable[Distribution],
    tolerance: float = CHECK_TOLERANCE,
    *,
    seed: int | None = None,
) -> CheckReport:
    """Evaluate a descriptor at the same value inside several distributions.

    Passes iff all evaluations agree within tolerance; disagreeing context
    pairs are reported with their 1-based indices.  Descriptors whose
    formula takes the length n as an input (uniform, Yager, linear and
    mixtures of them) are only compared within equal-length groups, since
    their value legitimately changes with n; the restriction is recorded in
    the report notes.
    """
    contexts = tuple(contexts)
    groups: dict[int | None, list[int]] = {}
    for index, context in enumerate(contexts):
        if min(abs(c - p) for c in context.values) > CONTEXT_TOLERANCE:
            raise ContextMismatch(f"context #{index + 1} has no component equal to {p!r}")
        groups.setdefault(len(context) if descriptor.uses_length else None, []).append(index)
    notes = []
    if descriptor.uses_length:
        notes.append("contexts compared within equal lengths only: evaluation takes n as an input")
    results = [evaluate(descriptor, p, context=context) for context in contexts]
    violations = []
    for group in groups.values():
        for i, j in itertools.combinations(group, 2):
            gap = abs(results[i] - results[j])
            if gap > tolerance:
                violations.append(Violation((i + 1, j + 1), expected=results[i], actual=results[j], magnitude=gap))
    return CheckReport("independence-probe", violations, 0, tolerance, seed=seed, notes=notes)


def entropy_delta(descriptor: NegatorDescriptor, dist: Distribution) -> EntropyReport:
    """Entropy of a distribution and of its image under a descriptor."""
    before = entropy(dist)
    after = entropy(apply_transformation(descriptor, dist))
    return EntropyReport(input_entropy=before, output_entropy=after, delta=after - before)


def distance_to_uniform(dist: Distribution) -> float:
    """Max-norm distance from the uniform distribution of the same length."""
    u = 1.0 / len(dist)
    return max(abs(value - u) for value in dist.values)


def iterate_negation(descriptor: NegatorDescriptor, dist: Distribution, steps: int) -> IterationTrace:
    """Trace of repeated negation, starting from the input distribution."""
    if not descriptor.claims_negator:
        raise NegatorRequired(f"{descriptor.spec_string()} {NegatorRequired.refusal}")
    if steps < 0:
        raise ArgumentError(f"steps must be >= 0, got {steps}")
    if steps * len(dist) > MAX_COMPONENT_EVALUATIONS:
        raise ArgumentError(
            f"{steps} steps over {len(dist)} components exceeds the "
            f"{MAX_COMPONENT_EVALUATIONS} component-evaluation cap"
        )
    trace = [dist]
    for _ in range(steps):
        trace.append(apply_transformation(descriptor, trace[-1]))
    return IterationTrace(
        steps=tuple(trace),
        distances_to_uniform=tuple(distance_to_uniform(d) for d in trace),
        entropies=tuple(entropy(d) for d in trace),
    )


def sample_distributions(n: int, count: int, seed: int) -> tuple[Distribution, ...]:
    """Draw distributions uniformly from the simplex (seeded, reproducible).

    Normalises independent unit-exponential draws, the standard way to
    sample the flat distribution on the simplex.
    """
    require_length(n)
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        draws = [rng.expovariate(1.0) for _ in range(n)]
        total = math.fsum(draws)
        samples.append(Distribution(tuple(d / total for d in draws)))
    return tuple(samples)


def contexts_containing(p: float, n: int, count: int, seed: int) -> tuple[Distribution, ...]:
    """Random length-n distributions whose first component is exactly p.

    Used to probe pd-independence: the remaining mass 1 - p is spread over
    n - 1 seeded random proportions.
    """
    require_length(n)
    if not 0.0 <= p < 1.0:
        raise ArgumentError(f"need 0 <= p < 1 to fill the remaining mass, got {p!r}")
    rng = random.Random(seed)
    contexts = []
    for _ in range(count):
        draws = [rng.expovariate(1.0) for _ in range(n - 1)]
        total = math.fsum(draws)
        rest = tuple((1.0 - p) * d / total for d in draws)
        contexts.append(Distribution((p,) + rest))
    return tuple(contexts)
