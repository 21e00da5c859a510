"""Validated probability distributions and their quadratic entropy.

A :class:`Distribution` is an immutable point on the probability simplex of
length n >= 2.  Values are kept exactly as supplied: there is no silent
renormalisation and no reordering, because the order-reversal properties
checked elsewhere are stated on index pairs of the original ordering.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Iterable, Iterator

from .errors import ComponentIndexError, LengthError, RangeError, SumError

#: Default tolerance for the |sum - 1| and per-component range checks.
DEFAULT_TOLERANCE = 1e-9

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def _check_simplex(values: tuple[float, ...], tolerance: float) -> None:
    if len(values) < 2:
        raise LengthError(f"a distribution needs at least 2 components, got {len(values)}")
    for index, value in enumerate(values):
        if math.isnan(value) or value < -tolerance or value > 1.0 + tolerance:
            raise RangeError(f"component {index + 1} = {value!r} lies outside [0, 1]")
    total = math.fsum(values)
    if abs(total - 1.0) > tolerance:
        raise SumError(f"components sum to {total!r}, expected 1 within {tolerance!r}")


@dataclass(frozen=True)
class Distribution:
    """A finite probability distribution, validated at construction."""

    values: tuple[float, ...]
    tolerance: InitVar[float] = DEFAULT_TOLERANCE

    def __post_init__(self, tolerance: float) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        _check_simplex(self.values, tolerance)

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]


@dataclass(frozen=True)
class EntropyReport:
    """Entropy of a distribution and of its image under a transformation."""

    input_entropy: float
    output_entropy: float
    delta: float


def validate_distribution(values: Iterable[float], tolerance: float = DEFAULT_TOLERANCE) -> Distribution:
    """Validate an arbitrary real sequence as a probability distribution.

    Raises :class:`LengthError`, :class:`RangeError` (naming the first
    offending 1-based index) or :class:`SumError` (reporting the actual sum)
    when the sequence is not a distribution under ``tolerance``.
    """
    return Distribution(tuple(values), tolerance)


def require_length(n: int) -> None:
    """Raise :class:`LengthError` unless n >= 2, the shortest distribution length."""
    if n < 2:
        raise LengthError(f"need n >= 2, got {n}")


def uniform_distribution(n: int) -> Distribution:
    """The length-n distribution with every component equal to 1/n."""
    require_length(n)
    return Distribution((1.0 / n,) * n)


def point_distribution(n: int, i: int) -> Distribution:
    """The length-n distribution with all mass on component i (1-based)."""
    require_length(n)
    if not 1 <= i <= n:
        raise ComponentIndexError(f"component index {i} outside 1..{n}")
    return Distribution(tuple(1.0 if j == i - 1 else 0.0 for j in range(n)))


def _square_exact(p: float) -> tuple[float, float]:
    """p*p as an exact head/tail pair (Dekker product via Veltkamp split)."""
    head = p * p
    scaled = p * _SPLIT
    upper = scaled - (scaled - p)
    lower = p - upper
    tail = ((upper * upper - head) + 2.0 * (upper * lower)) + lower * lower
    return head, tail


def entropy(dist: Distribution) -> float:
    """Quadratic entropy: the sum of (1 - p) * p over the components.

    Accumulated as p - p^2 with exact squares so the whole sum rounds once;
    this keeps the result at the closed-form value (n-1)/n for uniform
    inputs wherever 1/n is representable, and never above it otherwise.
    """
    terms: list[float] = []
    for p in dist.values:
        head, tail = _square_exact(p)
        terms.append(p)
        terms.append(-head)
        terms.append(-tail)
    return math.fsum(terms)
