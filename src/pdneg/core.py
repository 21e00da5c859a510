"""Validated probability distributions and their quadratic entropy.

A :class:`Distribution` is an immutable point on the probability simplex of
length n >= 2.  Values are kept exactly as supplied: there is no silent
renormalisation and no reordering, because the order-reversal properties
checked elsewhere are stated on index pairs of the original ordering.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

from .errors import ComponentIndexError, ComponentTypeError, LengthError, RangeError, SumError

#: Default tolerance for the |sum - 1| and per-component range checks.
DEFAULT_TOLERANCE = 1e-9

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def _check_simplex(values: Sequence[float], tolerance: float) -> None:
    if len(values) < 2:
        raise LengthError(f"a distribution needs at least 2 components, got {len(values)}")
    # A NaN anywhere makes the fsum NaN, so this test fails wherever min and
    # max skip it.  Where fsum raises (inf + -inf, or overflow, under a huge
    # tolerance), the loop decides and raises what it always has.
    try:
        if min(values) >= -tolerance and max(values) <= 1.0 + tolerance and abs(math.fsum(values) - 1.0) <= tolerance:
            return
    except (ValueError, OverflowError):
        pass
    for index, value in enumerate(values):  # names the first component that fails
        if math.isnan(value) or value < -tolerance or value > 1.0 + tolerance:
            raise RangeError(f"component {index + 1} = {value!r} lies outside [0, 1]")
    total = math.fsum(values)
    if abs(total - 1.0) > tolerance:
        raise SumError(f"components sum to {total!r}, expected 1 within {tolerance!r}")


def _component(value, index: int) -> float:
    """A component as a float; refuses what float() would read as a number
    but is none: str, bytes, bytearray, bool and None."""
    if value is not None and not isinstance(value, (str, bytes, bytearray, bool)):
        try:
            return float(value)
        except OverflowError:  # an int or Fraction beyond float range, too long to show
            raise RangeError(f"component {index} lies outside [0, 1], beyond float range") from None
        except (TypeError, ValueError):
            pass
    raise ComponentTypeError(f"component {index} = {value!r} is not a number")


class _Frozen:
    """An immutable value named by its ``FIELDS``: equal to another of its
    exact class with equal fields, hashed by them and shown as
    ``QualName(field=value, ...)``.  Its constructor writes the fields into
    ``self.__dict__``; any later assignment or deletion raises."""

    FIELDS: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.FIELDS])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Distribution(_Frozen):
    """A finite probability distribution, validated at construction.

    Components may be floats, ints, fractions.Fraction, decimal.Decimal or
    any other number that float() converts; each is stored as a float.
    """

    FIELDS = ("values",)

    def __init__(self, values: Iterable[float], tolerance: float = DEFAULT_TOLERANCE) -> None:
        values = tuple(values)
        for value in values:
            if type(value) is not float:
                values = tuple([_component(v, index) for index, v in enumerate(values, start=1)])
                break
        _check_simplex(values, tolerance)
        self.__dict__["values"] = values

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, index: int) -> float:
        return self.values[index]


def _checked_distribution(values: tuple[float, ...]) -> Distribution:
    """The distribution of float values that _check_simplex has passed, built
    without a second check."""
    dist = object.__new__(Distribution)
    dist.__dict__["values"] = values
    return dist


class EntropyReport(_Frozen):
    """Entropy of a distribution and of its image under a transformation;
    ``delta`` is computed, not given: output_entropy - input_entropy."""

    FIELDS = ("input_entropy", "output_entropy", "delta")

    def __init__(self, input_entropy: float, output_entropy: float) -> None:
        self.__dict__.update(input_entropy=input_entropy, output_entropy=output_entropy,
                             delta=output_entropy - input_entropy)


def validate_distribution(values: Iterable[float], tolerance: float = DEFAULT_TOLERANCE) -> Distribution:
    """Validate a sequence of real numbers as a probability distribution.

    The components may be of the types :class:`Distribution` admits.  Raises
    :class:`ComponentTypeError` (naming the first 1-based index holding a
    str, bytes, bytearray, bool, None or other non-number),
    :class:`LengthError`, :class:`RangeError` (naming the first offending
    1-based index) or :class:`SumError` (reporting the actual sum) when the
    sequence is not a distribution under ``tolerance``.
    """
    return Distribution(values, tolerance)


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


def _entropy_terms(values: Iterable[float]) -> Iterator[float]:
    """Yield p, -u*u, -2*u*l and -l*l for each component p, where u + l = p
    is p's Veltkamp split: u and l each fit in 26 bits, so the three products
    are exact and sum to p*p."""
    for p in values:
        upper = p * _SPLIT
        upper -= upper - p
        lower = p - upper
        yield p
        yield -upper * upper
        yield -2.0 * (upper * lower)
        yield -lower * lower


def entropy(dist: Distribution) -> float:
    """Quadratic entropy: the sum of (1 - p) * p over the components.

    Each component p adds four exact terms: p itself, and -u*u, -2*u*l and
    -l*l, where u + l = p is p's Veltkamp split into two halves of 26 bits
    each.  One ``math.fsum`` adds every term, so the whole sum rounds once;
    this keeps the result at the closed-form value (n-1)/n for uniform
    inputs wherever 1/n is representable, and never above it otherwise.
    Below p = 2**-511 a square leaves the normal range and its products
    round, so there the result can miss the exact value.

    The terms come from a generator, so no list of them is built and the
    working memory does not grow with n.
    """
    return math.fsum(_entropy_terms(dist.values))
