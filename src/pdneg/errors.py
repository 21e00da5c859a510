"""Exception hierarchy for pdneg.

Every error raised by the package derives from :class:`NegationError`, so
callers can catch a single type.  Errors that correspond to malformed input
additionally derive from ``ValueError`` (and the out-of-range index error
from ``IndexError``) to stay idiomatic.  The command line exits 2 on an error
derived from ``ValueError`` (or on ``ComponentIndexError``) and 3 on every
other :class:`NegationError`.  The two claim refusals state their reason
once, as ``refusal``, for their messages, notes and the CLI's skipped checks.
"""

from __future__ import annotations


class NegationError(Exception):
    """Base class for all pdneg errors."""


class LengthError(NegationError, ValueError):
    """A distribution (or requested length) is shorter than 2."""


class RangeError(NegationError, ValueError):
    """A probability or parameter lies outside its admissible interval."""


class SumError(NegationError, ValueError):
    """Distribution components do not sum to 1 within tolerance."""


class ComponentIndexError(NegationError, IndexError):
    """A 1-based component index is outside 1..n."""


class ArgumentError(NegationError, ValueError):
    """Arguments were combined in an unsupported way."""


class DescriptorError(NegationError, ValueError):
    """A negator descriptor (or its textual form) is malformed.

    ``position`` is the 0-based offset into the descriptor string at which
    parsing failed, when the error originates from the parser.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} at position {position}"
        super().__init__(message)


class WeightError(NegationError, ValueError):
    """Mixture weights are outside [0, 1] or do not sum to 1."""


class EmptyMixture(NegationError, ValueError):
    """A mixture was built with no components."""


class GeneratorError(NegationError):
    """A generator function violated its contract (a negative or non-finite
    value, or a normaliser that is not positive or overflows)."""


class ContextRequired(NegationError):
    """A pd-dependent descriptor was evaluated without a distribution."""


class ContextMismatch(NegationError):
    """The supplied distribution does not contain the probed value."""


class LengthMismatch(NegationError, ValueError):
    """Two distributions that must share a length do not."""


class IndependenceRequired(NegationError):
    """An operation defined only for pd-independent descriptors was invoked
    on a descriptor that does not claim pd-independence."""

    refusal = "does not claim pd-independence"


class NegatorRequired(NegationError):
    """An operation defined only for negators was invoked on a descriptor
    that does not claim to be one."""

    refusal = "does not claim to be a negator"


class InternalConsistencyError(NegationError):
    """A transformation produced values off the simplex; indicates a bug in
    the descriptor, never silently repaired."""
