"""Exception types shared across the package.

The CLI maps these onto exit codes: input/parse problems exit 2,
resource caps and guards exit 3, internal property violations exit 4.
"""


class FpgbError(Exception):
    """Base class for all package errors."""


class NonInvertibleError(FpgbError):
    """Attempt to invert zero in F_p."""


class PreconditionError(FpgbError):
    """A documented operation precondition was violated by the caller."""


class LaneOverflowError(FpgbError):
    """An exponent or degree does not fit its fixed key lane."""


class ArityMismatchError(FpgbError):
    """Monomials with different variable counts were combined."""


class CorruptKeyError(FpgbError):
    """A packed monomial key fails its internal consistency checks."""


class DivisionError(FpgbError):
    """Monomial division requested for a non-divisor."""


class PolyParseError(FpgbError):
    """Polynomial or system text failed to parse.

    Carries the character position of the offending token when known, and
    ``message``, the text without the position, for a caller to wrap.
    """

    def __init__(self, message, position=None, line=None):
        self.message = message
        self.position = position
        self.line = line
        where = []
        if line is not None:
            where.append(f"line {line}")
        if position is not None:
            where.append(f"col {position}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class UncoverableTargetError(FpgbError):
    """A batch target that no row can cover: it names a basis index outside the basis."""


class MissingKeyError(FpgbError):
    """A row key is absent from the dictionary.

    This cannot happen when the dictionary is support-closed; it indicates
    an upstream closure defect and is treated as an internal violation.
    """


class SizeCapError(FpgbError):
    """A dense-path size cap (or dictionary growth cap) was exceeded."""


class NonterminationError(FpgbError):
    """An iteration guard tripped before the algorithm converged."""


class ProbabilisticFailureError(FpgbError):
    """A randomized routine exhausted its retry budget.

    The seed trail of every attempt is preserved for replay.
    """

    def __init__(self, message, seed_trail=()):
        self.seed_trail = tuple(seed_trail)
        super().__init__(f"{message} (seed trail: {list(self.seed_trail)})")


class PropertyViolationError(FpgbError):
    """An internal structural invariant failed; always a defect, never input error."""
