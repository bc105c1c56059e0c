"""Exception hierarchy shared by the whole package, and its input validators.

Validation failures (bad user input) derive from both the package base and
ValueError so callers may catch either; numerical-invariant violations signal
an internal inconsistency and derive from the base only.

Each kind of parameter is checked by one function here: channel and
measure names by ``Choice``, probabilities by ``require_probability``,
counts by ``require_count``, tolerances by ``require_bound`` and real
coordinates by ``require_real``. None of them coerces: bools, strings,
None and NaN are rejected, numpy scalars are accepted.
"""

import math
from enum import Enum

import numpy as np


class CoherenceLabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CoherenceLabError, ValueError):
    """Invalid input: rejected before any computation runs."""


class NotHermitianError(ValidationError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSDError(ValidationError):
    """Matrix has an eigenvalue below the negative tolerance."""


class TraceNotOneError(ValidationError):
    """Density matrix trace deviates from 1 beyond tolerance."""


class UnphysicalStateError(ValidationError):
    """Correlation coefficients lie outside the physical tetrahedron."""


class NotBellDiagonalError(ValidationError):
    """Density matrix is too far from the Bell-diagonal family."""


class ParameterRangeError(ValidationError):
    """Scalar parameter (probability, iteration count, grid size) out of range."""


class MissingGammaError(ValidationError):
    """Damping parameter required for this channel but not supplied."""


class IncoherentStateError(ValidationError):
    """Initial coherence is (numerically) zero, so a decay ratio is undefined."""


class InternalNumericalError(CoherenceLabError):
    """A computation violated an invariant it is supposed to preserve."""


class Choice(str, Enum):
    """A named choice whose unknown values raise ValidationError, not a bare ValueError."""

    @classmethod
    def _missing_(cls, value):
        choices = ", ".join(repr(member.value) for member in cls)
        raise ValidationError(f"{value!r} is not a valid {cls.__name__}, expected {choices}")


# Python's and numpy's integer and real scalar types; bool, an int subclass,
# is rejected apart. Concrete types rather than the numbers ABCs, whose checks
# cost four to eight times as much and run once per query and per Kraus set.
_INTEGRAL = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)


def _is_real(kind: type) -> bool:
    """True for real number types, numpy's included, other than bool."""
    return issubclass(kind, _REAL) and not issubclass(kind, bool)


def require_real(name: str, *values) -> None:
    """Reject any of ``values`` that is not a real number or an array of them.

    An array is judged by its dtype, anything else by its type, and each
    distinct type once, so a long run of Python floats costs one pass.
    """
    for kind in {v.dtype.type if isinstance(v, np.ndarray) else type(v) for v in values}:
        if not _is_real(kind):
            raise ValidationError(f"{name} must be real numbers, got {kind.__name__}")


def require_probability(name: str, value) -> float:
    """``value`` as a float strictly between 0 and 1 (NaN fails the range test)."""
    if not _is_real(type(value)) or not 0.0 < value < 1.0:
        raise ParameterRangeError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return float(value)


def require_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum``; bools and integral floats are rejected."""
    if not isinstance(value, _INTEGRAL) or isinstance(value, bool) or value < minimum:
        raise ParameterRangeError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def require_bound(name: str, value, strict: bool) -> float:
    """``value`` as a finite float, > 0 when ``strict`` and >= 0 otherwise."""
    if not (_is_real(type(value)) and math.isfinite(value)
            and (value > 0.0 if strict else value >= 0.0)):
        relation = "> 0" if strict else ">= 0"
        raise ParameterRangeError(f"{name} must be a finite number {relation}, got {value!r}")
    return float(value)
