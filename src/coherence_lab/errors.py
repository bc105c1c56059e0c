"""Exception hierarchy shared by the whole package, and its input validators.

Validation failures (bad user input) derive from both the package base and
ValueError so callers may catch either; numerical-invariant violations signal
an internal inconsistency and derive from the base only.

Each kind of parameter is checked by one function here: channel and measure
names by ``Choice``, probabilities by ``require_probability``, counts by
``require_count``, seeds by ``require_integer``, tolerances by ``require_bound``,
real coordinates by ``require_real`` and per-row sequences by ``require_rows``.
None of them coerces: bools, strings, None, NaN and Python ints beyond float
range are rejected, numpy scalars are accepted. ``Choice`` accepts only a
str, numpy's included, and ``require_rows`` any iterable but a str or bytes.
"""

import math
from enum import Enum, EnumMeta

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


class ParameterRangeError(ValidationError):
    """Scalar parameter (probability, iteration count, grid size) out of range."""


class MissingGammaError(ValidationError):
    """Damping parameter required for this channel but not supplied."""


class IncoherentStateError(ValidationError):
    """Initial coherence is (numerically) zero, so a decay ratio is undefined."""


class InternalNumericalError(CoherenceLabError):
    """A computation violated an invariant it is supposed to preserve."""


class _ChoiceType(EnumMeta):
    """Looks a ``Choice`` up by its name, which must be a str (numpy's included).

    Enum itself compares an unhashable value with each member by ``==``, so a
    one-element array of names would pass as that member and a longer one
    raise a bare ValueError.
    """

    def __call__(cls, value):
        member = cls._value2member_map_.get(value) if isinstance(value, str) else None
        if member is None:
            choices = ", ".join(repr(m.value) for m in cls)
            raise ValidationError(f"{value!r} is not a valid {cls.__name__}, expected {choices}")
        return member


class Choice(str, Enum, metaclass=_ChoiceType):
    """A named choice whose unknown values raise ValidationError, not a bare ValueError."""


# Python's and numpy's integer and real scalar types; bool, an int subclass,
# is rejected apart. Concrete types rather than the numbers ABCs, whose checks
# cost four to eight times as much and run once per query and per Kraus set.
_INTEGRAL = (int, np.integer)
_REAL = (int, float, np.integer, np.floating)


def _is_real(kind: type) -> bool:
    """True for real number types, numpy's included, other than bool."""
    return issubclass(kind, _REAL) and not issubclass(kind, bool)


def _is_integer(value) -> bool:
    """True for Python and numpy integers other than bool."""
    return isinstance(value, _INTEGRAL) and not isinstance(value, bool)


def _fits_float(value) -> bool:
    """False for a Python int beyond float range, on which float arithmetic overflows."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _shown(value) -> str:
    """``value`` for an error message; an int beyond float range by its size, not its digits."""
    if _is_integer(value) and not _fits_float(value):
        return f"an integer of {int(value).bit_length()} bits"
    return repr(value)


def require_real(name: str, *values) -> None:
    """Reject any of ``values`` that is not a real number or an array of them.

    An array is judged by its dtype, anything else by its type, and each
    distinct type once, so a long run of Python floats costs one pass.
    Python ints are also checked one by one against float range.
    """
    kinds = {v.dtype.type if isinstance(v, np.ndarray) else type(v) for v in values}
    for kind in kinds:
        if not _is_real(kind):
            raise ValidationError(f"{name} must be real numbers, got {kind.__name__}")
    if int in kinds:
        for value in values:
            if type(value) is int and not _fits_float(value):
                raise ParameterRangeError(f"{name} must fit a float, got {_shown(value)}")


def require_probability(name: str, value) -> float:
    """``value`` as a float strictly between 0 and 1 (NaN fails the range test)."""
    if not _is_real(type(value)) or not 0.0 < value < 1.0:
        raise ParameterRangeError(f"{name} must lie strictly between 0 and 1, got {_shown(value)}")
    return float(value)


def require_integer(name: str, value) -> int:
    """``value`` as an int of any sign; bools, floats and strings are rejected."""
    if not _is_integer(value):
        raise ParameterRangeError(f"{name} must be an integer, got {_shown(value)}")
    return int(value)


def require_count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an int >= ``minimum`` that fits a float; bools and integral floats fail."""
    if not _is_integer(value) or value < minimum:
        raise ParameterRangeError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")
    if not _fits_float(value):
        raise ParameterRangeError(f"{name} must fit a float, got {_shown(value)}")
    return int(value)


def require_bound(name: str, value, strict: bool) -> float:
    """``value`` as a finite float, > 0 when ``strict`` and >= 0 otherwise."""
    if not (_is_real(type(value)) and _fits_float(value) and math.isfinite(value)
            and (value > 0.0 if strict else value >= 0.0)):
        relation = "> 0" if strict else ">= 0"
        shown = _shown(value)
        raise ParameterRangeError(f"{name} must be a finite number {relation}, got {shown}")
    return float(value)


def require_rows(name: str, values, rows: int | None = None) -> list:
    """Any iterable ``values`` but a str or bytes as a list, of ``rows`` entries if given.

    A list comes back as it is, not copied; no caller writes the list it gets.
    """
    if isinstance(values, list):
        listed = values
    elif isinstance(values, (str, bytes)):
        listed = None
    else:
        try:
            listed = list(values)
        except TypeError:
            listed = None
    if listed is None or rows is not None and len(listed) != rows:
        got = type(values).__name__ if listed is None else f"{len(listed)} entries"
        expected = "" if rows is None else f" of {rows} entries"
        raise ValidationError(f"{name} must be a non-text iterable{expected}, got {got}")
    return listed
