"""Hermitian eigendecomposition, PSD square root, and von Neumann entropy.

Thin, tolerance-gated wrappers around numpy.linalg.eigh. Every routine
takes one (d, d) matrix or a (..., d, d) stack and runs the same code for
both: numpy's linalg and matmul work matrix by matrix, so each matrix of a
stack gets the bits it would get alone. Every public routine validates its
input, a stack validated before included; each check, in the order a single
matrix is checked, raises a typed error for the first matrix that fails it
instead of returning garbage. ``_psd_root``, the tail of ``psd_sqrt``,
checks only its own reconstruction, and ``_spectral_entropy``, the tail of
``von_neumann_entropy``, checks nothing: the matrix measures run both on one
``eigh`` of each matrix that ``states.validate_density_matrix`` has passed,
so no check is made twice.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    InternalNumericalError,
    NotHermitianError,
    NotPSDError,
    TraceNotOneError,
    ValidationError,
)

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-12
TRACE_TOL = 1e-10
XLNX_FLOOR = 1e-15
SQRT_RECONSTRUCTION_TOL = 1e-10


class EigenSystem(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def raise_for_first(failing: np.ndarray, error: Callable[[int], Exception]) -> None:
    """Raise ``error(row)`` for the first matrix (flat row index) where ``failing`` holds."""
    failing = np.asarray(failing)
    if failing.any():
        raise error(int(np.flatnonzero(failing)[0]))


def row_value(values: np.ndarray, row: int) -> float:
    """The value at flat row index ``row`` of a per-matrix array (or a scalar)."""
    return float(np.ravel(values)[row])


def _as_square_complex(m: np.ndarray) -> np.ndarray:
    """A nonempty (d, d) matrix or a (..., d, d) stack of them, as finite complex128.

    Only integer, float and complex entries convert; strings, bools, objects
    and ragged input raise ValidationError rather than being parsed or read
    as numbers.
    """
    try:
        a = np.asarray(m)
    except ValueError as exc:  # ragged input has no array form
        raise ValidationError(f"expected a numeric matrix: {exc}") from None
    if a.dtype.kind not in "iufc":
        raise ValidationError(f"expected a numeric matrix, got entries of dtype {a.dtype}")
    a = a.astype(np.complex128, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValidationError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix contains non-finite entries")
    return a


def require_psd(smallest: np.ndarray) -> None:
    """Reject the first matrix whose smallest eigenvalue is below -PSD_TOL."""
    raise_for_first(smallest < -PSD_TOL, lambda row: NotPSDError(
        f"matrix is not PSD: smallest eigenvalue {row_value(smallest, row):.3e} "
        f"< -{PSD_TOL:.1e}"
    ))


def require_unit_trace(trace: np.ndarray) -> None:
    """Reject the first matrix whose trace is off 1 by more than TRACE_TOL."""
    raise_for_first(np.abs(trace - 1.0) > TRACE_TOL, lambda row: TraceNotOneError(
        f"trace {row_value(trace, row)!r} deviates from 1 by more than {TRACE_TOL:.1e}"
    ))


def require_hermitian(m: np.ndarray) -> np.ndarray:
    a = _as_square_complex(m)
    defects = np.abs(a - np.swapaxes(a, -1, -2).conj()).max(axis=(-2, -1))
    raise_for_first(defects > HERMITIAN_TOL, lambda row: NotHermitianError(
        f"matrix is not Hermitian: max |M - M^dag| = {row_value(defects, row):.3e} "
        f"> {HERMITIAN_TOL:.1e}"
    ))
    return a


def hermitian_eigensystem(m: np.ndarray) -> EigenSystem:
    """Eigenvalues (ascending, real) and orthonormal eigenvector columns, per matrix."""
    a = require_hermitian(m)
    w, v = np.linalg.eigh(a)
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Matrix square root of a positive semidefinite Hermitian matrix, per matrix.

    Eigenvalues within PSD_TOL of zero (either side) are treated as round-off
    and snapped to exactly 0: sqrt is infinitely steep there, and snapping
    keeps the root deterministic when a true-zero eigenvalue comes back from
    the solver as a tiny positive number.
    """
    a = require_hermitian(m)
    w, v = np.linalg.eigh(a)
    require_psd(w[..., 0])
    return _psd_root(a, w, v)


def _psd_root(a: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``psd_sqrt`` of the matrices ``a`` from their ``eigh`` pair ``(w, v)``.

    Checks only its reconstruction: the first root whose square is off ``a``
    by more than SQRT_RECONSTRUCTION_TOL raises InternalNumericalError.
    """
    w = np.where(w <= PSD_TOL, 0.0, w)
    root = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    defects = np.max(np.abs(root @ root - a), axis=(-2, -1))
    raise_for_first(defects > SQRT_RECONSTRUCTION_TOL, lambda row: InternalNumericalError(
        f"sqrt reconstruction defect {row_value(defects, row):.3e} "
        f"exceeds {SQRT_RECONSTRUCTION_TOL:.1e}"
    ))
    return root


def _xlnx(x):
    """x ln x extended by continuity with 0 at x <= XLNX_FLOOR and at NaN.

    A plain log and an in-place product, which give the bits a masked log
    would; the entries at or below the floor (0 and negative round-off
    included) and NaNs are zeroed only when there are any. The log is
    unguarded, so callers run this under np.errstate.
    """
    x = np.asarray(x)
    out = np.empty(x.shape, np.result_type(x, XLNX_FLOOR))
    np.log(x, out=out)
    out *= x
    if x.size and not x.min() > XLNX_FLOOR:
        np.copyto(out, 0.0, where=np.logical_not(x > XLNX_FLOOR))
    return out


def von_neumann_entropy(m: np.ndarray) -> float | np.ndarray:
    """S(rho) = -Tr(rho ln rho) in nats, with the 0*ln0 limit taken as 0.

    Requires Hermitian PSD matrices of unit trace; a stack gives one entropy
    per matrix. Eigenvalues at or below XLNX_FLOOR contribute nothing
    (``_xlnx``); the result is clamped to be nonnegative.
    """
    w, _ = hermitian_eigensystem(m)
    require_psd(w[..., 0])
    require_unit_trace(np.sum(w, axis=-1))
    entropy = _spectral_entropy(w)
    return float(entropy) if w.ndim == 1 else entropy


def _spectral_entropy(w: np.ndarray) -> np.ndarray:
    """-sum_k w_k ln w_k over the last axis of the spectra ``w``, clamped at 0; checks nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -np.sum(_xlnx(w), axis=-1)
    # at <= 0.0, so that a zero entropy, the negation of a +0.0 sum, is +0.0 and not -0.0
    return np.where(entropy <= 0.0, 0.0, entropy)
