"""Hermitian eigendecomposition, PSD square root, and von Neumann entropy.

Thin, tolerance-gated wrappers around numpy.linalg.eigh. Every routine
takes one (d, d) matrix or a (..., d, d) stack and runs the same code for
both: numpy's linalg and matmul work matrix by matrix, so each matrix of a
stack gets the bits it would get alone. Every routine validates its input;
each check, in the order a single matrix is checked, raises a typed error
for the first matrix that fails it instead of returning garbage.
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
ENTROPY_FLOOR = 1e-15
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
    """A nonempty (d, d) matrix or a (..., d, d) stack of them, as finite complex128."""
    a = np.asarray(m, dtype=np.complex128)
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
    w, v = hermitian_eigensystem(m)
    require_psd(w[..., 0])
    w = np.where(w <= PSD_TOL, 0.0, w)
    root = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    defects = np.max(
        np.abs(root @ root - np.asarray(m, dtype=np.complex128)), axis=(-2, -1)
    )
    raise_for_first(defects > SQRT_RECONSTRUCTION_TOL, lambda row: InternalNumericalError(
        f"sqrt reconstruction defect {row_value(defects, row):.3e} "
        f"exceeds {SQRT_RECONSTRUCTION_TOL:.1e}"
    ))
    return root


def von_neumann_entropy(m: np.ndarray) -> float | np.ndarray:
    """S(rho) = -Tr(rho ln rho) in nats, with the 0*ln0 limit taken as 0.

    Requires Hermitian PSD matrices of unit trace; a stack gives one entropy
    per matrix. Eigenvalues at or below ENTROPY_FLOOR contribute nothing; the
    result is clamped to be nonnegative.
    """
    w, _ = hermitian_eigensystem(m)
    require_psd(w[..., 0])
    require_unit_trace(np.sum(w, axis=-1))
    big = w > ENTROPY_FLOOR
    safe = np.where(big, w, 1.0)
    entropy = -np.sum(np.where(big, safe * np.log(safe), 0.0), axis=-1)
    entropy = np.where(entropy < 0.0, 0.0, entropy)
    return float(entropy) if w.ndim == 1 else entropy
