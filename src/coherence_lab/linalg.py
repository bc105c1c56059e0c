"""Hermitian eigendecomposition, PSD square root, and von Neumann entropy.

Thin, tolerance-gated wrappers around numpy.linalg.eigh. Every routine
validates its input and raises a typed error instead of returning garbage.
"""

from __future__ import annotations

from typing import NamedTuple

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


def _as_square_complex(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError("matrix contains non-finite entries")
    return a


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    a = _as_square_complex(m)
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > tol:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e} > {tol:.1e}"
        )
    return a


def hermitian_eigensystem(m: np.ndarray) -> EigenSystem:
    """Eigenvalues (ascending, real) and orthonormal eigenvector columns."""
    a = require_hermitian(m)
    w, v = np.linalg.eigh(a)
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Matrix square root of a positive semidefinite Hermitian matrix.

    Eigenvalues within PSD_TOL of zero (either side) are treated as round-off
    and snapped to exactly 0: sqrt is infinitely steep there, and snapping
    keeps the root deterministic when a true-zero eigenvalue comes back from
    the solver as a tiny positive number.
    """
    w, v = hermitian_eigensystem(m)
    if float(w[0]) < -PSD_TOL:
        raise NotPSDError(
            f"matrix is not PSD: smallest eigenvalue {float(w[0]):.3e} < -{PSD_TOL:.1e}"
        )
    w = np.where(w <= PSD_TOL, 0.0, w)
    root = (v * np.sqrt(w)) @ v.conj().T
    defect = float(np.max(np.abs(root @ root - np.asarray(m, dtype=np.complex128))))
    if defect > SQRT_RECONSTRUCTION_TOL:
        raise InternalNumericalError(
            f"sqrt reconstruction defect {defect:.3e} exceeds {SQRT_RECONSTRUCTION_TOL:.1e}"
        )
    return root


def von_neumann_entropy(m: np.ndarray) -> float:
    """S(rho) = -Tr(rho ln rho) in nats, with the 0*ln0 limit taken as 0.

    Requires a Hermitian PSD matrix of unit trace. Eigenvalues at or below
    ENTROPY_FLOOR contribute nothing; the result is clamped to be nonnegative.
    """
    w, _ = hermitian_eigensystem(m)
    if float(w[0]) < -PSD_TOL:
        raise NotPSDError(
            f"matrix is not PSD: smallest eigenvalue {float(w[0]):.3e} < -{PSD_TOL:.1e}"
        )
    trace = float(np.sum(w))
    if abs(trace - 1.0) > TRACE_TOL:
        raise TraceNotOneError(f"trace {trace!r} deviates from 1 by more than {TRACE_TOL:.1e}")
    big = w[w > ENTROPY_FLOOR]
    return max(float(-np.sum(big * np.log(big))), 0.0)
