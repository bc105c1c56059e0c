"""Two-qubit Bell-diagonal states.

A state in this family is fixed by three correlation coefficients
(c1, c2, c3):

    rho = (1/4) (I (x) I + sum_i c_i sigma_i (x) sigma_i)

Its eigenvalues are q_i/4 for the four parity combinations
q = 1 -+ c1 -+ c2 -+ c3, so the physical region is the tetrahedron with
vertices (1,-1,1), (-1,1,1), (1,1,-1), (-1,-1,-1).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NotBellDiagonalError, UnphysicalStateError, ValidationError, require_real
from .linalg import (
    raise_for_first,
    require_hermitian,
    require_psd,
    require_unit_trace,
    row_value,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# sigma_i (x) sigma_i observables whose expectations are the c_i
_CORRELATORS = tuple(np.kron(s, s) for s in PAULI)

PHYSICAL_TOL = 1e-12


class BellCoefficients(NamedTuple):
    """Correlation coefficients (c1, c2, c3) of a Bell-diagonal state."""

    c1: float
    c2: float
    c3: float

    @classmethod
    def from_text(cls, text: str) -> "BellCoefficients":
        """Parse the textual form 'c1,c2,c3' (whitespace around commas ok)."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ValidationError(
                f"expected three comma-separated coefficients, got {text!r}"
            )
        try:
            values = [float(part.strip()) for part in parts]
        except ValueError as exc:
            raise ValidationError(f"could not parse coefficients from {text!r}") from exc
        if not all(np.isfinite(values)):
            raise ValidationError(f"coefficients must be finite, got {text!r}")
        return cls(*values)

    def to_text(self) -> str:
        return f"{self.c1!r},{self.c2!r},{self.c3!r}"


def parities(c1, c2, c3):
    """The parity combinations (q1, q2, q3, q4); scalars or broadcastable arrays.

    The density-matrix eigenvalues are q_i / 4. Every caller that needs the
    q_i goes through here, so they are rounded the same way everywhere: left
    to right, as in 1 - c1 - c2 - c3, with 1 -+ c1 formed once.
    """
    a, b = 1.0 - c1, 1.0 + c1
    return (a - c2 - c3, b + c2 - c3, b - c2 + c3, a + c2 + c3)


def physical_mask(c1, c2, c3):
    """Elementwise: every eigenvalue q_i / 4 is >= -PHYSICAL_TOL (NaN counts as unphysical)."""
    return _nonnegative(parities(c1, c2, c3))


def _nonnegative(q):
    """Elementwise: every q_i / 4 of the parities ``q`` is >= -PHYSICAL_TOL.

    Four comparisons rather than min(q_i) / 4 >= -PHYSICAL_TOL: rounded
    division by 4 is monotone, so the two tests agree on every input, and
    this one is cheaper on arrays and stays in plain floats for a scalar state.
    """
    q1, q2, q3, q4 = q
    floor = -PHYSICAL_TOL
    return (q1 / 4.0 >= floor) & (q2 / 4.0 >= floor) & (q3 / 4.0 >= floor) & (q4 / 4.0 >= floor)


def bell_eigenvalues(c: BellCoefficients) -> np.ndarray:
    """The four eigenvalues q_i/4, sorted ascending."""
    return np.sort(np.array(parities(*c))) / 4.0


def is_physical(c: BellCoefficients) -> bool:
    """True when every eigenvalue is >= -PHYSICAL_TOL (state inside the tetrahedron)."""
    return bool(physical_mask(*c))


def require_physical(c1, c2, c3) -> tuple:
    """Reject the first (row-major) state of broadcastable coefficients outside the tetrahedron.

    Coordinates must be real numbers or real arrays; anything else raises
    ValidationError before the tetrahedron test. Returns the parities
    (q1, q2, q3, q4) it tested, so a caller that needs them forms them once.
    """
    require_real("coefficients", c1, c2, c3)
    q = parities(c1, c2, c3)
    if isinstance(q[0], np.ndarray):
        # q / 4 >= -tol exactly when q >= -4 tol: division by 4 is exact on
        # normal numbers, and both hold on subnormals; NaN fails the minimum
        inside = all(x.min(initial=np.inf) >= -4.0 * PHYSICAL_TOL for x in q)
    else:
        inside = _nonnegative(q)
    if not inside:
        outside = np.logical_not(_nonnegative(q))
        first = tuple(float(np.broadcast_to(c, outside.shape)[outside][0]) for c in (c1, c2, c3))
        raise UnphysicalStateError(
            f"coefficients {first} lie outside the physical tetrahedron "
            "with vertices (1,-1,1), (-1,1,1), (1,1,-1), (-1,-1,-1)"
        )
    return q


def to_density_matrix(c: BellCoefficients) -> np.ndarray:
    """The explicit 4x4 density matrix in the computational basis.

    Coefficient arrays give the (..., 4, 4) stack of their states.
    """
    require_physical(*c)
    return _build_matrix(*c)


def _build_matrix(c1, c2, c3) -> np.ndarray:
    """The (..., 4, 4) matrices of broadcastable coefficient arrays (or scalars)."""
    c1, c2, c3 = np.broadcast_arrays(*(np.asarray(c, dtype=np.float64) for c in (c1, c2, c3)))
    rho = np.zeros(c1.shape + (4, 4), dtype=np.complex128)
    rho[..., 0, 0] = rho[..., 3, 3] = (1.0 + c3) / 4.0
    rho[..., 1, 1] = rho[..., 2, 2] = (1.0 - c3) / 4.0
    rho[..., 0, 3] = rho[..., 3, 0] = (c1 - c2) / 4.0
    rho[..., 1, 2] = rho[..., 2, 1] = (c1 + c2) / 4.0
    return rho


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check 4x4 shape, hermiticity, unit trace, and positivity; return complex128.

    A (..., 4, 4) stack is checked matrix by matrix in one pass.
    """
    a = require_hermitian(rho)
    if a.shape[-2:] != (4, 4):
        raise ValidationError(f"expected a 4x4 density matrix, got shape {a.shape}")
    require_unit_trace(a.trace(axis1=-2, axis2=-1).real)
    require_psd(np.linalg.eigvalsh(a)[..., 0])
    return a


def from_density_matrix(
    rho: np.ndarray, max_residual: float | None = None
) -> tuple[BellCoefficients, float]:
    """Extract (c1, c2, c3) = Tr(rho sigma_i (x) sigma_i) from a density matrix.

    Returns the coefficients together with the reconstruction residual
    max |rho - rho(c)|. The residual is 0 (up to round-off) exactly when rho
    is Bell diagonal; when ``max_residual`` is given, a larger residual
    raises NotBellDiagonalError instead of being returned. A (..., 4, 4)
    stack gives coefficient and residual arrays, one entry per matrix.
    """
    a = validate_density_matrix(rho)
    c = [np.trace(a @ m, axis1=-2, axis2=-1).real for m in _CORRELATORS]
    residual = np.max(np.abs(a - _build_matrix(*c)), axis=(-2, -1))
    if max_residual is not None:
        raise_for_first(residual > max_residual, lambda row: NotBellDiagonalError(
            f"reconstruction residual {row_value(residual, row):.3e} exceeds "
            f"{max_residual:.1e}; the matrix is not Bell diagonal"
        ))
    if a.ndim == 2:
        return BellCoefficients(*(float(x) for x in c)), float(residual)
    return BellCoefficients(*c), residual
