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

from .errors import UnphysicalStateError, ValidationError, require_real
from .linalg import require_hermitian, require_psd, require_unit_trace

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
        parts = text.split(",") if isinstance(text, str) else ()
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
    """Elementwise: every eigenvalue q_i / 4 is >= -PHYSICAL_TOL (NaN counts as unphysical).

    Tested as q_i >= -4 PHYSICAL_TOL, with no division: division by 4 is
    exact on normal numbers, both tests hold on subnormals and NaN fails
    both, so the two agree on every input. A scalar state stays in floats.
    """
    q1, q2, q3, q4 = parities(c1, c2, c3)
    floor = -4.0 * PHYSICAL_TOL
    return (q1 >= floor) & (q2 >= floor) & (q3 >= floor) & (q4 >= floor)


def bell_eigenvalues(c: BellCoefficients) -> np.ndarray:
    """The four eigenvalues q_i/4, sorted ascending."""
    return np.sort(np.array(parities(*stack_states([c])[0].tolist()))) / 4.0


def coordinates(c) -> tuple:
    """The coordinates (c1, c2, c3) of a state, unpacked.

    Anything that does not unpack into exactly three values, such as a 2-
    or 4-tuple or a number, raises ValidationError. Whether the values are
    real numbers is ``require_real``'s check.
    """
    try:
        c1, c2, c3 = c
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"a state has three coordinates (c1, c2, c3): {exc}") from None
    return c1, c2, c3


def stack_states(states) -> np.ndarray:
    """The (N, 3) float64 stack of the N states ``states``, each three real coordinates.

    A state that does not unpack into three values, a coordinate that is not
    a real number (strings and bools included) and array coordinates that do
    not stack into one row each raise ValidationError. Physicality is not
    checked here.
    """
    states = [coordinates(c) for c in states]
    # checked before the conversion to float64 would parse strings and bools
    require_real("coefficients", *(c for state in states for c in state))
    try:
        stack = np.array(states, dtype=np.float64)
    except ValueError:  # array coordinates of different lengths do not stack
        stack = np.empty(0)
    if stack.shape != (len(states), 3):
        raise ValidationError("every state of a stack needs three coordinates (c1, c2, c3)")
    return stack


def is_physical(c: BellCoefficients) -> bool:
    """True when every eigenvalue is >= -PHYSICAL_TOL (state inside the tetrahedron)."""
    return bool(physical_mask(*stack_states([c])[0].tolist()))


def require_physical(c1, c2, c3) -> None:
    """Reject the first (row-major) state of broadcastable coefficients outside the tetrahedron.

    Coordinates must be real numbers or real arrays that broadcast together;
    anything else raises ValidationError before the tetrahedron test.
    """
    require_real("coefficients", c1, c2, c3)
    try:
        inside = physical_mask(c1, c2, c3)
    except ValueError as exc:
        raise ValidationError(f"coefficient arrays do not broadcast together: {exc}") from None
    if not np.asarray(inside).all():
        outside = np.logical_not(inside)
        first = tuple(float(np.broadcast_to(c, outside.shape)[outside][0]) for c in (c1, c2, c3))
        raise UnphysicalStateError(
            f"coefficients {first} lie outside the physical tetrahedron "
            "with vertices (1,-1,1), (-1,1,1), (1,1,-1), (-1,-1,-1)"
        )


def to_density_matrix(c: BellCoefficients) -> np.ndarray:
    """The explicit 4x4 density matrix in the computational basis.

    Coefficient arrays give the (..., 4, 4) stack of their states.
    """
    c = coordinates(c)
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


def from_density_matrix(rho: np.ndarray) -> tuple[BellCoefficients, float]:
    """Extract (c1, c2, c3) = Tr(rho sigma_i (x) sigma_i) from a density matrix.

    Returns the coefficients together with the reconstruction residual
    max |rho - rho(c)|, which is 0 (up to round-off) exactly when rho is
    Bell diagonal. A (..., 4, 4) stack gives coefficient and residual
    arrays, one entry per matrix.
    """
    a = validate_density_matrix(rho)
    c = [np.trace(a @ m, axis1=-2, axis2=-1).real for m in _CORRELATORS]
    residual = np.max(np.abs(a - _build_matrix(*c)), axis=(-2, -1))
    if a.ndim == 2:
        return BellCoefficients(*(float(x) for x in c)), float(residual)
    return BellCoefficients(*c), residual
