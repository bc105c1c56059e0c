"""Coherence measures for Bell-diagonal states, each computed two ways.

Closed forms (in the correlation coefficients):

    l1:       C = (|c1 - c2| + |c1 + c2|) / 2 = max(|c1|, |c2|), evaluated as the exact max
    rel-ent:  C = S(rho_diag) - S(rho)
                = (1/4) sum_i q_i ln q_i - (1/2) [(1+c3) ln(1+c3) + (1-c3) ln(1-c3)]
    skew:     C = (2 - sqrt(q1 q2) - sqrt(q3 q4)) / 4

with q1 = 1-c1-c2-c3, q2 = 1+c1+c2-c3, q3 = 1+c1-c2+c3, q4 = 1-c1+c2+c3.

Matrix forms evaluate the defining expressions on the density matrix itself
(off-diagonal l1 norm, entropy difference against the dephased state, and
1 - sum_k <k|sqrt(rho)|k>^2 for the summed skew information over the
computational basis). The two routes agree to ~1e-12 and are checked against
each other by the test suite and the `verify` command. Both routes take
arrays: ``closed_measures`` broadcasts over coefficient arrays and the
matrix forms take (..., 4, 4) stacks; the single-state functions are their
one-row cases.
"""

from __future__ import annotations

import numpy as np

from .errors import Choice, InternalNumericalError
from .linalg import psd_sqrt, raise_for_first, row_value, von_neumann_entropy
from .states import BellCoefficients, parities, require_physical, validate_density_matrix

NEGATIVE_CLAMP = 1e-12
XLNX_FLOOR = 1e-15


class Measure(Choice):
    L1 = "l1"
    REL_ENT = "rel-ent"
    SKEW = "skew"


def clamped_array(values: np.ndarray) -> np.ndarray:
    """Round-off negatives down to -NEGATIVE_CLAMP set to 0.0; -0.0 and NaN pass unchanged.

    The first value below -NEGATIVE_CLAMP raises InternalNumericalError.
    Without negatives the float values come back as they are, never written.
    """
    values = np.asarray(values, dtype=np.result_type(values, 0.0))
    negative = values < 0.0
    if not negative.any():
        return values
    raise_for_first(values < -NEGATIVE_CLAMP, lambda row: InternalNumericalError(
        f"coherence value {row_value(values, row)!r} is negative beyond round-off"
    ))
    return np.where(negative, 0.0, values)


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


def l1_kernel(c1, c2, c3):
    """Closed-form l1 coherence; accepts scalars or broadcastable arrays."""
    return np.maximum(np.abs(c1), np.abs(c2))


def rel_entropy_kernel(c1, c2, c3):
    """Closed-form relative entropy of coherence; physical inputs assumed."""
    return _rel_entropy(parities(c1, c2, c3), c3)


def _rel_entropy(q, c3):
    """Relative entropy of coherence from the parities ``q`` of a state and its c3.

    Summed in place in the order ((x1 + x2) + x3) + x4; multiplying by 1/4
    and 1/2 rounds exactly as dividing by 4 and 2 does.
    """
    q1, q2, q3, q4 = q
    with np.errstate(divide="ignore", invalid="ignore"):
        spectral = _xlnx(q1) + _xlnx(q2)
        spectral += _xlnx(q3)
        spectral += _xlnx(q4)
        diagonal = _xlnx(1.0 + c3) + _xlnx(1.0 - c3)
    spectral *= 0.25
    diagonal *= 0.5
    spectral -= diagonal
    return spectral


def skew_kernel(c1, c2, c3):
    """Closed-form summed skew information; physical inputs assumed.

    q1 q2 and q3 q4 are evaluated as differences of squares: states sitting
    exactly on a tetrahedron face then keep an exact zero product, whereas
    the plain products carry additive round-off that sqrt amplifies to ~1e-8.
    """
    a, b = 1.0 - c3, 1.0 + c3
    s, d = c1 + c2, c1 - c2
    value = 2.0 - np.sqrt(np.maximum((a - s) * (a + s), 0.0))
    value -= np.sqrt(np.maximum((b - d) * (b + d), 0.0))
    value *= 0.25
    return value


_KERNELS = {
    Measure.L1: l1_kernel,
    Measure.REL_ENT: rel_entropy_kernel,
    Measure.SKEW: skew_kernel,
}


def closed_measures(measure: Measure, c1, c2, c3) -> np.ndarray:
    """Closed-form values of ``measure`` over broadcastable coefficient arrays.

    The one closed-measure path: it rejects the first unphysical state, then
    evaluates the kernel and clamps round-off negatives. rel-ent reuses the
    parities that the physicality test formed.
    """
    q = require_physical(c1, c2, c3)
    measure = Measure(measure)
    if measure is Measure.REL_ENT:
        return clamped_array(_rel_entropy(q, c3))
    return clamped_array(_KERNELS[measure](c1, c2, c3))


def _per_matrix(values: np.ndarray, a: np.ndarray) -> float | np.ndarray:
    """Clamped values, one per matrix of ``a``: a float for a single matrix."""
    values = clamped_array(values)
    return float(values) if a.ndim == 2 else values


def _l1_matrix(rho: np.ndarray) -> float | np.ndarray:
    """Sum of absolute off-diagonal entries in the computational basis."""
    a = validate_density_matrix(rho)
    mags = np.abs(a)
    return _per_matrix(mags.sum(axis=(-2, -1)) - mags.trace(axis1=-2, axis2=-1), a)


def _rel_entropy_matrix(rho: np.ndarray) -> float | np.ndarray:
    """S(rho_diag) - S(rho) with rho_diag the dephased (diagonal) state."""
    a = validate_density_matrix(rho)
    dephased = np.zeros_like(a)
    diagonal = np.arange(a.shape[-1])
    dephased[..., diagonal, diagonal] = a[..., diagonal, diagonal]
    return _per_matrix(von_neumann_entropy(dephased) - von_neumann_entropy(a), a)


def _skew_matrix(rho: np.ndarray) -> float | np.ndarray:
    """1 - sum_k <k|sqrt(rho)|k>^2 over the computational basis."""
    a = validate_density_matrix(rho)
    root_diag = np.diagonal(psd_sqrt(a), axis1=-2, axis2=-1).real
    return _per_matrix(1.0 - np.sum(root_diag**2, axis=-1), a)


_MATRIX = {
    Measure.L1: _l1_matrix,
    Measure.REL_ENT: _rel_entropy_matrix,
    Measure.SKEW: _skew_matrix,
}


def closed_measure(measure: Measure, c: BellCoefficients) -> float:
    """Closed-form value of ``measure`` at coefficients ``c``; one row of ``closed_measures``."""
    return float(closed_measures(measure, *c))


def matrix_measure(measure: Measure, rho: np.ndarray) -> float | np.ndarray:
    """Definition-level value of ``measure`` on ``rho``, or per matrix of a stack."""
    return _MATRIX[Measure(measure)](rho)
