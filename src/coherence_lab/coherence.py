"""Coherence measures for Bell-diagonal states, each computed two ways.

Closed forms (in the correlation coefficients):

    l1:       C = (|c1 - c2| + |c1 + c2|) / 2 = max(|c1|, |c2|), evaluated as the exact max
    rel-ent:  C = S(rho_diag) - S(rho)
                = (1/4) sum_i q_i ln q_i - (1/2) [(1+c3) ln(1+c3) + (1-c3) ln(1-c3)]
    skew:     C = (2 - sqrt(q1 q2) - sqrt(q3 q4)) / 4

with q1 = 1-c1-c2-c3, q2 = 1+c1+c2-c3, q3 = 1+c1-c2+c3, q4 = 1-c1+c2+c3.

Matrix forms evaluate the defining expressions on the density matrix itself
(off-diagonal l1 norm, entropy difference against the dephased state, and
tr rho - sum_k <k|sqrt(rho)|k>^2 for the summed skew information over the
computational basis). The dephased state is diagonal, so its spectrum is
rho's diagonal (Baumgratz, Cramer and Plenio, PRL 113, 140401 (2014)):
rel-ent reads it off and eigendecomposes rho alone. The two routes agree to
~1e-12 and are checked against each other by the test suite and the
`verify` command. Both routes take arrays: ``closed_measures`` broadcasts
over coefficient arrays and the matrix forms take (..., 4, 4) stacks; the
single-state functions are their one-row cases.
"""

from __future__ import annotations

import numpy as np

from .errors import Choice, InternalNumericalError
from .linalg import _psd_root, _spectral_entropy, _xlnx, raise_for_first, row_value
from .states import (
    BellCoefficients,
    parities,
    require_physical,
    stack_states,
    validate_density_matrix,
)

NEGATIVE_CLAMP = 1e-12


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


def l1_kernel(c1, c2):
    """Closed-form l1 coherence max(|c1|, |c2|); it has no c3 term."""
    return np.maximum(np.abs(c1), np.abs(c2))


def rel_entropy_kernel(c1, c2, c3, diagonal):
    """Closed-form relative entropy of coherence; physical inputs assumed.

    ``diagonal`` is the c3 term ``dephased_entropy(c3)``. The spectral sum
    over the parities is summed in place in the order ((x1 + x2) + x3) + x4;
    multiplying by 1/4 rounds exactly as dividing by 4 does.
    """
    q1, q2, q3, q4 = parities(c1, c2, c3)
    with np.errstate(divide="ignore", invalid="ignore"):
        spectral = _xlnx(q1) + _xlnx(q2)
        spectral += _xlnx(q3)
        spectral += _xlnx(q4)
    spectral *= 0.25
    spectral -= diagonal
    return spectral


def dephased_entropy(c3):
    """The dephased-state term [(1+c3) ln(1+c3) + (1-c3) ln(1-c3)] / 2 of rel-ent.

    Multiplying by 1/2 rounds exactly as dividing by 2 does.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        diagonal = _xlnx(1.0 + c3) + _xlnx(1.0 - c3)
    diagonal *= 0.5
    return diagonal


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


# Each kernel is called as kernel(c1, c2, *terms), where terms are the
# measure's _C3_TERMS of c3. A term depends on c3 alone, so a scan can form
# it once per distinct c3 and gather it; a measure with no term does not
# vary with c3 at all.
_KERNELS = {
    Measure.L1: l1_kernel,
    Measure.REL_ENT: rel_entropy_kernel,
    Measure.SKEW: skew_kernel,
}
_C3_TERMS = {
    Measure.L1: lambda c3: (),
    Measure.REL_ENT: lambda c3: (c3, dephased_entropy(c3)),
    Measure.SKEW: lambda c3: (c3,),
}


def closed_measures(measure: Measure, c1, c2, c3) -> np.ndarray:
    """Closed-form values of ``measure`` over broadcastable coefficient arrays.

    The one closed-measure path: it rejects the first unphysical state, then
    evaluates the measure's kernel on its c3 terms and clamps round-off
    negatives. The values take the broadcast shape of all three coordinates,
    whether or not the measure has a c3 term.
    """
    require_physical(c1, c2, c3)
    measure = Measure(measure)
    values = _KERNELS[measure](c1, c2, *_C3_TERMS[measure](c3))
    shape = np.broadcast(c1, c2, c3).shape
    if np.shape(values) != shape:  # a measure with no c3 term broadcasts c1 and c2 alone
        values = np.broadcast_to(values, shape).copy()
    return clamped_array(values)


def _l1_matrix(a: np.ndarray) -> np.ndarray:
    """Sum of absolute off-diagonal entries in the computational basis."""
    mags = np.abs(a)
    return mags.sum(axis=(-2, -1)) - mags.trace(axis1=-2, axis2=-1)


def _rel_entropy_matrix(a: np.ndarray) -> np.ndarray:
    """S(rho_diag) - S(rho) with rho_diag the dephased (diagonal) state.

    The spectrum of rho_diag is rho's diagonal, sorted ascending as ``eigh``
    returns a diagonal matrix's, so its entropy sums in the same order.
    """
    spectrum = np.sort(np.diagonal(a, axis1=-2, axis2=-1).real, axis=-1)
    return _spectral_entropy(spectrum) - _spectral_entropy(np.linalg.eigh(a)[0])


def _skew_matrix(a: np.ndarray) -> np.ndarray:
    """sum_k [<k|rho|k> - <k|sqrt(rho)|k>^2] (Girolami, PRL 113, 170401 (2014)).

    Summed as tr rho - sum_k <k|sqrt(rho)|k>^2, with the trace read off
    ``a``: a validated matrix may miss unit trace by rounding.
    """
    root_diag = np.diagonal(_psd_root(a, *np.linalg.eigh(a)), axis1=-2, axis2=-1).real
    trace = np.sum(np.diagonal(a, axis1=-2, axis2=-1).real, axis=-1)
    return trace - np.sum(root_diag**2, axis=-1)


_MATRIX = {
    Measure.L1: _l1_matrix,
    Measure.REL_ENT: _rel_entropy_matrix,
    Measure.SKEW: _skew_matrix,
}


def closed_measure(measure: Measure, c: BellCoefficients) -> float:
    """Closed-form value of ``measure`` at coefficients ``c``; one row of ``closed_measures``."""
    return float(closed_measures(measure, *stack_states([c])[0].tolist()))


def matrix_measure(measure: Measure, rho: np.ndarray) -> float | np.ndarray:
    """Definition-level value of ``measure`` on ``rho``, or per matrix of a stack.

    ``rho`` is validated once, after the measure name; ``_matrix_rows`` takes the result.
    """
    measure = Measure(measure)
    a = validate_density_matrix(rho)
    values = _matrix_rows(measure, a)
    return float(values) if a.ndim == 2 else values


def _matrix_rows(measure: Measure, matrices: np.ndarray) -> np.ndarray:
    """``matrix_measure`` of validated ``matrices``, (4, 4) or (..., 4, 4), validating none itself.

    The forms run the bodies of ``von_neumann_entropy`` and ``psd_sqrt`` on
    one ``eigh`` of each matrix: its Hermiticity, positivity and trace are
    the validation's, and only the root's reconstruction is checked here.
    The dephased spectrum, a validated matrix's diagonal, needs no check of
    its own either: each entry is at least the matrix's smallest
    eigenvalue, and the entries sum to its checked trace.
    """
    return clamped_array(_MATRIX[measure](matrices))
