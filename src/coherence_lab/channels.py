"""Product noise channels acting on both qubits of a Bell-diagonal state.

Each qubit passes through the same single-qubit channel E with Kraus
operators {E_i}, so the two-qubit map is

    Phi(rho) = sum_ij (E_i (x) E_j) rho (E_i (x) E_j)^dag.

Bell-diagonal states stay Bell diagonal under bf, pf, bpf, dep, and the
half-mixing amplitude-damping channel, and each coefficient c_k is simply
multiplied by a channel factor per iteration. ``coefficient_map`` applies
those factors; ``apply_n`` is the literal Kraus-operator route used to
cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    InternalNumericalError,
    MissingGammaError,
    ParameterRangeError,
    UnphysicalStateError,
)
from .linalg import HERMITIAN_TOL, PSD_TOL, TRACE_TOL
from .states import (
    BellCoefficients,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    is_physical,
    validate_density_matrix,
)

COMPLETENESS_TOL = 1e-12


class ChannelKind(str, Enum):
    BIT_FLIP = "bf"
    PHASE_FLIP = "pf"
    BIT_PHASE_FLIP = "bpf"
    DEPOLARIZING = "dep"
    AMPLITUDE_DAMPING = "gad"


class CoefficientMapMode(str, Enum):
    """Contraction convention for the dep channel.

    The Kraus route contracts each dep coefficient by (1 - 4p/3)^2 per
    iteration (``derived``); the single-contraction tabulation (1 - 4p/3)
    is kept available as ``paper`` for comparison. The two conventions
    coincide for every other channel.
    """

    PAPER = "paper"
    DERIVED = "derived"


@dataclass(frozen=True)
class KrausSet:
    """Single-qubit Kraus operators plus the parameters that produced them.

    ``products`` stacks the K^2 two-qubit operators E_i (x) E_j, i-major, and
    ``adjoints`` their conjugate transposes; ``kraus_set`` builds both once.
    """

    kind: ChannelKind
    p: float
    gamma: float | None
    operators: tuple[np.ndarray, ...]
    products: np.ndarray = field(repr=False)
    adjoints: np.ndarray = field(repr=False)


def _require_open_unit(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or not 0.0 < value < 1.0:
        raise ParameterRangeError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return value


def _require_iterations(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ParameterRangeError(f"iteration count must be a positive integer, got {n!r}")
    return int(n)


def kraus_set(kind: ChannelKind, p: float, gamma: float | None = None) -> KrausSet:
    """Build the single-qubit Kraus operators for ``kind``.

    bf / pf / bpf use {sqrt(1 - p/2) I, sqrt(p/2) sigma} with sigma_x,
    sigma_z, sigma_y respectively; dep uses {sqrt(1 - p) I, sqrt(p/3) sigma_i};
    gad mixes decay and excitation with weight p and damping gamma:

        E0 = sqrt(p) diag(1, sqrt(1 - gamma))    E1 = sqrt(p) gamma-decay
        E2 = sqrt(1-p) diag(sqrt(1 - gamma), 1)  E3 = sqrt(1-p) gamma-excitation
    """
    kind = ChannelKind(kind)
    p = _require_open_unit("p", p)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        if gamma is None:
            raise MissingGammaError("gad requires a damping parameter gamma")
        gamma = _require_open_unit("gamma", gamma)
        root_keep = np.sqrt(1.0 - gamma)
        root_move = np.sqrt(gamma)
        operators = (
            np.sqrt(p) * np.array([[1.0, 0.0], [0.0, root_keep]], dtype=np.complex128),
            np.sqrt(p) * np.array([[0.0, root_move], [0.0, 0.0]], dtype=np.complex128),
            np.sqrt(1.0 - p) * np.array([[root_keep, 0.0], [0.0, 1.0]], dtype=np.complex128),
            np.sqrt(1.0 - p) * np.array([[0.0, 0.0], [root_move, 0.0]], dtype=np.complex128),
        )
    else:
        if gamma is not None:
            raise ParameterRangeError("gamma only applies to the gad channel")
        if kind is ChannelKind.DEPOLARIZING:
            operators = (
                np.sqrt(1.0 - p) * IDENTITY_2,
                np.sqrt(p / 3.0) * SIGMA_X,
                np.sqrt(p / 3.0) * SIGMA_Y,
                np.sqrt(p / 3.0) * SIGMA_Z,
            )
        else:
            flip = {
                ChannelKind.BIT_FLIP: SIGMA_X,
                ChannelKind.PHASE_FLIP: SIGMA_Z,
                ChannelKind.BIT_PHASE_FLIP: SIGMA_Y,
            }[kind]
            operators = (
                np.sqrt(1.0 - p / 2.0) * IDENTITY_2,
                np.sqrt(p / 2.0) * flip,
            )
    completeness = sum(op.conj().T @ op for op in operators)
    defect = float(np.max(np.abs(completeness - IDENTITY_2)))
    if defect > COMPLETENESS_TOL:
        raise InternalNumericalError(
            f"Kraus completeness defect {defect:.3e} exceeds {COMPLETENESS_TOL:.1e}"
        )
    products, adjoints = _two_qubit_products(operators)
    return KrausSet(
        kind=kind, p=p, gamma=gamma, operators=operators, products=products, adjoints=adjoints
    )


def _two_qubit_products(operators: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The stacked E_i (x) E_j in np.kron's order, and their conjugate transposes.

    One broadcast multiply forms every entry E_i[r, c] * E_j[s, t], the same
    single product np.kron computes, so the stack equals the kron products
    bit for bit.
    """
    ops = np.stack(operators)
    count = len(operators)
    products = (ops[:, None, :, None, :, None] * ops[None, :, None, :, None, :]).reshape(
        count * count, 4, 4
    )
    adjoints = products.conj().transpose(0, 2, 1)
    products.setflags(write=False)
    adjoints.setflags(write=False)
    return products, adjoints


def single_parameter_kraus_set(kind: ChannelKind, p: float) -> KrausSet:
    """Kraus set matching ``coefficient_map``'s one-parameter convention.

    For gad the mixing weight is fixed at 1/2 and p plays the damping role;
    every other channel takes p directly.
    """
    kind = ChannelKind(kind)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        return kraus_set(kind, 0.5, gamma=p)
    return kraus_set(kind, p)


def _step(a: np.ndarray, kset: KrausSet) -> np.ndarray:
    """One application of E (x) E to a checked density matrix; checks its output.

    The terms P_k a P_k^dag are summed from zero in the order of
    ``kset.products``. The output is checked once, for everything
    ``validate_density_matrix`` would test when it becomes the next input:
    finite entries, unit trace, trace drift, Hermiticity and positivity.
    """
    out = np.add.reduce(kset.products @ a @ kset.adjoints, axis=0, initial=0.0)
    if not np.all(np.isfinite(out)):
        raise InternalNumericalError("channel output contains non-finite entries")
    trace = float(np.trace(out).real)
    if abs(trace - 1.0) > TRACE_TOL:
        raise InternalNumericalError(
            f"channel output trace {trace!r} deviates from 1 by more than {TRACE_TOL:.1e}"
        )
    trace_drift = abs(trace - float(np.trace(a).real))
    if trace_drift > 1e-12:
        raise InternalNumericalError(f"channel application drifted trace by {trace_drift:.3e}")
    defect = float(np.max(np.abs(out - out.conj().T)))
    if defect > HERMITIAN_TOL:
        raise InternalNumericalError(f"channel output hermiticity defect {defect:.3e}")
    smallest = float(np.linalg.eigvalsh(out)[0])
    if smallest < -PSD_TOL:
        raise InternalNumericalError(f"channel output eigenvalue {smallest:.3e} below -1e-12")
    return out


def apply_product_channel(rho: np.ndarray, kset: KrausSet) -> np.ndarray:
    """One application of E (x) E to a two-qubit density matrix."""
    return _step(validate_density_matrix(rho), kset)


def apply_n(rho: np.ndarray, kset: KrausSet, n: int) -> np.ndarray:
    """n successive applications of the product channel.

    ``rho`` is validated once; every later input is a step's checked output.
    """
    n = _require_iterations(n)
    out = validate_density_matrix(rho)
    for _ in range(n):
        out = _step(out, kset)
    return out


def per_iteration_factors(
    kind: ChannelKind, p: float, mode: CoefficientMapMode = CoefficientMapMode.DERIVED
) -> tuple[float, float, float]:
    """Multiplicative factors (f1, f2, f3) applied to (c1, c2, c3) per iteration."""
    kind = ChannelKind(kind)
    mode = CoefficientMapMode(mode)
    p = _require_open_unit("p", p)
    if kind is ChannelKind.BIT_FLIP:
        shrink = (1.0 - p) * (1.0 - p)
        return (1.0, shrink, shrink)
    if kind is ChannelKind.PHASE_FLIP:
        shrink = (1.0 - p) * (1.0 - p)
        return (shrink, shrink, 1.0)
    if kind is ChannelKind.BIT_PHASE_FLIP:
        shrink = (1.0 - p) * (1.0 - p)
        return (shrink, 1.0, shrink)
    if kind is ChannelKind.DEPOLARIZING:
        base = 1.0 - 4.0 * p / 3.0
        shrink = base if mode is CoefficientMapMode.PAPER else base * base
        return (shrink, shrink, shrink)
    keep = 1.0 - p
    return (keep, keep, keep * keep)


def coefficient_map(
    kind: ChannelKind,
    p: float,
    n: int,
    c: BellCoefficients,
    mode: CoefficientMapMode = CoefficientMapMode.DERIVED,
) -> BellCoefficients:
    """Coefficients after n iterations, by repeated factor multiplication.

    The factors are applied once per iteration (rather than raised to the
    n-th power) so that mapping n1 + n2 iterations equals mapping n2 after
    n1 bit for bit.
    """
    n = _require_iterations(n)
    if not is_physical(c):
        raise UnphysicalStateError(
            f"coefficients {tuple(c)} lie outside the physical tetrahedron"
        )
    f1, f2, f3 = per_iteration_factors(kind, p, mode)
    c1, c2, c3 = float(c[0]), float(c[1]), float(c[2])
    for _ in range(n):
        c1 *= f1
        c2 *= f2
        c3 *= f3
    return BellCoefficients(c1, c2, c3)
