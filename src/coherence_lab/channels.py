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
from typing import Sequence

import numpy as np

from .errors import (
    Choice,
    InternalNumericalError,
    MissingGammaError,
    ParameterRangeError,
    ValidationError,
    require_count,
    require_probability,
)
from .linalg import raise_for_first, row_value
from .states import (
    BellCoefficients,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    require_physical,
    validate_density_matrix,
)

COMPLETENESS_TOL = 1e-12


class ChannelKind(Choice):
    BIT_FLIP = "bf"
    PHASE_FLIP = "pf"
    BIT_PHASE_FLIP = "bpf"
    DEPOLARIZING = "dep"
    AMPLITUDE_DAMPING = "gad"


class CoefficientMapMode(Choice):
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


def kraus_set(kind: ChannelKind, p: float, gamma: float | None = None) -> KrausSet:
    """Build the single-qubit Kraus operators for ``kind``.

    bf / pf / bpf use {sqrt(1 - p/2) I, sqrt(p/2) sigma} with sigma_x,
    sigma_z, sigma_y respectively; dep uses {sqrt(1 - p) I, sqrt(p/3) sigma_i};
    gad mixes decay and excitation with weight p and damping gamma:

        E0 = sqrt(p) diag(1, sqrt(1 - gamma))    E1 = sqrt(p) gamma-decay
        E2 = sqrt(1-p) diag(sqrt(1 - gamma), 1)  E3 = sqrt(1-p) gamma-excitation
    """
    kind = ChannelKind(kind)
    p = require_probability("p", p)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        if gamma is None:
            raise MissingGammaError("gad requires a damping parameter gamma")
        gamma = require_probability("gamma", gamma)
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


def _step(a: np.ndarray, products: np.ndarray, adjoints: np.ndarray) -> np.ndarray:
    """One application of E (x) E to checked density matrices; checks its output.

    ``a`` is one matrix or an (N, 4, 4) stack, and ``products``/``adjoints``
    are shared (K^2, 4, 4) stacks or per-row (N, K^2, 4, 4) ones. The terms
    P_k a P_k^dag are summed from zero in the order of the products. Each
    output is checked once, by ``validate_density_matrix`` and for trace
    drift, so it can be the next input unchecked. A check that fails here is
    the channel's fault, not the caller's, so it raises InternalNumericalError.
    """
    terms = products @ a[..., None, :, :] @ adjoints
    out = np.add.reduce(terms, axis=-3, initial=0.0)
    try:
        validate_density_matrix(out)
    except ValidationError as exc:
        raise InternalNumericalError(f"channel output: {exc}") from exc
    trace = out.trace(axis1=-2, axis2=-1).real
    drift = np.abs(trace - a.trace(axis1=-2, axis2=-1).real)
    raise_for_first(drift > 1e-12, lambda row: InternalNumericalError(
        f"channel application drifted trace by {row_value(drift, row):.3e}"
    ))
    return out


def apply_product_channel(rho: np.ndarray, kset: KrausSet) -> np.ndarray:
    """One application of E (x) E to a two-qubit density matrix (or a stack)."""
    return apply_n(rho, kset, 1)


def apply_n(
    rho: np.ndarray, kset: KrausSet | Sequence[KrausSet], n: int | Sequence[int]
) -> np.ndarray:
    """n successive applications of the product channel.

    ``rho`` is one density matrix or an (N, 4, 4) stack; one matrix runs as
    a stack of one. For a stack, ``kset`` may be one Kraus set or N of them
    (one per row, all with the same number of operators), and ``n`` one
    count or N of them; a row stops once it has had its own n steps. ``rho``
    is validated once; every later input is a step's checked output.
    """
    counts = np.array([
        require_count("iteration count", k) for k in np.ravel(np.array(n, dtype=object))
    ])
    a = validate_density_matrix(rho)
    stack = a.reshape(-1, 4, 4)
    if np.ndim(n) == 0:
        counts = np.full(len(stack), counts[0])
    elif counts.size != len(stack):
        raise ValidationError(f"{counts.size} iteration counts for a stack of shape {a.shape}")
    if isinstance(kset, KrausSet):
        out = _per_row_steps(stack, counts, lambda rows: _step(rows, kset.products, kset.adjoints))
    else:
        if len(kset) != len(stack):
            raise ValidationError(f"{len(kset)} Kraus sets for a stack of shape {a.shape}")
        if len({k.products.shape for k in kset}) > 1:
            raise ValidationError("the Kraus sets of one stack must have equal operator counts")
        out = _per_row_steps(stack, counts, _step, lambda order: (
            np.stack([kset[k].products for k in order]),
            np.stack([kset[k].adjoints for k in order]),
        ))
    return out.reshape(a.shape)


def _per_row_steps(out: np.ndarray, counts: np.ndarray, step, per_row=lambda order: ()):
    """``out`` with row k replaced by ``counts[k]`` applications of ``step``.

    ``step(rows, *args)`` maps a stack of rows to the next one, with
    ``args`` the per-row arrays that ``per_row(order)`` builds in the row
    order ``order``, cut to the same rows. Rows run longest first, in phases
    between distinct counts: the rows still going in a phase are a leading
    slice of the sorted stack, so no phase copies them, and a row stops once
    it has had its own count of steps. When every count is equal, the whole
    stack is one phase in its own order, which runs the same operations.
    """
    if counts.size and (counts == counts[0]).all():
        args = per_row(np.arange(len(counts)))
        for _ in range(int(counts[0])):
            out = step(out, *args)
        return out
    order = np.argsort(-counts, kind="stable")
    stack, counts, args = out[order], counts[order], per_row(order)
    done = 0
    for count in np.unique(counts):
        going = int(np.count_nonzero(counts >= count))
        head, cut = stack[:going], tuple(arg[:going] for arg in args)
        for _ in range(int(count) - done):
            head = step(head, *cut)
        stack[:going] = head
        done = int(count)
    out = np.empty_like(stack)
    out[order] = stack
    return out


def per_iteration_factors(
    kind: ChannelKind, p: float, mode: CoefficientMapMode = CoefficientMapMode.DERIVED
) -> tuple[float, float, float]:
    """Multiplicative factors (f1, f2, f3) applied to (c1, c2, c3) per iteration."""
    kind = ChannelKind(kind)
    mode = CoefficientMapMode(mode)
    p = require_probability("p", p)
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
    n = require_count("iteration count", n)
    require_physical(*c)
    factors = per_iteration_factors(kind, p, mode)
    evolved = evolve_rows(np.array([c], dtype=np.float64), np.array([factors]), np.array([n]))
    return BellCoefficients(*(float(x) for x in evolved[0]))


def evolve_rows(coefficients: np.ndarray, factors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(N, 3) coefficients after each row's own count of per-iteration multiplications.

    Row k is multiplied by its factors ``counts[k]`` times (never a power)
    and then left alone, the same per-row stop ``apply_n`` uses.
    """
    factors = np.asarray(factors, dtype=np.float64)
    return _per_row_steps(
        np.asarray(coefficients, dtype=np.float64), np.asarray(counts), np.multiply,
        lambda order: (factors[order],),
    )
