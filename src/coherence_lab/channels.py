"""Product noise channels acting on both qubits of a Bell-diagonal state.

Each qubit passes through the same single-qubit channel E with Kraus
operators {E_i}, so the two-qubit map is

    Phi(rho) = sum_ij (E_i (x) E_j) rho (E_i (x) E_j)^dag.

Bell-diagonal states stay Bell diagonal under bf, pf, bpf, dep, and the
half-mixing amplitude-damping channel, and each coefficient c_k is simply
multiplied by a channel factor per iteration. ``coefficient_map`` applies
those factors; ``apply_n`` (one Kraus set) and ``evolve_matrices`` (a
channel per row) are the literal Kraus-operator route used to check them.

Each kind's Kraus operators are stated once, in ``_operators``, for an
array of p. ``_kraus_sets`` builds the operator, product and adjoint
arrays of many p values together; ``kraus_set`` and
``single_parameter_kraus_set`` wrap its one-row case in a ``KrausSet``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

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
    PAULI,
    require_physical,
    stack_states,
    validate_density_matrix,
)

COMPLETENESS_TOL = 1e-12
# largest trace change one channel step may make before it is an internal error
TRACE_DRIFT_TOL = 1e-12
# most rows ``evolve_matrices`` steps in one stack, which keeps the stack's
# per-row Kraus products and their adjoints under 1 MB
_ROWS_PER_STACK = 100


class ChannelKind(Choice):
    BIT_FLIP = "bf"
    PHASE_FLIP = "pf"
    BIT_PHASE_FLIP = "bpf"
    DEPOLARIZING = "dep"
    AMPLITUDE_DAMPING = "gad"


# the flip channels: each flips with sigma_axis and keeps c_axis, whose
# sigma_axis (x) sigma_axis commutes with the flip, while the other two shrink
_FLIP_AXIS = {ChannelKind.BIT_FLIP: 0, ChannelKind.BIT_PHASE_FLIP: 1, ChannelKind.PHASE_FLIP: 2}


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
    ``adjoints`` their conjugate transposes: row 0 of ``_kraus_sets``'
    read-only arrays.
    """

    kind: ChannelKind
    p: float
    gamma: float | None
    operators: tuple[np.ndarray, ...]
    products: np.ndarray = field(repr=False)
    adjoints: np.ndarray = field(repr=False)


def kraus_set(kind: ChannelKind, p: float, gamma: float | None = None) -> KrausSet:
    """The Kraus set of ``kind`` at p (and, for gad, gamma): ``_kraus_sets``'s one-row case."""
    kind = ChannelKind(kind)
    p = require_probability("p", p)
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        if gamma is None:
            raise MissingGammaError("gad requires a damping parameter gamma")
        gamma = require_probability("gamma", gamma)
    elif gamma is not None:
        raise ParameterRangeError("gamma only applies to the gad channel")
    ops, products, adjoints = _kraus_sets(kind, [p], gamma)
    return KrausSet(kind=kind, p=p, gamma=gamma, operators=tuple(ops[0]),
                    products=products[0], adjoints=adjoints[0])


def _operators(kind: ChannelKind, p: np.ndarray, gamma: np.ndarray | None) -> np.ndarray:
    """The (P, K, 2, 2) single-qubit Kraus operators of ``kind``, one row per entry of ``p``.

    bf / bpf / pf use {sqrt(1 - p/2) I, sqrt(p/2) sigma} with sigma_x,
    sigma_y, sigma_z respectively (``_FLIP_AXIS``); dep uses
    {sqrt(1 - p) I, sqrt(p/3) sigma_i};
    gad mixes decay and excitation with weight p and damping gamma:

        E0 = sqrt(p) diag(1, sqrt(1 - gamma))    E1 = sqrt(p) gamma-decay
        E2 = sqrt(1-p) diag(sqrt(1 - gamma), 1)  E3 = sqrt(1-p) gamma-excitation

    Each operator is a real weight in p times a matrix free of p, one
    product per entry, so every row has the bits it would get alone.
    """
    if kind is ChannelKind.AMPLITUDE_DAMPING:
        bases = np.zeros((len(gamma), 4, 2, 2), dtype=np.complex128)
        bases[:, 0, 0, 0] = bases[:, 2, 1, 1] = 1.0
        bases[:, 0, 1, 1] = bases[:, 2, 0, 0] = np.sqrt(1.0 - gamma)
        bases[:, 1, 0, 1] = bases[:, 3, 1, 0] = np.sqrt(gamma)
        weights = (np.sqrt(p),) * 2 + (np.sqrt(1.0 - p),) * 2
    elif kind is ChannelKind.DEPOLARIZING:
        bases = np.stack((IDENTITY_2, *PAULI))
        weights = (np.sqrt(1.0 - p),) + (np.sqrt(p / 3.0),) * 3
    else:
        bases = np.stack((IDENTITY_2, PAULI[_FLIP_AXIS[kind]]))
        weights = (np.sqrt(1.0 - p / 2.0), np.sqrt(p / 2.0))
    return np.stack(weights, axis=-1)[..., None, None] * bases


def _kraus_sets(kind: ChannelKind, p, gamma) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Kraus sets of the checked probabilities ``p`` (and ``gamma``, gad only), as arrays.

    ``p`` and ``gamma`` broadcast to one 1-D array of P entries. Returns the
    read-only (P, K, 2, 2) operators and the (P, K^2, 4, 4) two-qubit
    products and their adjoints, row k for entry k. The operators, the
    completeness check sum E^dag E = I and the products are each formed
    once for every entry. One broadcast multiply forms every entry
    E_i[r, c] * E_j[s, t], the same single product np.kron computes, so the
    products equal the kron products bit for bit.
    """
    p = np.asarray(p, dtype=np.float64)
    if gamma is not None:
        p, gamma = np.broadcast_arrays(p, np.asarray(gamma, dtype=np.float64))
    ops = _operators(kind, p, gamma)
    completeness = np.add.reduce(ops.conj().swapaxes(-1, -2) @ ops, axis=-3)
    defect = np.max(np.abs(completeness - IDENTITY_2), axis=(-2, -1))
    raise_for_first(defect > COMPLETENESS_TOL, lambda row: InternalNumericalError(
        f"Kraus completeness defect {row_value(defect, row):.3e} exceeds {COMPLETENESS_TOL:.1e}"
    ))
    products = (ops[:, :, None, :, None, :, None] * ops[:, None, :, None, :, None, :]).reshape(
        len(ops), -1, 4, 4
    )
    adjoints = products.conj().swapaxes(-1, -2)
    for array in (ops, products, adjoints):
        array.setflags(write=False)
    return ops, products, adjoints


def _single_parameter_args(kind: ChannelKind, p):
    """``kraus_set``'s (p, gamma) under ``coefficient_map``'s one-parameter convention.

    For gad the mixing weight is fixed at 1/2 and p plays the damping role;
    every other channel takes p directly.
    """
    return (0.5, p) if kind is ChannelKind.AMPLITUDE_DAMPING else (p, None)


def single_parameter_kraus_set(kind: ChannelKind, p: float) -> KrausSet:
    """Kraus set matching ``coefficient_map``'s one-parameter convention."""
    kind = ChannelKind(kind)
    return kraus_set(kind, *_single_parameter_args(kind, p))


def _step(a: np.ndarray, products: np.ndarray, adjoints: np.ndarray) -> np.ndarray:
    """One application of E (x) E to checked density matrices; checks its output.

    ``a`` is an (N, 4, 4) stack, and ``products``/``adjoints`` are the
    (N, K^2, 4, 4) products and adjoints of its rows' Kraus sets. Every
    P_k a of a row is one matmul, the row's products stacked into a
    (4 K^2, 4) matrix times a; each P_k a P_k^dag is then its own matmul,
    and the terms are summed from zero in the order of the products. Each
    output is checked once, by ``validate_density_matrix`` and for trace
    drift, so it can be the next input unchecked. A check that fails here
    is the channel's fault, not the caller's, so it raises
    InternalNumericalError.
    """
    left = (products.reshape(len(a), -1, 4) @ a).reshape(products.shape)
    out = np.add.reduce(left @ adjoints, axis=-3, initial=0.0)
    try:
        validate_density_matrix(out)
    except ValidationError as exc:
        raise InternalNumericalError(f"channel output: {exc}") from exc
    trace = out.trace(axis1=-2, axis2=-1).real
    drift = np.abs(trace - a.trace(axis1=-2, axis2=-1).real)
    raise_for_first(drift > TRACE_DRIFT_TOL, lambda row: InternalNumericalError(
        f"channel application drifted trace by {row_value(drift, row):.3e}"
    ))
    return out


def apply_product_channel(rho: np.ndarray, kset: KrausSet) -> np.ndarray:
    """One application of E (x) E to a two-qubit density matrix (or a stack)."""
    return apply_n(rho, kset, 1)


def apply_n(rho: np.ndarray, kset: KrausSet, n: int | Sequence[int]) -> np.ndarray:
    """n successive applications of the product channel of ``kset``.

    ``rho`` is one density matrix or an (N, 4, 4) stack; one matrix runs as
    a stack of one, and every row is stepped through ``kset``. ``n`` is one
    count or, for a stack, N of them; a row stops once it has had its own n
    steps. ``rho`` is validated once; every later input is a step's
    checked output. Rows with channels of their own go through
    ``evolve_matrices``.
    """
    counts = np.array([
        require_count("iteration count", k) for k in np.ravel(np.array(n, dtype=object))
    ])
    if not isinstance(kset, KrausSet):
        raise ValidationError(f"expected a KrausSet, got {type(kset).__name__}")
    a = validate_density_matrix(rho)
    stack = a.reshape(-1, 4, 4)
    if np.ndim(n) == 0:
        counts = np.full(len(stack), counts[0])
    elif counts.size != len(stack):
        raise ValidationError(f"{counts.size} iteration counts for a stack of shape {a.shape}")
    args = [np.broadcast_to(x, (len(stack),) + x.shape) for x in (kset.products, kset.adjoints)]
    return _per_row_steps(stack, counts, _step, args).reshape(a.shape)


def evolve_matrices(rho: np.ndarray, kinds, ps, counts) -> np.ndarray:
    """The (N, 4, 4) stack ``rho`` with row k after ``counts[k]`` steps of its own channel.

    Row k's channel is ``single_parameter_kraus_set(kinds[k], ps[k])``. The
    counts and the whole stack are checked once. The rows are then stepped
    one channel kind at a time, since a stack of Kraus products needs one
    operator count, in blocks of at most ``_ROWS_PER_STACK`` rows. Each
    block makes one ``_kraus_sets`` call on its distinct p values and
    steps its rows through ``_per_row_steps`` with each row's products.
    Every row gets the bits ``apply_n`` gives it alone.
    """
    stack = np.asarray(rho)
    kinds = [ChannelKind(kind) for kind in kinds]
    if stack.ndim != 3 or not len(kinds) == len(ps) == len(counts) == len(stack):
        raise ValidationError(f"{len(kinds)} kinds, {len(ps)} p values and {len(counts)} "
                              f"iteration counts for a stack of shape {stack.shape}")
    counts = np.array([require_count("iteration count", k) for k in counts])
    stack = validate_density_matrix(stack)
    out = np.empty(stack.shape, dtype=np.complex128)
    for kind in dict.fromkeys(kinds):
        same_kind = [row for row, k in enumerate(kinds) if k is kind]
        for start in range(0, len(same_kind), _ROWS_PER_STACK):
            rows = same_kind[start:start + _ROWS_PER_STACK]
            # each distinct p of the block, numbered in the order first seen
            seen = {}
            inverse = [seen.setdefault(require_probability("p", ps[r]), len(seen)) for r in rows]
            _, products, adjoints = _kraus_sets(kind, *_single_parameter_args(kind, list(seen)))
            # passed inline, so each block's per-row products are freed once it has stepped
            out[rows] = _per_row_steps(
                stack[rows], counts[rows], _step, (products[inverse], adjoints[inverse])
            )
    return out


def _per_row_steps(rows: np.ndarray, counts: np.ndarray, step, args: tuple) -> np.ndarray:
    """``rows`` with row k replaced by ``counts[k]`` applications of ``step``.

    ``step(rows, *args)`` maps a stack of rows to the next one, with
    ``args`` the per-row arrays in row order, cut to the same rows. The rows
    and ``args`` are sorted once by descending count (a stable sort, so the
    identity when every count is equal) and run longest first, in phases
    between distinct counts: the rows still going in a phase are a leading
    slice of the sorted stack, so no phase copies them, and a row stops once
    it has had its own count of steps. The inputs are never written.
    """
    order = np.argsort(-counts, kind="stable")
    stack, counts = rows[order], counts[order]
    args = [arg[order] for arg in args]
    done = 0
    for count in sorted(set(counts.tolist())):
        going = int(np.count_nonzero(counts >= count))
        head, cut = stack[:going], [arg[:going] for arg in args]
        for _ in range(count - done):
            head = step(head, *cut)
        stack[:going] = head
        done = count
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
    if kind in _FLIP_AXIS:
        shrink = (1.0 - p) * (1.0 - p)
        return tuple(1.0 if axis == _FLIP_AXIS[kind] else shrink for axis in range(3))
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
    c = stack_states([c])[0].tolist()
    require_physical(*c)
    factors = per_iteration_factors(kind, p, mode)
    evolved = evolve_rows(np.array([c], dtype=np.float64), np.array([factors]), np.array([n]))
    return BellCoefficients(*(float(x) for x in evolved[0]))


def evolve_rows(coefficients: np.ndarray, factors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(N, 3) coefficients after each row's own count of per-iteration multiplications.

    Row k is multiplied by its factors ``counts[k]`` times (never a power)
    and then left alone, the same per-row stop ``apply_n`` uses.
    """
    return _per_row_steps(
        np.asarray(coefficients, dtype=np.float64), np.asarray(counts), np.multiply,
        (np.asarray(factors, dtype=np.float64),),
    )
