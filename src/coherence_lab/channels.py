"""Product noise channels acting on both qubits of a Bell-diagonal state.

Each qubit passes through the same single-qubit channel E with Kraus
operators {E_i}, so the two-qubit map is

    Phi(rho) = sum_ij (E_i (x) E_j) rho (E_i (x) E_j)^dag.

Bell-diagonal states stay Bell diagonal under bf, pf, bpf, dep, and the
half-mixing amplitude-damping channel, and each coefficient c_k is simply
multiplied by a channel factor per iteration. ``evolve_coefficients`` (a
channel per row) applies those factors; ``apply_n`` (one Kraus set) and
its twin ``evolve_matrices`` are the literal Kraus-operator route used to
check them. Both twins check their rows in ``_checked_rows`` and then
run a private body that checks nothing, ``_evolve_coefficients`` and
``_evolve_matrices``, which ``decay_rates`` calls once it has made those
checks itself.

Each kind's per-iteration factors are stated once, unchecked, in
``_factor_rows``, for an array of p; ``per_iteration_factors`` (one
channel) checks what it passes it, and ``_evolve_coefficients`` (one call
per (kind, mode) group) passes it rows that its callers have checked.

Each kind's Kraus operators are stated once, in ``_operators``, for an
array of p. ``_kraus_sets`` builds the operator and product arrays of
many p values together; ``kraus_set`` and
``single_parameter_kraus_set`` wrap its one-row case in a ``KrausSet``.
Every two-qubit product of the five kinds has at most one nonzero per row,
so a channel step (``_step``) gathers each entry of P_k rho P_k^dag from
rho instead of multiplying 4x4 matrices; ``_supports`` turns the products
into the indices and values it gathers with, and refuses any other product.
A step checks only trace drift. A Kraus sum maps PSD Hermitian matrices to
PSD Hermitian matrices, so only rounding can break those properties
between steps; ``_kraus_steps``, the one place a stepped stack leaves the
oracle, validates each final matrix once.
"""

from __future__ import annotations

from collections.abc import Iterable
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
    require_rows,
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
# most rows ``evolve_matrices`` steps in one stack; a block holds per row its
# Kraus products (about 4 KB), their gather form (``_supports``, about 4 KB)
# and its step's gather index and terms (about 6 KB)
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

    ``products`` stacks the K^2 two-qubit operators E_i (x) E_j, i-major:
    row 0 of ``_kraus_sets``' read-only arrays.
    """

    kind: ChannelKind
    p: float
    gamma: float | None
    operators: tuple[np.ndarray, ...]
    products: np.ndarray = field(repr=False)


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
    ops, products = _kraus_sets(kind, [p], gamma)
    return KrausSet(kind=kind, p=p, gamma=gamma, operators=tuple(ops[0]), products=products[0])


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


def _kraus_sets(kind: ChannelKind, p, gamma) -> tuple[np.ndarray, np.ndarray]:
    """The Kraus sets of the checked probabilities ``p`` (and ``gamma``, gad only), as arrays.

    ``p`` and ``gamma`` broadcast to one 1-D array of P entries. Returns the
    read-only (P, K, 2, 2) operators and (P, K^2, 4, 4) two-qubit
    products, row k for entry k. The operators, the completeness check
    sum E^dag E = I and the products are each formed once for every
    entry. One broadcast multiply forms every entry
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
    for array in (ops, products):
        array.setflags(write=False)
    return ops, products


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


def _supports(products: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gather form of the (..., K^2, 4, 4) two-qubit Kraus products ``products``.

    Every product of the five kinds has at most one nonzero per row, so
    row r of P_k is v[r] times unit row pi(r). Returns the flat indices
    ``4 pi(r) + pi(s)`` of each product's 16 entries, shape (..., K^2, 16),
    the row values v, shape (..., K^2, 4), and their conjugates, formed
    here once for every step that uses them; a row of zeros has pi(r) = 0
    and v[r] = 0. A product with two nonzeros in a row has no such form and
    raises InternalNumericalError for the first such row.
    """
    nonzero = products != 0
    spread = np.count_nonzero(nonzero, axis=-1)
    raise_for_first(spread > 1, lambda row: InternalNumericalError(
        f"Kraus product {row // 4} has {row_value(spread, row):.0f} nonzeros in row {row % 4}; "
        "a channel step takes at most one per row"
    ))
    columns = np.argmax(nonzero, axis=-1)
    values = np.take_along_axis(products, columns[..., None], axis=-1)[..., 0]
    flat = 4 * columns[..., :, None] + columns[..., None, :]
    return flat.reshape(columns.shape[:-1] + (16,)), values, values.conj()


def _step(a: np.ndarray, flat: np.ndarray, values: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """One application of E (x) E to a stack of density matrices; checks its trace drift.

    ``a`` is an (N, 4, 4) stack, and ``flat``/``values``/``conj`` are
    ``_supports`` of its rows' (N, K^2, 4, 4) Kraus products. Entry (r, s)
    of P_k a P_k^dag is the single product v[r] a[pi r, pi s] conj(v[s]):
    one ``take`` on the flattened stack, at ``flat`` plus 16 times each
    row's position in ``a``, forms every a[pi r, pi s] of every row, and two
    elementwise multiplies weight them in the order the two matmuls would.
    Every entry of a product of the five kinds is purely real or purely
    imaginary, so the matmuls' other terms are exact zeros and these are
    their bits; the terms are summed from +0.0, in the order of the
    products, which erases any difference in the sign of a zero. Each output
    is checked for trace drift only, which catches a wrong product on its
    first step; a drift is the channel's fault, not the caller's, so it
    raises InternalNumericalError. ``_kraus_steps`` validates the last output.
    """
    offsets = np.arange(0, 16 * len(a), 16).reshape(-1, 1, 1)
    terms = np.take(a.reshape(-1), flat + offsets).reshape(flat.shape[:-1] + (4, 4))
    np.multiply(values[..., :, None], terms, out=terms)
    terms *= conj[..., None, :]
    out = np.add.reduce(terms, axis=-3, initial=0.0)
    trace = out.trace(axis1=-2, axis2=-1).real
    drift = np.abs(trace - a.trace(axis1=-2, axis2=-1).real)
    raise_for_first(drift > TRACE_DRIFT_TOL, lambda row: InternalNumericalError(
        f"channel application drifted trace by {row_value(drift, row):.3e}"
    ))
    return out


def _kraus_steps(rows: np.ndarray, counts: np.ndarray, supports) -> np.ndarray:
    """``rows`` after each row's own count of ``_step``s, every matrix validated once.

    ``supports`` is ``_supports`` of the rows' Kraus products, one entry per
    row. This is where a stepped stack leaves the oracle: its final
    matrices go through ``validate_density_matrix`` once, and a failure,
    the channel's fault, raises InternalNumericalError.
    """
    try:
        return validate_density_matrix(_per_row_steps(rows, counts, _step, supports))
    except ValidationError as exc:
        raise InternalNumericalError(f"channel output: {exc}") from exc


def apply_product_channel(rho: np.ndarray, kset: KrausSet) -> np.ndarray:
    """One application of E (x) E to a two-qubit density matrix (or a stack)."""
    return apply_n(rho, kset, 1)


def apply_n(rho: np.ndarray, kset: KrausSet, n: int | Iterable[int]) -> np.ndarray:
    """n successive applications of the product channel of ``kset``.

    ``rho`` is one density matrix or an (N, 4, 4) stack; one matrix runs as
    a stack of one, and every row is stepped through ``kset``, whose
    products go through ``_supports`` once; its indices, values and
    conjugates are broadcast to every row and handed to ``_kraus_steps``.
    ``n`` is one count or one per row, each checked before ``rho`` is read;
    a row stops once it has had its own n steps.
    ``rho`` is validated once, and the result once, in ``_kraus_steps``.
    Rows with channels of their own go through ``evolve_matrices``.
    """
    single = not isinstance(n, Iterable)
    counts = [require_count("iteration count", k)
              for k in ([n] if single else require_rows("iteration counts", n))]
    if not isinstance(kset, KrausSet):
        raise ValidationError(f"expected a KrausSet, got {type(kset).__name__}")
    a = validate_density_matrix(rho)
    stack = a.reshape(-1, 4, 4)
    counts = require_rows("iteration counts", counts * len(stack) if single else counts, len(stack))
    args = [np.broadcast_to(x, (len(stack),) + x.shape) for x in _supports(kset.products)]
    return _kraus_steps(stack, np.array(counts), args).reshape(a.shape)


def _checked_rows(stack: np.ndarray, row_shape: tuple[int, ...], kinds, ps, counts):
    """The checked (kinds, ps, counts) of ``stack``, whose rows each have a channel of their own.

    Both per-row twins check in this order: rows of shape ``row_shape``,
    one kind, p and count per row (``require_rows``), every count, then
    each row's kind and p in row order, so both name the same first bad row.
    """
    if stack.shape[1:] != row_shape:
        raise ValidationError(f"expected a stack of rows of shape {row_shape}, got {stack.shape}")
    kinds, ps, counts = (require_rows(name, rows, len(stack)) for name, rows in
                         (("kinds", kinds), ("p values", ps), ("iteration counts", counts)))
    counts = np.array([require_count("iteration count", k) for k in counts])
    checked = [(ChannelKind(kind), require_probability("p", p)) for kind, p in zip(kinds, ps)]
    return [kind for kind, _ in checked], [p for _, p in checked], counts


def evolve_matrices(rho: np.ndarray, kinds, ps, counts) -> np.ndarray:
    """The (N, 4, 4) stack ``rho`` with row k after ``counts[k]`` steps of its own channel.

    Row k's channel is ``single_parameter_kraus_set(kinds[k], ps[k])``. The
    checked door of ``_evolve_matrices``: the rows are checked by
    ``_checked_rows`` and the whole stack once, before any step, so an
    error names the row ``evolve_coefficients`` names.
    """
    stack = np.asarray(rho)
    kinds, ps, counts = _checked_rows(stack, (4, 4), kinds, ps, counts)
    return _evolve_matrices(validate_density_matrix(stack), kinds, ps, counts)


def _evolve_matrices(stack: np.ndarray, kinds, ps, counts) -> np.ndarray:
    """``evolve_matrices`` of a validated stack and its ``_checked_rows``; checks no input.

    The rows are stepped one channel kind at a time, since a stack of
    Kraus products needs one operator count, in blocks of at most
    ``_ROWS_PER_STACK`` rows. Each block makes one ``_kraus_sets`` and one
    ``_supports`` call on its rows' p values, in row order, and hands its
    rows and their gather indices and values to ``_kraus_steps``, which
    validates the block's final matrices once. ``_kraus_sets`` gives every
    row the bits it would get alone, so every row gets the bits ``apply_n``
    gives it alone.
    """
    out = np.empty(stack.shape, dtype=np.complex128)
    for kind in dict.fromkeys(kinds):
        same_kind = [row for row, k in enumerate(kinds) if k is kind]
        for start in range(0, len(same_kind), _ROWS_PER_STACK):
            rows = same_kind[start:start + _ROWS_PER_STACK]
            _, products = _kraus_sets(kind, *_single_parameter_args(kind, [ps[r] for r in rows]))
            out[rows] = _kraus_steps(stack[rows], counts[rows], _supports(products))
    return out


def _per_row_steps(rows: np.ndarray, counts: np.ndarray, step, args) -> np.ndarray:
    """``rows`` with row k replaced by ``counts[k]`` applications of ``step``.

    ``step(rows, *args)`` maps a stack of rows to the next one, with
    ``args`` per-row arrays in the order of ``rows``. Nothing is checked:
    the callers give each row one count and one entry of every array. This
    is the one place that orders rows for stepping. When every row has the
    same count, the rows are stepped as given, with no sort. Otherwise
    ``rows`` and ``args`` are gathered once, by a stable sort on descending
    count, and run longest first, in phases between distinct counts. The
    rows still going in a phase are a leading slice of the sorted stack, so
    no phase copies them, and a row stops once it has had its own count of
    steps. The inputs are never written.
    """
    if len(counts) and (counts == counts[0]).all():
        for _ in range(int(counts[0])):
            rows = step(rows, *args)
        return rows
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


def _factor_rows(kind: ChannelKind, p, mode: CoefficientMapMode) -> np.ndarray:
    """The (P, 3) factors (f1, f2, f3) applied to (c1, c2, c3) per iteration, row k for ``p[k]``.

    Each kind's factors are stated once, for an array of checked p: a flip
    keeps its axis (1.0) and shrinks the other two by (1 - p)(1 - p); dep
    shrinks all three by 1 - 4p/3 ('paper') or its square ('derived'); gad
    keeps 1 - p on c1 and c2 and (1 - p)(1 - p) on c3. Like ``_kraus_sets``
    it checks nothing: ``per_iteration_factors``, ``evolve_coefficients``
    and ``decay_rates`` check its inputs. The factors are elementwise expressions, so every
    row has the bits it would get alone.
    """
    p = np.asarray(p, dtype=np.float64)
    if kind in _FLIP_AXIS:
        shrink = (1.0 - p) * (1.0 - p)
        return np.where(np.arange(3) == _FLIP_AXIS[kind], 1.0, shrink[:, None])
    if kind is ChannelKind.DEPOLARIZING:
        base = 1.0 - 4.0 * p / 3.0
        shrink = base if mode is CoefficientMapMode.PAPER else base * base
        return np.stack((shrink,) * 3, axis=-1)
    keep = 1.0 - p
    return np.stack((keep, keep, keep * keep), axis=-1)


def per_iteration_factors(
    kind: ChannelKind, p: float, mode: CoefficientMapMode = CoefficientMapMode.DERIVED
) -> tuple[float, float, float]:
    """Multiplicative factors (f1, f2, f3) applied to (c1, c2, c3) per iteration.

    Checks the kind, the mode and p, then takes the one-row case of ``_factor_rows``.
    """
    kind, mode = ChannelKind(kind), CoefficientMapMode(mode)
    return tuple(_factor_rows(kind, [require_probability("p", p)], mode)[0].tolist())


def evolve_coefficients(coefficients: np.ndarray, kinds, ps, counts, modes) -> np.ndarray:
    """The (N, 3) rows ``coefficients`` with row k after ``counts[k]`` steps of its own channel.

    The closed-form twin of ``evolve_matrices``, with row k's channel
    ``kinds[k]`` at ``ps[k]`` in mode ``modes[k]``, and the checked door of
    ``_evolve_coefficients``: ``_checked_rows``, the number of modes, each
    mode and the rows' physicality are checked before any step.
    """
    stack = np.asarray(coefficients)
    kinds, ps, counts = _checked_rows(stack, (3,), kinds, ps, counts)
    modes = [CoefficientMapMode(mode) for mode in require_rows("modes", modes, len(stack))]
    require_physical(*stack.T)
    return _evolve_coefficients(stack, kinds, ps, counts, modes)


def _evolve_coefficients(stack: np.ndarray, kinds, ps, counts, modes) -> np.ndarray:
    """``evolve_coefficients`` of physical rows, their ``_checked_rows`` and modes; checks nothing.

    Each (kind, mode) group takes one ``_factor_rows`` call, and
    ``_evolve_rows`` steps the rows, so each row gets its bits alone.
    """
    groups = {}
    for row, key in enumerate(zip(kinds, modes)):
        groups.setdefault(key, []).append(row)
    factors = np.empty((len(stack), 3))
    for (kind, mode), rows in groups.items():
        factors[rows] = _factor_rows(kind, [ps[row] for row in rows], mode)
    return _evolve_rows(stack, factors, counts)


def coefficient_map(
    kind: ChannelKind,
    p: float,
    n: int,
    c: BellCoefficients,
    mode: CoefficientMapMode = CoefficientMapMode.DERIVED,
) -> BellCoefficients:
    """Coefficients after n iterations: the one-row case of ``evolve_coefficients``.

    The factors are applied once per iteration (rather than raised to the
    n-th power) so that mapping n1 + n2 iterations equals mapping n2 after
    n1 bit for bit.
    """
    evolved = evolve_coefficients(stack_states([c]), [kind], [p], [n], [mode])
    return BellCoefficients(*evolved[0].tolist())


def _evolve_rows(rows: np.ndarray, factors: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(N, 3) coefficients after each row's own count of per-iteration multiplications.

    Row k is multiplied by its float factors ``counts[k]`` times (never a
    power) and then left alone, the same per-row stop ``apply_n`` uses.
    Like ``_factor_rows`` it checks nothing; its callers pass arrays.
    """
    return _per_row_steps(np.asarray(rows, dtype=np.float64), counts, np.multiply, (factors,))
