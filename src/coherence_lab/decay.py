"""n-th decay rates R_n = C(Phi^n(rho)) / C(rho) and freezing predicates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    ChannelKind,
    CoefficientMapMode,
    _checked_rows,
    _evolve_coefficients,
    _evolve_matrices,
)
from .coherence import Measure, _matrix_rows, closed_measures
from .errors import Choice, IncoherentStateError, ValidationError, require_bound, require_rows
from .linalg import raise_for_first, row_value
from .states import BellCoefficients, stack_states, to_density_matrix, validate_density_matrix

COHERENCE_FLOOR = 1e-12
FROZEN_TOL = 1e-9


class Engine(Choice):
    CLOSED_FORM = "closed-form"
    MATRIX_ORACLE = "matrix-oracle"


@dataclass(frozen=True)
class DecayQuery:
    """Everything needed to evaluate one decay rate."""

    state: BellCoefficients
    measure: Measure
    kind: ChannelKind
    p: float
    n: int
    mode: CoefficientMapMode = CoefficientMapMode.DERIVED
    engine: Engine = Engine.CLOSED_FORM


def decay_rate(query: DecayQuery) -> float:
    """Coherence after n channel iterations divided by initial coherence.

    The one-row case of ``decay_rates``. The closed-form engine runs the
    coefficient map and closed measures; the matrix-oracle engine evolves the
    literal density matrix through the Kraus operators and evaluates the
    definition-level measures. For gad both engines use the one-parameter
    convention (mixing 1/2, damping p).
    """
    return float(decay_rates([query])[0])


def decay_rates(queries: Sequence[DecayQuery]) -> np.ndarray:
    """``decay_rate`` of many queries of one engine, as stacks; no queries give no rates.

    Rows may differ in state, measure, channel kind, p, n and mode, and each
    gets the bits ``decay_rate`` gives it alone. The door checks the queries,
    then each engine, measure and mode and the states, and hands the rows to
    its engine's body, ``_closed_rates`` or ``_oracle_rates``. Both bodies
    check the rows' physicality, the coherence floor (in ``_ratio``) and
    their counts, kinds and p (one ``_checked_rows`` call), in this order,
    so a query that fails two checks fails the same one first on either
    engine. ``mode`` is a closed-form convention, so the matrix-oracle
    engine, whose Kraus route is 'derived', rejects 'paper'.
    """
    queries = require_rows("decay queries", queries)
    for query in queries:
        if not isinstance(query, DecayQuery):
            raise ValidationError(f"expected a DecayQuery, got {type(query).__name__}")
    engines = {Engine(q.engine) for q in queries}
    if not engines:  # an empty stack maps to an empty one
        return np.empty(0)
    if len(engines) > 1:
        raise ValidationError("a stack of decay queries needs exactly one engine")
    (engine,) = engines
    measures = [Measure(q.measure) for q in queries]
    kinds, ps, counts, modes = zip(*((q.kind, q.p, q.n, CoefficientMapMode(q.mode))
                                     for q in queries))
    states = stack_states([q.state for q in queries])
    if engine is Engine.CLOSED_FORM:
        return _closed_rates(states, measures, kinds, ps, counts, modes)
    if CoefficientMapMode.PAPER in modes:
        raise ValidationError("mode 'paper' is closed-form only; the Kraus route is 'derived'")
    return _oracle_rates(states, measures, kinds, ps, counts)


def _closed_rates(states: np.ndarray, measures, kinds, ps, counts, modes) -> np.ndarray:
    """Closed-form R_n of the (N, 3) float ``states``, with coerced per-row measures and modes.

    ``closed_measures`` measures them (its first call is the rows'
    physicality check, its second the evolved rows' only one) and
    ``_evolve_coefficients`` evolves them.
    """
    return _ratio(
        lambda rows: _by_measure(measures, rows, lambda m, picked: closed_measures(m, *picked.T)),
        states,
        lambda rows: _evolve_coefficients(rows, *_checked_rows(rows, (3,), kinds, ps, counts),
                                          modes),
    )


def _oracle_rates(states: np.ndarray, measures, kinds, ps, counts) -> np.ndarray:
    """Matrix-oracle R_n of the (N, 3) float ``states``, with coerced per-row measures.

    Their matrices are validated once and measured with the matrix forms.
    ``_evolve_matrices`` evolves them, holding the per-row Kraus products of
    one bounded block at a time, and validates each evolved matrix once.
    """
    return _ratio(
        lambda rho: _by_measure(measures, rho, _matrix_rows),
        validate_density_matrix(to_density_matrix(BellCoefficients(*states.T))),
        lambda rho: _evolve_matrices(rho, *_checked_rows(rho, (4, 4), kinds, ps, counts)),
    )


def _ratio(measure, rows: np.ndarray, evolve) -> np.ndarray:
    """R_n of each row: ``measure(evolve(rows)) / measure(rows)``.

    The one place a decay rate is formed. The first initial coherence at or
    below COHERENCE_FLOOR has no ratio and raises IncoherentStateError
    before ``evolve`` runs, so before any channel step and before any
    parameter that ``evolve`` reads. Each engine hands it checked rows: the
    closed form its float rows, whose physicality its ``measure`` checks;
    the oracle its validated matrices, which its ``measure`` takes as they
    are.
    """
    before = measure(rows)
    raise_for_first(before <= COHERENCE_FLOOR, lambda row: IncoherentStateError(
        f"initial coherence {row_value(before, row)!r} is at or below {COHERENCE_FLOOR:.1e}"
    ))
    return measure(evolve(rows)) / before


def _by_measure(measures: list[Measure], rows: np.ndarray, evaluate) -> np.ndarray:
    """``evaluate(measure, rows[mask])`` for each measure present, scattered back by row."""
    values = np.empty(len(measures))
    for measure in dict.fromkeys(measures):
        mask = np.array([m is measure for m in measures])
        values[mask] = evaluate(measure, rows[mask])
    return values


def is_frozen(query: DecayQuery, tol: float = FROZEN_TOL) -> bool:
    """True when the decay rate sits within tol (> 0) of 1."""
    tol = require_bound("tol", tol, strict=True)
    return abs(decay_rate(query) - 1.0) <= tol
