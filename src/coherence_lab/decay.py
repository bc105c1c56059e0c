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

    Rows may differ in state, measure, channel kind, p, n and mode. Both
    engines go through ``_ratio``: each step runs once over all rows
    (measures once per measure present), and every row gets the bits
    ``decay_rate`` gives it alone. Each check is made once, in this order:
    the queries themselves, then each engine, measure and mode, the states,
    their physicality, the coherence floor (in ``_ratio``) and the rows'
    counts, kinds and p (one ``_checked_rows`` call), so a query that fails
    two checks fails the same one first on either engine. The engines then
    run the twins' unchecked bodies. The closed-form engine measures with
    ``closed_measures``, whose first call is the rows' physicality check
    and whose second is the evolved rows' only one, and evolves through
    ``_evolve_coefficients``. The oracle validates its initial matrices
    once, measures them and the evolved ones with the matrix forms, and
    evolves through ``_evolve_matrices``, which holds the per-row Kraus
    products of one bounded block at a time and validates each evolved
    matrix once. ``mode`` is a closed-form convention, so the matrix-oracle
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
        return _ratio(lambda rows: _by_measure(measures, rows, _closed_rows), states,
                      lambda rows: _evolve_coefficients(
                          rows, *_checked_rows(rows, (3,), kinds, ps, counts), modes))
    if CoefficientMapMode.PAPER in modes:
        raise ValidationError("mode 'paper' is closed-form only; the Kraus route is 'derived'")
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


def _closed_rows(measure: Measure, coefficients: np.ndarray) -> np.ndarray:
    """``closed_measures`` of the (N, 3) rows ``coefficients``."""
    return closed_measures(measure, *coefficients.T)


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
