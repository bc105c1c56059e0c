"""n-th decay rates R_n = C(Phi^n(rho)) / C(rho) and freezing predicates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    ChannelKind,
    CoefficientMapMode,
    evolve_matrices,
    evolve_rows,
    per_iteration_factors,
)
from .coherence import Measure, closed_measures, matrix_measure
from .errors import (
    Choice,
    IncoherentStateError,
    ValidationError,
    require_bound,
    require_count,
    require_real,
)
from .linalg import raise_for_first, row_value
from .states import BellCoefficients, coordinates, to_density_matrix

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

    Rows may differ in state, measure, channel kind, p, n and mode. Each
    step runs once over all rows (measures once per measure present), and
    every row gets the bits ``decay_rate`` gives it alone. The oracle steps
    its matrices through ``evolve_matrices``, which holds the per-row Kraus
    products of one bounded block at a time. A check that fails raises for
    the first row that fails it; the oracle's channel steps take their rows
    kind by kind. ``mode`` is a closed-form convention, so the matrix-oracle
    engine, whose Kraus route is 'derived', rejects 'paper'.
    """
    engines = {Engine(q.engine) for q in queries}
    if not engines:  # an empty stack maps to an empty one
        return np.empty(0)
    if len(engines) > 1:
        raise ValidationError("a stack of decay queries needs exactly one engine")
    (engine,) = engines
    measures = [Measure(q.measure) for q in queries]
    modes = {CoefficientMapMode(q.mode) for q in queries}
    states = [coordinates(q.state) for q in queries]
    # checked before the conversion to float64 would parse strings and bools
    require_real("coefficients", *(c for state in states for c in state))
    try:
        states = np.array(states, dtype=np.float64)
    except ValueError:  # array coordinates of different lengths do not stack
        states = np.empty(0)
    if states.shape != (len(queries), 3):
        raise ValidationError("every state of a stack needs three coordinates (c1, c2, c3)")
    if engine is Engine.CLOSED_FORM:
        def measure_rows(measure, coefficients):
            return closed_measures(measure, *coefficients.T)

        before = _by_measure(measures, states, measure_rows)
        require_coherent(before)
        counts = np.array([require_count("iteration count", q.n) for q in queries])
        factors = np.array([per_iteration_factors(q.kind, q.p, q.mode) for q in queries])
        after = _by_measure(measures, evolve_rows(states, factors, counts), measure_rows)
        return after / before
    if CoefficientMapMode.PAPER in modes:
        raise ValidationError("mode 'paper' is closed-form only; the Kraus route is 'derived'")
    rho = to_density_matrix(BellCoefficients(*states.T))
    before = _by_measure(measures, rho, matrix_measure)
    require_coherent(before)
    kinds, ps, counts = zip(*((q.kind, q.p, q.n) for q in queries))
    evolved = evolve_matrices(rho, kinds, ps, counts)
    return _by_measure(measures, evolved, matrix_measure) / before


def _by_measure(measures: list[Measure], rows: np.ndarray, evaluate) -> np.ndarray:
    """``evaluate(measure, rows[mask])`` for each measure present, scattered back by row."""
    values = np.empty(len(measures))
    for measure in dict.fromkeys(measures):
        mask = np.array([m is measure for m in measures])
        values[mask] = evaluate(measure, rows[mask])
    return values


def require_coherent(before: np.ndarray) -> None:
    """Reject the first initial coherence at or below COHERENCE_FLOOR: no ratio exists."""
    raise_for_first(before <= COHERENCE_FLOOR, lambda row: IncoherentStateError(
        f"initial coherence {row_value(before, row)!r} is at or below {COHERENCE_FLOOR:.1e}"
    ))


def is_frozen(query: DecayQuery, tol: float = FROZEN_TOL) -> bool:
    """True when the decay rate sits within tol (> 0) of 1."""
    tol = require_bound("tol", tol, strict=True)
    return abs(decay_rate(query) - 1.0) <= tol
