"""Decay-rate curves over p and frozen-coherence point clouds over state space.

Each scan is one exact array evaluation, run serially. It performs the
scalar path's operations in the scalar path's order: the closed measure of
the state, the per-iteration factor products of ``_evolve_rows`` (never a
power), the closed measure of the evolved state, and one division. A curve
lays out its (p, n) cells as the rows of one ``decay._ratio`` call, the
core ``decay_rates`` uses too; a lattice point's values come from the
measure's kernel in ``_KERNELS`` on both sides. Every curve cell and every
lattice point's rate is therefore bit for bit the ``decay_rate`` of that
state, and the output is deterministic by construction.

The frozen-surface scan evaluates each quantity only as often as it varies.
Lattice point (i, j, k) evolves to (e1[i], e2[j], e3[k]), the three axes
evolved once each. Lattice physicality is an exact integer test (lattice
value i is c = u / s with u = 2i - s and s = grid_res - 1): row (i, j) holds
the one run |i - j| <= k <= s - |i + j - s| of physical points, so a
(grid, grid) table of run ends gives exactly the points ``physical_mask``
selects.

- Each measure's terms in c3 alone, its ``_C3_TERMS``, are tabulated once
  over the axis and once over e3 and gathered by k on both sides; the
  kernel takes them after c1 and c2. A measure with no c3 term (l1 =
  max(|c1|, |c2|)) has one value per row, so its initial and evolved values
  are formed once per row and a frozen row keeps its whole run; any other
  measure is evaluated per physical point.
- The evolved physicality gate tests run ends, once per scan, for every
  measure. Each e3 is its c3 multiplied n times by one factor, and rounding is
  monotone, so e3 is monotone along a run and so is each evolved parity
  q_i; the ends bound the run. Only if the gate fails are the points
  checked one by one, which names the first unphysical coherent point in
  lattice order, the one ``closed_measures`` would name.

Every value is formed by the scalar path's operations in its order, so each
lattice point's rate is bit for bit its ``decay_rate``. The two coherence
floors are one compare, against the larger of nextafter(COHERENCE_FLOOR,
inf) and min_coherence. The cloud is its frozen runs (i, j, k0, k1), as
the plane loop finds them, in lattice order with no search of the cube: an
l1 row's whole run, or one run per point. A grid^3 bool mask is filled from
them only to label components, and only when the cloud is nonempty. Point
indices and coordinates are expanded on demand; renderers take the runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .channels import (
    ChannelKind,
    CoefficientMapMode,
    _evolve_rows,
    _factor_rows,
    per_iteration_factors,
)
from .coherence import Measure, clamped_array, closed_measures, _C3_TERMS, _KERNELS
from .decay import COHERENCE_FLOOR, _ratio
from .errors import ParameterRangeError, require_bound, require_count, require_rows
from .states import BellCoefficients, physical_mask, require_physical, stack_states


@dataclass(frozen=True)
class DecayCurve:
    kind: ChannelKind
    measure: Measure
    state: BellCoefficients
    mode: CoefficientMapMode
    n_list: tuple[int, ...]
    p_values: np.ndarray
    rates: np.ndarray  # shape (len(p_values), len(n_list))


def decay_curve(
    kind: ChannelKind,
    measure: Measure,
    state: BellCoefficients,
    n_list: tuple[int, ...],
    p_count: int = 99,
    mode: CoefficientMapMode = CoefficientMapMode.DERIVED,
) -> DecayCurve:
    """Decay rates on the interior grid p_k = k / (p_count + 1), k = 1..p_count.

    The state is validated as three real coordinates and tiled into one row
    per (p, n) cell, p-major. Every p's factors come from one unchecked
    ``_factor_rows`` call, as every grid p lies in (0, 1); the rows go
    through ``decay._ratio`` with ``closed_measures`` and one
    ``_evolve_rows`` call, which multiplies each row by its p's factors n
    times (never a power). An incoherent state raises
    IncoherentStateError before any row is evolved.
    """
    kind = ChannelKind(kind)
    measure = Measure(measure)
    mode = CoefficientMapMode(mode)
    p_count = require_count("p_count", p_count)
    n_rows = require_rows("n_list", n_list)
    if not n_rows:
        raise ParameterRangeError(f"n_list must be nonempty, got {n_rows!r}")
    n_tuple = tuple(require_count("iteration count", n) for n in n_rows)
    state_row = stack_states([state])
    p_values = np.array([k / (p_count + 1) for k in range(1, p_count + 1)])
    factors = _factor_rows(kind, p_values, mode)
    rates = _ratio(
        lambda rows: closed_measures(measure, *rows.T),
        np.repeat(state_row, p_count * len(n_tuple), axis=0),
        lambda rows: _evolve_rows(
            rows, np.repeat(factors, len(n_tuple), axis=0), np.tile(n_tuple, p_count)
        ),
    ).reshape(p_count, len(n_tuple))
    return DecayCurve(kind, measure, state, mode, n_tuple, p_values, rates)


def lattice_axis(grid_res: int) -> np.ndarray:
    """The values of the grid_res lattice points along each axis, evenly spaced from -1 to 1."""
    return np.linspace(-1.0, 1.0, grid_res)


@dataclass(frozen=True)
class SurfacePointCloud:
    kind: ChannelKind
    measure: Measure
    p: float
    n: int
    mode: CoefficientMapMode
    grid_res: int
    tol: float
    min_coherence: float
    runs: np.ndarray  # shape (R, 4), np.intp rows (i, j, k0, k1) in lattice order
    components: int

    @property
    def indices(self) -> np.ndarray:
        """The (N, 3) lattice indices (i, j, k) of the points, the runs expanded in order."""
        ij, k = _run_points(self.runs[:, :2], self.runs[:, 2], self.runs[:, 3])
        return np.column_stack((ij, k))

    @property
    def points(self) -> np.ndarray:
        """The (N, 3) coordinates of the points, ``lattice_axis(grid_res)[indices]``."""
        return lattice_axis(self.grid_res)[self.indices]

    def metadata(self) -> dict[str, object]:
        return {
            "channel": self.kind.value,
            "measure": self.measure.value,
            "p": self.p,
            "n": self.n,
            "mode": self.mode.value,
            "grid": self.grid_res,
            "tol": self.tol,
            "min_coherence": self.min_coherence,
            "points": int(np.sum(self.runs[:, 3] - self.runs[:, 2] + 1)),
            "components": self.components,
        }


def _row_runs(grid_res: int) -> tuple[np.ndarray, np.ndarray]:
    """The run first[i, j] <= k <= last[i, j] of physical points in each lattice row (i, j).

    Lattice value i is c = u / s exactly, with s = grid_res - 1 and
    u = 2i - s, so every parity q = (s -+ u1 -+ u2 -+ u3) / s >= 0 reads
    |u2 + u3| <= s - u1 and |u2 - u3| <= s + u1 in integers. The nonzero q
    are multiples of 2 / s, far outside PHYSICAL_TOL, so this exact test
    selects what ``physical_mask`` selects on the rounded lattice. Solved
    for k: row j of plane i is the run |i - j| <= k <= s - |i + j - s|,
    whose length s + 1 - max(|2i - s|, |2j - s|) is never 0.
    """
    s = grid_res - 1
    index = np.arange(grid_res)
    return np.abs(index[:, None] - index), s - np.abs(index[:, None] + index - s)


def _run_points(rows: np.ndarray, first: np.ndarray, last: np.ndarray):
    """The points of the runs first[r] <= k <= last[r] of rows[r] (j or (i, j)): rows[r], and k."""
    lengths = last - first + 1
    offsets = np.cumsum(lengths) - lengths  # where each run starts in the output
    return (np.repeat(rows, lengths, axis=0),
            np.repeat(first - offsets, lengths) + np.arange(lengths.sum()))


def _runs_physical(e1, e2, e3, first, last) -> bool:
    """Whether every evolved point (e1[i], e2[j], e3[k]) of the runs first..last is physical.

    Each e3 is its c3 multiplied n times by one factor, and rounding is
    monotone, so e3 is monotone along a run (decreasing where the factor is
    negative, as dep's 'paper' factor 1 - 4p/3 is for p > 3/4). Each parity
    (1 -+ e1 -+ e2) -+ e3 of a row is then monotone along its run too, and
    its least value sits at an end: testing the run ends is exactly testing
    every point.
    """
    return all(physical_mask(e1[:, None], e2, e3[end]).all() for end in (first, last))


def frozen_surface(
    kind: ChannelKind,
    measure: Measure,
    p: float,
    n: int,
    grid_res: int = 101,
    tol: float = 1e-3,
    min_coherence: float = 1e-4,
    mode: CoefficientMapMode = CoefficientMapMode.DERIVED,
) -> SurfacePointCloud:
    """All lattice states whose coherence survives n iterations within tol.

    The lattice is the cube [-1, 1]^3 sampled at grid_res points per axis.
    A point belongs to the cloud when it is physical, its initial coherence
    is at least min_coherence (and above the incoherence floor), and its
    decay rate satisfies |R_n - 1| <= tol. The component count in the
    metadata joins lattice points that differ by one step along one axis.
    The lattice is evaluated one c1 plane at a time, so the floating-point
    work arrays stay plane-sized at any grid. The measure's c3 terms are
    tabulated once per axis value and once per evolved value; a measure
    with none is evaluated once per row of the plane, any other once per
    physical point. The evolved states' physicality is checked once per
    scan at the ends of each row's run of physical points, for every measure.
    Each plane's frozen runs are kept as they are found, never merged; a
    grid^3 mask is filled from them only for ``ndimage.label``.

    Parameters
    ----------
    kind, measure, p, n : channel, coherence measure, channel parameter
        (for gad: the damping, with mixing fixed at 1/2), iteration count.
    grid_res : odd number of lattice points per axis, >= 3.
    tol : freezing tolerance on |R_n - 1|, > 0.
    min_coherence : initial-coherence floor, >= 0.
    mode : dep contraction convention ('paper' or 'derived').

    Returns
    -------
    SurfacePointCloud whose ``runs`` (i, j, k0, k1), in lattice order, are
    an l1 row's whole run of physical points or one point of any other
    measure; ``indices`` expands them and ``points`` gives coordinates.
    """
    kind = ChannelKind(kind)
    measure = Measure(measure)
    mode = CoefficientMapMode(mode)
    grid_res = require_count("grid_res", grid_res, minimum=3)
    if grid_res % 2 == 0:
        raise ParameterRangeError(f"grid_res must be an odd integer >= 3, got {grid_res!r}")
    tol = require_bound("tol", tol, strict=True)
    min_coherence = require_bound("min_coherence", min_coherence, strict=False)
    n = require_count("iteration count", n)
    factors = per_iteration_factors(kind, p, mode)

    axis = lattice_axis(grid_res)
    # a coefficient's evolution does not depend on the other two, so evolving
    # the axis once per factor gives every lattice point's evolved coefficients
    e1, e2, e3 = _evolve_rows(
        np.repeat(axis[:, None], 3, axis=1), np.tile(factors, (grid_res, 1)),
        np.full(grid_res, n),
    ).T

    # before > COHERENCE_FLOOR and before >= min_coherence, as one compare
    floor = max(np.nextafter(COHERENCE_FLOOR, np.inf), min_coherence)
    first, last = _row_runs(grid_res)
    rows = np.arange(grid_res)
    runs_physical = _runs_physical(e1, e2, e3, first, last)
    # the measure's terms in c3 alone: one table per axis, gathered by k
    terms, evolved_terms = _C3_TERMS[measure](axis), _C3_TERMS[measure](e3)
    kept = []  # each plane's frozen (i, j, k0, k1) runs, in lattice order
    # the labelling mask. Only a nonempty cloud fills it, but every scan
    # allocates it: when this grid^3 block is freed, glibc raises its mmap
    # and trim thresholds, and later scans in the process then keep their
    # per-plane work arrays on heap pages instead of faulting in fresh ones
    # (nine empty grid-201 scans in one process: 2.7k minor faults with the
    # block, 36k without)
    mask = np.zeros((grid_res, grid_res, grid_res), dtype=bool)
    for i, c1 in enumerate(axis):
        if not terms:
            # the values do not vary with c3, so each row is one item, its
            # run start..stop, and the run's first point stands for all of it
            j, start, stop = rows, first[i], last[i]
        else:  # each physical point is one item, a run of one
            j, start = _run_points(rows, first[i], last[i])
            stop = start
        # physical by selection, so only the clamp of closed_measure applies
        before = clamped_array(_KERNELS[measure](c1, axis[j], *(t[start] for t in terms)))
        coherent = before >= floor
        if not coherent.all():
            j, start, stop, before = j[coherent], start[coherent], stop[coherent], before[coherent]
        if not runs_physical:  # per point, to name the first unphysical coherent point
            j_all, k_all = _run_points(j, start, stop)
            require_physical(e1[i], e2[j_all], e3[k_all])
        after = clamped_array(_KERNELS[measure](e1[i], e2[j], *(t[start] for t in evolved_terms)))
        frozen = np.abs(after / before - 1.0) <= tol
        if frozen.any():
            kept.append(np.column_stack((np.full_like(j, i), j, start, stop))[frozen])
    if kept:
        runs = np.concatenate(kept)
        ij, k = _run_points(runs[:, :2], runs[:, 2], runs[:, 3])
        mask[ij[:, 0], ij[:, 1], k] = True
        _, components = ndimage.label(mask)
    else:  # an empty cloud has nothing to label
        components, runs = 0, np.empty((0, 4), dtype=np.intp)
    return SurfacePointCloud(
        kind=kind,
        measure=measure,
        p=float(p),
        n=n,
        mode=mode,
        grid_res=grid_res,
        tol=tol,
        min_coherence=min_coherence,
        runs=runs,
        components=int(components),
    )
