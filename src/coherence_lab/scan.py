"""Decay-rate curves over p and frozen-coherence point clouds over state space.

Each scan is one exact array evaluation, run serially. It performs the
scalar path's operations in the scalar path's order: ``closed_measure`` of
the state, the per-iteration factor products of ``evolve_rows`` (never a
power; a curve's (p, n) cells are the rows of one call), ``closed_measure``
of the evolved state, and one division. Every curve cell and every lattice
point's rate is therefore bit for bit the ``decay_rate`` of that state, and
the output is deterministic by construction.

The frozen-surface scan does each piece of per-point work once. Lattice
physicality is an exact integer test (lattice value i is c = u / s with
u = 2i - s and s = grid_res - 1), solved for the last index: row j of plane
i is the run |i - j| <= k <= s - |i + j - s|, so each plane yields the
(j, k) index pairs of its points, built from run lengths: exactly the
points ``physical_mask`` selects. The two coherence floors are one compare,
against the larger of nextafter(COHERENCE_FLOOR, inf) and min_coherence.
The evolved side goes through ``closed_measures``, which forms each point's
parities q_i once and uses them for both the physicality check and the
rel-ent value. The cloud keeps the kept points' integer lattice indices;
their coordinates are derived from ``lattice_axis`` on demand, so renderers
work from the indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .channels import ChannelKind, CoefficientMapMode, evolve_rows, per_iteration_factors
from .coherence import Measure, clamped_array, closed_measure, closed_measures, _KERNELS
from .decay import COHERENCE_FLOOR, require_coherent
from .errors import ParameterRangeError, require_bound, require_count
from .states import BellCoefficients


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

    Every (p, n) cell is one row of a single ``evolve_rows`` call: the state
    multiplied by its p's factors n times (never a power), then measured by
    ``closed_measures`` and divided by the state's own coherence.
    """
    kind = ChannelKind(kind)
    measure = Measure(measure)
    mode = CoefficientMapMode(mode)
    p_count = require_count("p_count", p_count)
    try:
        n_tuple = tuple(n_list)
    except TypeError:
        got = type(n_list).__name__
        raise ParameterRangeError(f"n_list must be a sequence of counts, got {got}") from None
    n_tuple = tuple(require_count("iteration count", n) for n in n_tuple)
    if not n_tuple:
        raise ParameterRangeError(f"n_list must be nonempty, got {n_list!r}")
    before = closed_measure(measure, state)
    require_coherent(before)
    p_values = np.array([k / (p_count + 1) for k in range(1, p_count + 1)])
    factors = np.array([per_iteration_factors(kind, float(p), mode) for p in p_values])
    evolved = evolve_rows(
        np.tile(np.array(state, dtype=np.float64), (len(p_values) * len(n_tuple), 1)),
        np.repeat(factors, len(n_tuple), axis=0), np.tile(n_tuple, len(p_values)),
    )
    rates = closed_measures(measure, *evolved.T.reshape(3, len(p_values), len(n_tuple))) / before
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
    indices: np.ndarray  # shape (N, 3), integer lattice indices in lattice order
    components: int

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
            "points": len(self.indices),
            "components": self.components,
        }


def _physical_plane_points(grid_res: int):
    """For each c1 plane, the (j, k) index pairs of its physical points, built from run lengths.

    Lattice value i is c = u / s exactly, with s = grid_res - 1 and u = 2i - s,
    so every parity q = (s -+ u1 -+ u2 -+ u3) / s >= 0 reads
    |u2 + u3| <= s - u1 and |u2 - u3| <= s + u1 in integers. The nonzero q
    are multiples of 2 / s, far outside PHYSICAL_TOL, so this exact test
    selects what ``physical_mask`` selects on the rounded lattice. Solved
    for k: row j of plane i is the run |i - j| <= k <= s - |i + j - s|.
    """
    s = grid_res - 1
    j = np.arange(grid_res)
    for i in range(grid_res):
        first = np.abs(i - j)
        lengths = np.maximum(s - np.abs(i + j - s) - first + 1, 0)
        offsets = np.cumsum(lengths) - lengths  # where each row's run starts in the plane
        yield np.repeat(j, lengths), np.repeat(first - offsets, lengths) + np.arange(lengths.sum())


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
    work arrays stay plane-sized at any grid.

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
    SurfacePointCloud whose ``indices`` are the kept points' (i, j, k)
    lattice indices in ascending lattice order; ``points`` gives their
    coordinates ``lattice_axis(grid_res)[indices]``.
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
    e1, e2, e3 = evolve_rows(
        np.repeat(axis[:, None], 3, axis=1), np.tile(factors, (grid_res, 1)),
        np.full(grid_res, n),
    ).T

    # before > COHERENCE_FLOOR and before >= min_coherence, as one compare
    floor = max(np.nextafter(COHERENCE_FLOOR, np.inf), min_coherence)
    kept = np.zeros((grid_res, grid_res, grid_res), dtype=bool)
    for i, (c1, (j, k)) in enumerate(zip(axis, _physical_plane_points(grid_res))):
        # physical by selection, so only the clamp of closed_measure applies
        before = clamped_array(_KERNELS[measure](c1, axis[j], axis[k]))
        coherent = before >= floor
        if not coherent.all():
            j, k, before = j[coherent], k[coherent], before[coherent]
        after = closed_measures(measure, e1[i], e2[j], e3[k])
        frozen = np.abs(after / before - 1.0) <= tol
        kept[i, j[frozen], k[frozen]] = True
    if kept.any():
        _, components = ndimage.label(kept)
        indices = np.argwhere(kept)
    else:  # an empty cloud has nothing to label or gather
        components, indices = 0, np.empty((0, 3), dtype=np.intp)
    return SurfacePointCloud(
        kind=kind,
        measure=measure,
        p=float(p),
        n=n,
        mode=mode,
        grid_res=grid_res,
        tol=tol,
        min_coherence=min_coherence,
        indices=indices,
        components=int(components),
    )
