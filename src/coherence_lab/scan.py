"""Decay-rate curves over p and frozen-coherence point clouds over state space.

Each scan is one exact array evaluation, run serially. It performs the
scalar path's operations in the scalar path's order: ``closed_measure`` of
the state, the per-iteration factor products of ``coefficient_map`` (never
a power), ``closed_measure`` of the evolved state, and one division. Every
curve cell and every lattice point's rate is therefore bit for bit the
``decay_rate`` of that state, and the output is deterministic by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .channels import (
    ChannelKind,
    CoefficientMapMode,
    _require_iterations,
    per_iteration_factors,
)
from .coherence import Measure, clamped_array, closed_measure, closed_measures, _KERNELS
from .decay import COHERENCE_FLOOR
from .errors import IncoherentStateError, ParameterRangeError
from .states import BellCoefficients, physical_mask


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

    The factors of every p are stacked and multiplied in once per iteration
    up to max(n_list); each requested n takes its column when reached.
    """
    kind = ChannelKind(kind)
    measure = Measure(measure)
    mode = CoefficientMapMode(mode)
    if not isinstance(p_count, (int, np.integer)) or isinstance(p_count, bool) or p_count < 1:
        raise ParameterRangeError(f"p_count must be a positive integer, got {p_count!r}")
    n_tuple = tuple(_require_iterations(n) for n in n_list)
    if not n_tuple:
        raise ParameterRangeError(f"n_list must be nonempty, got {n_list!r}")
    before = closed_measure(measure, state)
    if before <= COHERENCE_FLOOR:
        raise IncoherentStateError(
            f"state {tuple(state)} has no {measure.value} coherence to decay"
        )
    p_values = np.array([k / (p_count + 1) for k in range(1, p_count + 1)])
    factors = np.array([per_iteration_factors(kind, float(p), mode) for p in p_values])
    current = np.tile(np.array(state, dtype=np.float64), (len(p_values), 1))
    evolved = np.empty((3, len(p_values), len(n_tuple)))
    for step in range(1, max(n_tuple) + 1):
        current *= factors
        for col, n in enumerate(n_tuple):
            if n == step:
                evolved[:, :, col] = current.T
    rates = closed_measures(measure, *evolved) / before
    return DecayCurve(kind, measure, state, mode, n_tuple, p_values, rates)


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
    points: np.ndarray  # shape (N, 3), lattice order
    components: int

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
            "points": len(self.points),
            "components": self.components,
        }


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
    SurfacePointCloud with points in ascending lattice order.
    """
    kind = ChannelKind(kind)
    measure = Measure(measure)
    mode = CoefficientMapMode(mode)
    if not isinstance(grid_res, (int, np.integer)) or grid_res < 3 or grid_res % 2 == 0:
        raise ParameterRangeError(f"grid_res must be an odd integer >= 3, got {grid_res!r}")
    if not np.isfinite(tol) or tol <= 0.0:
        raise ParameterRangeError(f"tol must be positive, got {tol!r}")
    if not np.isfinite(min_coherence) or min_coherence < 0.0:
        raise ParameterRangeError(f"min_coherence must be >= 0, got {min_coherence!r}")
    n = _require_iterations(n)
    factors = per_iteration_factors(kind, p, mode)

    grid_res = int(grid_res)
    axis = np.linspace(-1.0, 1.0, grid_res)
    # a coefficient's evolution does not depend on the other two, so evolving
    # the axis once per factor gives every lattice point's evolved coefficients
    evolved_axes = []
    for factor in factors:
        values = axis.copy()
        for _ in range(n):
            values *= factor
        evolved_axes.append(values)
    e1, e2, e3 = evolved_axes
    # (c2, c3) and their evolved values at flat plane index j * grid_res + k
    plane_c2, plane_c3 = np.repeat(axis, grid_res), np.tile(axis, grid_res)
    plane_e2, plane_e3 = np.repeat(e2, grid_res), np.tile(e3, grid_res)

    kept = np.zeros((grid_res, grid_res * grid_res), dtype=bool)
    for i, c1 in enumerate(axis):
        index = np.flatnonzero(physical_mask(c1, plane_c2, plane_c3))
        # physical by selection, so only the clamp of closed_measure applies
        before = clamped_array(_KERNELS[measure](c1, plane_c2[index], plane_c3[index]))
        coherent = (before > COHERENCE_FLOOR) & (before >= min_coherence)
        index, before = index[coherent], before[coherent]
        after = closed_measures(measure, e1[i], plane_e2[index], plane_e3[index])
        kept[i, index[np.abs(after / before - 1.0) <= tol]] = True
    kept = kept.reshape(grid_res, grid_res, grid_res)
    if kept.any():
        _, components = ndimage.label(kept)
        points = np.column_stack([axis[index] for index in np.nonzero(kept)])
    else:  # an empty cloud has nothing to label or gather
        components, points = 0, np.empty((0, 3))
    return SurfacePointCloud(
        kind=kind,
        measure=measure,
        p=float(p),
        n=n,
        mode=mode,
        grid_res=grid_res,
        tol=float(tol),
        min_coherence=float(min_coherence),
        points=points,
        components=int(components),
    )
