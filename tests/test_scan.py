import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.special import xlogy

from coherence_lab import (
    BellCoefficients,
    ChannelKind,
    CoefficientMapMode,
    DecayQuery,
    IncoherentStateError,
    Measure,
    ParameterRangeError,
    UnphysicalStateError,
    closed_measure,
    decay_curve,
    decay_rate,
    frozen_surface,
    is_physical,
)
from coherence_lab import scan
from coherence_lab.channels import _evolve_rows, per_iteration_factors
from coherence_lab.coherence import _C3_TERMS, _KERNELS, clamped_array, closed_measures
from coherence_lab.decay import COHERENCE_FLOOR
from coherence_lab.scan import _row_runs, _run_points, _runs_physical, lattice_axis
from coherence_lab.states import physical_mask
from conftest import REFERENCE, physical_coefficients

BF = ChannelKind.BIT_FLIP
DEP = ChannelKind.DEPOLARIZING
GAD = ChannelKind.AMPLITUDE_DAMPING


def test_curve_p_grid_is_open_interval():
    curve = decay_curve(BF, Measure.L1, REFERENCE, (1,), p_count=9)
    assert np.allclose(curve.p_values, [k / 10 for k in range(1, 10)], atol=1e-15)
    assert np.all(np.diff(curve.p_values) > 0)
    assert 0.0 < curve.p_values[0] and curve.p_values[-1] < 1.0


def test_curve_bf_l1_plateau():
    curve = decay_curve(BF, Measure.L1, REFERENCE, (1, 5, 10), p_count=25)
    assert np.all(curve.rates == 1.0)


def test_curve_dep_hits_exact_zero_at_three_quarters():
    curve = decay_curve(ChannelKind.DEPOLARIZING, Measure.L1, REFERENCE, (1, 3), p_count=99)
    row = np.where(curve.p_values == 0.75)[0]
    assert len(row) == 1
    assert np.all(curve.rates[row[0]] == 0.0)
    for i, p in enumerate(curve.p_values):
        factor = 1.0 - 4.0 * p / 3.0
        assert curve.rates[i, 0] == pytest.approx(abs(factor * factor), rel=1e-12, abs=1e-15)


def test_curve_pf_annihilates_near_one():
    curve = decay_curve(ChannelKind.PHASE_FLIP, Measure.REL_ENT, REFERENCE, (10,), p_count=99)
    assert curve.rates[-1, 0] < 1e-6


def test_curve_rejects_incoherent_state_and_bad_grid():
    with pytest.raises(IncoherentStateError):
        decay_curve(BF, Measure.L1, BellCoefficients(0, 0, 0.3), (1,), p_count=9)
    with pytest.raises(ParameterRangeError):
        decay_curve(BF, Measure.L1, REFERENCE, (1,), p_count=0)
    with pytest.raises(ParameterRangeError):
        decay_curve(BF, Measure.L1, REFERENCE, (0, 2), p_count=9)


@pytest.mark.parametrize("empty", [lambda: iter(()), lambda: (n for n in ())],
                         ids=["iterator", "generator"])
def test_curve_names_an_empty_n_list_by_the_list_it_read(empty):
    with pytest.raises(ParameterRangeError) as info:
        decay_curve(BF, Measure.L1, REFERENCE, empty(), p_count=3)
    assert str(info.value) == "n_list must be nonempty, got []"


def test_curve_deterministic_across_runs():
    first = decay_curve(GAD, Measure.SKEW, REFERENCE, (1, 7), p_count=33)
    second = decay_curve(GAD, Measure.SKEW, REFERENCE, (1, 7), p_count=33)
    assert np.array_equal(first.rates, second.rates)
    assert np.array_equal(first.p_values, second.p_values)


def test_surface_validation():
    with pytest.raises(ParameterRangeError):
        frozen_surface(BF, Measure.L1, 0.5, 1, grid_res=10)
    with pytest.raises(ParameterRangeError):
        frozen_surface(BF, Measure.L1, 0.5, 1, grid_res=1)
    with pytest.raises(ParameterRangeError):
        frozen_surface(BF, Measure.L1, 0.5, 1, tol=0.0)
    with pytest.raises(ParameterRangeError):
        frozen_surface(BF, Measure.L1, 0.5, 1, min_coherence=-1.0)
    with pytest.raises(ParameterRangeError):
        frozen_surface(BF, Measure.L1, 0.5, 0)


@functools.lru_cache(maxsize=None)
def _l1_half_cube(kind, grid):
    """The expected l1 cloud of bf or bpf, as (lattice indices, component count).

    In integers, lattice value i is c = u / s with u = 2i - s and s = grid - 1:
    a point is physical when every parity s -+ u1 -+ u2 -+ u3 >= 0, and frozen
    when the kept coefficient dominates the lost one, |u1| >= |u2| for bf
    (|u2| >= |u1| for bpf), and is nonzero, so that l1 > 0.
    """
    s = grid - 1
    u = 2 * np.arange(grid) - s
    u1, u2, u3 = np.meshgrid(u, u, u, indexing="ij")
    physical = ((s - u1 - u2 - u3 >= 0) & (s + u1 + u2 - u3 >= 0)
                & (s + u1 - u2 + u3 >= 0) & (s - u1 + u2 + u3 >= 0))
    kept, lost = (u1, u2) if kind is BF else (u2, u1)
    mask = physical & (np.abs(kept) >= np.abs(lost)) & (kept != 0)
    return np.argwhere(mask), ndimage.label(mask)[1]


@pytest.mark.parametrize("tol, min_coherence", [(1e-3, 1e-4), (1e-9, 1e-6)])
@pytest.mark.parametrize("grid", [21, 101])
@pytest.mark.parametrize("n", [1, 10])
@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("kind", [BF, ChannelKind.BIT_PHASE_FLIP])
def test_surface_l1_region_is_the_half_cube(kind, p, n, grid, tol, min_coherence):
    # l1 = max(|c1|, |c2|); the kept coefficient never changes and the lost
    # one shrinks by f = (1 - p)^2 per step. Where the kept one dominates,
    # R_n is exactly 1. Elsewhere R_n = max(|kept| / |lost|, f^n): on the
    # lattice |kept| <= |lost| - 2/s there, so R_n <= max(1 - 2/s, f^n) with
    # |lost| <= 1. Both margins below exceed tol by far more than the few
    # ulps a computed ratio is off, so no such point is frozen.
    s = grid - 1
    assert 2 / s > tol and (1 - p) ** (2 * n) < 1 - tol
    # every nonzero lattice l1, at least 2/s, clears both coherence floors
    assert 2 / s >= max(min_coherence, COHERENCE_FLOOR)
    cloud = frozen_surface(kind, Measure.L1, p, n, grid_res=grid, tol=tol,
                           min_coherence=min_coherence)
    indices, components = _l1_half_cube(kind, grid)
    assert np.array_equal(cloud.indices, indices)
    assert cloud.components == components
    # the stored lattice indices: integers, strictly ascending rows, and the
    # points derived from them bit for bit
    assert np.issubdtype(cloud.indices.dtype, np.integer)
    steps = np.diff(cloud.indices, axis=0)
    first_change = steps[np.arange(len(steps)), np.argmax(steps != 0, axis=1)]
    assert np.all(first_change > 0)
    assert np.array_equal(cloud.points.view(np.int64),
                          np.linspace(-1, 1, grid)[cloud.indices].view(np.int64))


def test_surface_soundness_recheck():
    cloud = frozen_surface(BF, Measure.REL_ENT, 0.5, 5, grid_res=21)
    assert len(cloud.points) > 0
    for c1, c2, c3 in cloud.points:
        state = BellCoefficients(c1, c2, c3)
        assert closed_measure(Measure.REL_ENT, state) >= cloud.min_coherence
        rate = decay_rate(DecayQuery(state, Measure.REL_ENT, BF, 0.5, 5))
        assert abs(rate - 1.0) <= cloud.tol


def test_surface_empty_cloud_is_valid():
    cloud = frozen_surface(GAD, Measure.REL_ENT, 0.5, 24, grid_res=21)
    assert cloud.points.shape == (0, 3)
    assert cloud.indices.shape == (0, 3)
    assert np.issubdtype(cloud.indices.dtype, np.integer)
    assert cloud.components == 0
    assert cloud.metadata()["points"] == 0


def _check_runs(cloud):
    """The cloud's runs are its stored form: sorted, disjoint rows (i, j, k0, k1) of the lattice."""
    runs = cloud.runs
    assert runs.dtype == np.intp and runs.shape == (len(runs), 4)
    i, j, k0, k1 = runs.T
    first, last = _row_runs(cloud.grid_res)
    assert np.all((first[i, j] <= k0) & (k0 <= k1) & (k1 <= last[i, j]))
    # each run starts after the one before it ends, in lattice order
    ends = np.column_stack((i, j, k1))[:-1].tolist()
    assert all(end < start for end, start in zip(ends, np.column_stack((i, j, k0))[1:].tolist()))
    if cloud.measure is Measure.L1:  # a frozen l1 row keeps its whole run
        assert np.array_equal(k0, first[i, j]) and np.array_equal(k1, last[i, j])
    else:  # any other measure keeps one run per point
        assert np.array_equal(k0, k1)
    indices = cloud.indices
    assert indices.dtype == np.intp and indices.flags.c_contiguous
    assert cloud.metadata()["points"] == len(indices) == np.sum(k1 - k0 + 1)


@pytest.mark.parametrize("grid_res", [21, 41])
@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("kind", [BF, ChannelKind.BIT_PHASE_FLIP])
def test_a_cloud_is_its_frozen_runs(kind, measure, grid_res):
    cloud = frozen_surface(kind, measure, 0.5, 1, grid_res=grid_res)
    assert len(cloud.runs) > 0
    _check_runs(cloud)


def test_an_empty_cloud_has_no_runs():
    cloud = frozen_surface(GAD, Measure.REL_ENT, 0.5, 24, grid_res=21)
    assert cloud.runs.shape == (0, 4)
    _check_runs(cloud)


def test_surface_shrinkage_in_n():
    for kind in (ChannelKind.PHASE_FLIP, ChannelKind.DEPOLARIZING, GAD, BF):
        counts = [
            len(frozen_surface(kind, Measure.REL_ENT, 0.5, n, grid_res=21).points)
            for n in (1, 5, 11, 12, 13, 14, 22, 23, 24)
        ]
        assert counts == sorted(counts, reverse=True)


def test_surface_component_metadata():
    cloud = frozen_surface(BF, Measure.L1, 0.5, 1, grid_res=11, tol=1e-9, min_coherence=1e-6)
    assert len(cloud.points) > 0
    assert cloud.components >= 1
    meta = cloud.metadata()
    assert meta["points"] == len(cloud.points)
    assert meta["components"] == cloud.components
    assert meta["channel"] == "bf" and meta["measure"] == "l1"


def test_surface_min_coherence_zero_still_excludes_incoherent():
    cloud = frozen_surface(BF, Measure.L1, 0.5, 1, grid_res=11, tol=1e-9, min_coherence=0.0)
    for c1, c2, c3 in cloud.points:
        assert max(abs(c1), abs(c2)) > 1e-12


def test_surface_deterministic_across_runs():
    first = frozen_surface(BF, Measure.SKEW, 0.5, 5, grid_res=21)
    second = frozen_surface(BF, Measure.SKEW, 0.5, 5, grid_res=21)
    assert np.array_equal(first.points, second.points)
    assert first.components == second.components


def test_curve_rejects_fractional_iteration_count():
    with pytest.raises(ParameterRangeError):
        decay_curve(BF, Measure.L1, REFERENCE, (2.7,), p_count=9)


def test_curve_rejects_bool_p_count():
    with pytest.raises(ParameterRangeError):
        decay_curve(BF, Measure.L1, REFERENCE, (1,), p_count=True)


def test_surface_rejects_bool_iteration_count():
    with pytest.raises(ParameterRangeError):
        frozen_surface(BF, Measure.L1, 0.5, True, grid_res=5)


# every odd grid up to 101, the benchmark's grid 201 and grid 401; sweeping
# every odd grid from 3 to 401 (3.3e9 points) takes minutes
MASK_GRIDS = (*range(3, 102, 2), 201, 401)


def test_integer_plane_mask_equals_float_mask():
    for grid in MASK_GRIDS:
        axis = np.linspace(-1.0, 1.0, grid)
        plane_c2, plane_c3 = np.repeat(axis, grid), np.tile(axis, grid)
        first, last = _row_runs(grid)
        assert first.shape == last.shape == (grid, grid)
        for c1, plane_first, plane_last in zip(axis, first, last):
            j, k = _run_points(np.arange(grid), plane_first, plane_last)
            mask = physical_mask(c1, plane_c2, plane_c3)
            assert np.array_equal(j * grid + k, np.flatnonzero(mask))


def _evolved_axes(grid, factors, n):
    """Each lattice axis value after n multiplications by its factor, as the scan evolves them."""
    axis = lattice_axis(grid)
    return _evolve_rows(np.repeat(axis[:, None], 3, axis=1), np.tile(factors, (grid, 1)),
                        np.full(grid, n)).T


def _lattice_points(grid):
    """The (i, j, k) index arrays of the physical lattice points, from the float mask."""
    axis = lattice_axis(grid)
    return np.nonzero(physical_mask(axis[:, None, None], axis[:, None], axis))


@st.composite
def _gate_factors(draw):
    """Per-iteration factors of a channel, or arbitrary ones that may leave the tetrahedron."""
    source = draw(st.sampled_from(["channel", "paper dep above 3/4", "arbitrary", "ulp from 1"]))
    if source == "channel":
        kind = draw(st.sampled_from(list(ChannelKind)))
        p = draw(st.one_of(st.sampled_from([1e-12, 1.0 - 1e-12, 0.75]),
                           st.floats(1e-12, 1.0 - 1e-12)))
        return per_iteration_factors(kind, p, draw(st.sampled_from(list(CoefficientMapMode))))
    if source == "paper dep above 3/4":  # a negative factor: e3 falls along each run
        p = draw(st.floats(0.75, 1.0 - 1e-12, exclude_min=True))
        return per_iteration_factors(DEP, p, CoefficientMapMode.PAPER)
    if source == "arbitrary":
        return tuple(draw(st.floats(-1.5, 1.5)) for _ in range(3))
    edge = st.sampled_from([1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, -1.0, -1.0 - 2.0**-52])
    return tuple(draw(edge) for _ in range(3))


@settings(max_examples=80, deadline=None)
@given(_gate_factors(), st.integers(1, 12), st.sampled_from([11, 13, 15, 17, 19, 21]))
def test_run_end_gate_equals_per_point_gate(factors, n, grid):
    e1, e2, e3 = _evolved_axes(grid, factors, n)
    i, j, k = _lattice_points(grid)
    assert _runs_physical(e1, e2, e3, *_row_runs(grid)) == bool(
        physical_mask(e1[i], e2[j], e3[k]).all())


_OUTSIDE = ("lie outside the physical tetrahedron "
            "with vertices (1,-1,1), (-1,1,1), (1,1,-1), (-1,-1,-1)")


@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("factors, first", [
    ((1.5, 1.5, 1.5), (-1.5, -1.5, -1.5)),
    ((1.0, 0.5, -1.1), (-1.0, -0.5, 1.1)),
])
def test_unphysical_evolution_names_the_first_coherent_point(monkeypatch, measure, factors,
                                                             first):
    # the messages of the per-point check the run-end gate falls back to
    monkeypatch.setattr(scan, "per_iteration_factors", lambda *args: factors)
    for grid in (11, 21):
        with pytest.raises(UnphysicalStateError) as raised:
            frozen_surface(BF, measure, 0.5, 1, grid_res=grid)
        assert str(raised.value) == f"coefficients {first} {_OUTSIDE}"


@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("kind, p, n, mode", [
    (BF, 0.5, 5, CoefficientMapMode.DERIVED),
    (ChannelKind.BIT_PHASE_FLIP, 0.3, 1, CoefficientMapMode.DERIVED),
    (ChannelKind.PHASE_FLIP, 1e-12, 2, CoefficientMapMode.DERIVED),
    (DEP, 0.75, 3, CoefficientMapMode.DERIVED),
    (DEP, 0.9, 3, CoefficientMapMode.PAPER),
    (GAD, 1.0 - 1e-12, 40, CoefficientMapMode.DERIVED),
])
def test_c3_term_tables_are_bit_exact(kind, p, n, mode, measure):
    # the scan gathers each c3 term from a table over the axis or over e3
    grid = 21
    axis = lattice_axis(grid)
    i, j, k = _lattice_points(grid)
    e1, e2, e3 = _evolved_axes(grid, per_iteration_factors(kind, p, mode), n)
    for c1, c2, c3 in ((axis, axis, axis), (e1, e2, e3)):
        terms = (term[k] for term in _C3_TERMS[measure](c3))
        table = clamped_array(_KERNELS[measure](c1[i], c2[j], *terms))
        assert np.array_equal(table.view(np.int64),
                              closed_measures(measure, c1[i], c2[j], c3[k]).view(np.int64))


# p at both clamp edges, dep's complete-incoherence point, and anywhere between
def _channel_p(kind):
    special = [1e-12, 1.0 - 1e-12] + ([0.75] if kind is DEP else [])
    return st.one_of(st.sampled_from(special), st.floats(1e-12, 1.0 - 1e-12))


@st.composite
def surface_cases(draw):
    kind = draw(st.sampled_from(list(ChannelKind)))
    return dict(
        kind=kind,
        measure=draw(st.sampled_from(list(Measure))),
        p=draw(_channel_p(kind)),
        n=draw(st.integers(1, 40)),
        grid_res=draw(st.sampled_from([11, 13, 15, 17, 19, 21])),
        min_coherence=draw(st.sampled_from([0.0, 1e-4, 0.1])),
        mode=draw(st.sampled_from(list(CoefficientMapMode))),
    )


def _scalar_rates(kind, measure, p, n, grid_res, min_coherence, mode):
    """Scalar decay rate of each lattice point that passes the floors, NaN elsewhere."""
    axis = np.linspace(-1.0, 1.0, grid_res)
    rates = np.full((grid_res,) * 3, np.nan)
    for i, j, k in itertools.product(range(grid_res), repeat=3):
        c = BellCoefficients(float(axis[i]), float(axis[j]), float(axis[k]))
        if not is_physical(c):
            continue
        before = closed_measure(measure, c)
        if before <= COHERENCE_FLOOR or before < min_coherence:
            continue
        rates[i, j, k] = decay_rate(DecayQuery(c, measure, kind, p, n, mode))
    return axis, rates


@settings(max_examples=25, deadline=None)
@given(surface_cases(), st.sampled_from([1e-9, 1e-3, 0.5, None]), st.floats(0.0, 1.0))
# the p -> 0 clamp edge, where a power instead of repeated products shows
@example(dict(kind=BF, measure=Measure.SKEW, p=1e-12, n=2, grid_res=11, min_coherence=0.0,
              mode=CoefficientMapMode.PAPER), 1e-9, 0.0)
# dep's complete incoherence and underflow of the evolved coefficients
@example(dict(kind=DEP, measure=Measure.REL_ENT, p=0.75, n=3, grid_res=11, min_coherence=0.0,
              mode=CoefficientMapMode.DERIVED), None, 0.5)
@example(dict(kind=GAD, measure=Measure.L1, p=1.0 - 1e-12, n=40, grid_res=11,
              min_coherence=1e-4, mode=CoefficientMapMode.DERIVED), None, 1.0)
def test_surface_equals_scalar_rule(case, tol, pick):
    axis, rates = _scalar_rates(**case)
    gaps = np.unique(np.abs(rates[np.isfinite(rates)] - 1.0))
    gaps = gaps[gaps > 0]
    if tol is None:
        # one point's own |R - 1| as tol puts it exactly on the boundary, so
        # a last-bit difference between the two paths changes the cloud
        tol = float(gaps[int(pick * (len(gaps) - 1))]) if len(gaps) else 1e-3
    kept = np.abs(rates - 1.0) <= tol
    cloud = frozen_surface(**case, tol=tol)
    assert np.array_equal(cloud.points,
                          np.column_stack([axis[index] for index in np.nonzero(kept)]))
    assert cloud.components == ndimage.label(kept)[1]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(ChannelKind)),
    measure=st.sampled_from(list(Measure)),
    state=st.one_of(physical_coefficients(), physical_coefficients(on_boundary=True)),
    # scales toward the centre push the initial coherence down to the floor
    scale=st.sampled_from([1.0, 1.0, 1e-6, 1e-11, 3e-12]),
    n_list=st.lists(st.one_of(st.integers(1, 12), st.integers(1, 10**4)),
                    min_size=1, max_size=4),
    p_count=st.one_of(st.sampled_from([3, 7, 11]), st.integers(1, 15)),
    mode=st.sampled_from(list(CoefficientMapMode)),
)
def test_curve_cells_equal_scalar_decay_rate(kind, measure, state, scale, n_list, p_count,
                                             mode):
    state = BellCoefficients(*(scale * c for c in state))
    if closed_measure(measure, state) <= COHERENCE_FLOOR:
        with pytest.raises(IncoherentStateError):
            decay_curve(kind, measure, state, tuple(n_list), p_count, mode)
        return
    curve = decay_curve(kind, measure, state, tuple(n_list), p_count, mode)
    scalar = np.array([
        [decay_rate(DecayQuery(state, measure, kind, float(p), n, mode)) for n in n_list]
        for p in curve.p_values
    ])
    # bit patterns, so that -0.0 and NaN are compared exactly too
    assert np.array_equal(curve.rates.view(np.int64), scalar.view(np.int64))
    assert np.all(np.isfinite(curve.rates)) and curve.rates.min() >= 0.0
    # criterion 6's bound: where l1 is exactly frozen (bf at |c1| = |c2|) the
    # kernel's sum form rounds the evolved value up by one ulp, in both paths.
    # skew breaks it next to a face: test_skew_rate_bound_next_to_an_edge
    if measure is not Measure.SKEW:
        assert curve.rates.max() <= 1.0 + 1e-9


@pytest.mark.xfail(strict=True, reason="skew_kernel takes sqrt of a parity product that is "
                   "only round-off next to a face, so its error grows to ~sqrt(eps)")
def test_skew_rate_bound_next_to_an_edge():
    # one ulp inside the edge q2 = q4 = 0; bpf only shrinks c1 and c3, which
    # lowers the skew coherence, so the exact rate is below 1
    state = BellCoefficients(0.18642486398938007, -0.9999999999999999, 0.18642486398938007)
    rate = decay_rate(DecayQuery(state, Measure.SKEW, ChannelKind.BIT_PHASE_FLIP, 0.25, 1))
    assert rate <= 1.0 + 1e-9


# Bromley, Cianciaruso and Adesso, PRL 114, 210401: under bf (which keeps c1)
# a Bell-diagonal state on c2 = -c1 c3 keeps all its coherence, and so does
# one on c1 = -c2 c3 under bpf (which keeps c2). This check uses only that
# condition and numpy's eigh, and shares no code with either engine.
_PAULI_PAIRS = np.array([np.kron(m, m) for m in (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)])


def _surface_lattice_points(kind, grid_res):
    """Integer coordinates (u1, u2, u3) of the physical lattice points on the freezing surface.

    Lattice value i is c = u / s with u = 2i - s and s = grid_res - 1, so the
    bf surface reads u2 s = -u1 u3, the bpf surface u1 s = -u2 u3, and a
    point is physical when every parity s -+ u1 -+ u2 -+ u3 is >= 0.
    """
    s = grid_res - 1
    u = np.arange(-s, s + 1, 2)
    u1, u2, u3 = u[:, None, None], u[None, :, None], u[None, None, :]
    on = (u2 * s == -u1 * u3) if kind is BF else (u1 * s == -u2 * u3)
    u1, u2, u3 = (u[axis] for axis in np.nonzero(on))
    parities = np.array([s - u1 - u2 - u3, s + u1 + u2 - u3, s + u1 - u2 + u3, s - u1 + u2 + u3])
    return np.column_stack([u1, u2, u3])[parities.min(axis=0) >= 0]


def _matrix_coherence(measure, c):
    """rel-ent S(diag rho) - S(rho) or skew 1 - sum_k <k|sqrt(rho)|k>^2 of each row of ``c``."""
    rho = (np.eye(4) + np.einsum("ni,ijk->njk", c, _PAULI_PAIRS)) / 4.0
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    if measure is Measure.REL_ENT:
        diagonal = np.clip(np.diagonal(rho, axis1=1, axis2=2).real, 0.0, None)
        return np.sum(xlogy(w, w), axis=1) - np.sum(xlogy(diagonal, diagonal), axis=1)
    root = (v * np.sqrt(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return 1.0 - np.sum(np.diagonal(root, axis1=1, axis2=2).real ** 2, axis=1)


@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("grid_res", [41, 101])
@pytest.mark.parametrize("measure", [Measure.REL_ENT, Measure.SKEW])
@pytest.mark.parametrize("kind", [BF, ChannelKind.BIT_PHASE_FLIP])
def test_lattice_points_on_the_freezing_surface_are_in_the_cloud(kind, measure, grid_res, p):
    min_coherence = 1e-4
    u = _surface_lattice_points(kind, grid_res)
    before = _matrix_coherence(measure, u / (grid_res - 1))
    # no point so close to the floor that round-off could decide its side
    assert np.all(np.abs(before / min_coherence - 1.0) > 1e-6)
    expected = u[before >= min_coherence]
    assert len(expected) > 0
    for n in (1, 5, 50):
        cloud = frozen_surface(kind, measure, p, n, grid_res=grid_res,
                               min_coherence=min_coherence)
        members = {tuple(row) for row in np.rint(cloud.points * (grid_res - 1)).astype(int)}
        missing = [tuple(row) for row in expected if tuple(row) not in members]
        assert not missing, (n, missing[:5])
