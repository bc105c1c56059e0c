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
    closed_measure,
    decay_curve,
    decay_rate,
    frozen_surface,
    is_physical,
)
from coherence_lab.decay import COHERENCE_FLOOR
from coherence_lab.scan import _physical_plane_points
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


def test_surface_bf_l1_region_small_grid():
    grid = 21
    cloud = frozen_surface(BF, Measure.L1, 0.5, 1, grid_res=grid, tol=1e-9, min_coherence=1e-6)
    axis = np.linspace(-1.0, 1.0, grid)
    half = grid // 2
    idx = np.arange(grid)
    i, j, k = np.meshgrid(idx, idx, idx, indexing="ij")
    c1, c2, c3 = axis[i], axis[j], axis[k]
    q_min = np.minimum(
        np.minimum(1 - c1 - c2 - c3, 1 + c1 + c2 - c3),
        np.minimum(1 + c1 - c2 + c3, 1 - c1 + c2 + c3),
    )
    physical = q_min / 4.0 >= -1e-12
    # index comparison realizes the mathematical |c1| >= |c2| on the lattice
    region = physical & (np.abs(i - half) >= np.abs(j - half)) & (np.abs(i - half) > 0)
    expected = np.argwhere(region)
    assert np.array_equal(
        cloud.points,
        np.column_stack([axis[expected[:, 0]], axis[expected[:, 1]], axis[expected[:, 2]]]),
    )
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
        # strict: one (j, k) pair of index arrays per plane, no more and no fewer
        for c1, (j, k) in zip(axis, _physical_plane_points(grid), strict=True):
            mask = physical_mask(c1, plane_c2, plane_c3)
            assert np.array_equal(j * grid + k, np.flatnonzero(mask))


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


@pytest.mark.parametrize("grid_res", [41, 101])
@pytest.mark.parametrize("measure", [Measure.REL_ENT, Measure.SKEW])
@pytest.mark.parametrize("kind", [BF, ChannelKind.BIT_PHASE_FLIP])
def test_lattice_points_on_the_freezing_surface_are_in_the_cloud(kind, measure, grid_res):
    min_coherence = 1e-4
    u = _surface_lattice_points(kind, grid_res)
    before = _matrix_coherence(measure, u / (grid_res - 1))
    # no point so close to the floor that round-off could decide its side
    assert np.all(np.abs(before / min_coherence - 1.0) > 1e-6)
    expected = u[before >= min_coherence]
    assert len(expected) > 0
    for n in (1, 5, 50):
        cloud = frozen_surface(kind, measure, 0.5, n, grid_res=grid_res,
                               min_coherence=min_coherence)
        members = {tuple(row) for row in np.rint(cloud.points * (grid_res - 1)).astype(int)}
        missing = [tuple(row) for row in expected if tuple(row) not in members]
        assert not missing, (n, missing[:5])
