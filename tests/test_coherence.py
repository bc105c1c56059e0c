import numpy as np
import pytest
from hypothesis import assume, given, settings

from coherence_lab import (
    BellCoefficients,
    Measure,
    UnphysicalStateError,
    bell_eigenvalues,
    closed_measure,
    matrix_measure,
    sample_states,
    to_density_matrix,
)
from coherence_lab.coherence import XLNX_FLOOR, clamped_array, closed_measures, rel_entropy_kernel
from coherence_lab.states import physical_mask
from conftest import REFERENCE, VERTICES, physical_coefficients

LN2 = float(np.log(2.0))

# high-precision oracle values for the reference state (0.6, 0.1, 0.2)
REL_ENT_REFERENCE = 0.23744816617716588
SKEW_REFERENCE = 0.13045761347892172


def test_reference_state_closed_values():
    assert closed_measure(Measure.L1, REFERENCE) == 0.6
    assert abs(closed_measure(Measure.REL_ENT, REFERENCE) - REL_ENT_REFERENCE) <= 1e-12
    assert abs(closed_measure(Measure.SKEW, REFERENCE) - SKEW_REFERENCE) <= 1e-12
    block_form = (2.0 - np.sqrt(0.1 * 1.5) - np.sqrt(1.7 * 0.7)) / 4.0
    assert abs(closed_measure(Measure.SKEW, REFERENCE) - block_form) <= 1e-15


def test_reference_state_matrix_values():
    rho = to_density_matrix(REFERENCE)
    assert abs(matrix_measure(Measure.L1, rho) - 0.6) <= 1e-12
    assert abs(matrix_measure(Measure.REL_ENT, rho) - REL_ENT_REFERENCE) <= 1e-12
    assert abs(matrix_measure(Measure.SKEW, rho) - SKEW_REFERENCE) <= 1e-12


def test_bell_vertex_values_both_routes():
    vertex = BellCoefficients(1.0, -1.0, 1.0)
    rho = to_density_matrix(vertex)
    assert abs(closed_measure(Measure.L1, vertex) - 1.0) <= 1e-12
    assert abs(matrix_measure(Measure.L1, rho) - 1.0) <= 1e-12
    assert abs(closed_measure(Measure.REL_ENT, vertex) - LN2) <= 1e-12
    assert abs(matrix_measure(Measure.REL_ENT, rho) - LN2) <= 1e-12
    assert abs(closed_measure(Measure.SKEW, vertex) - 0.5) <= 1e-12
    assert abs(matrix_measure(Measure.SKEW, rho) - 0.5) <= 1e-12


@pytest.mark.parametrize("c3", [-0.7, 0.0, 0.4, 1.0])
def test_diagonal_states_have_zero_coherence(c3):
    c = BellCoefficients(0.0, 0.0, c3)
    for measure in Measure:
        assert closed_measure(measure, c) == 0.0
        assert matrix_measure(measure, to_density_matrix(c)) <= 1e-12


def test_l1_equals_max_coefficient():
    assert closed_measure(Measure.L1, BellCoefficients(-0.3, 0.5, 0.1)) == 0.5
    assert closed_measure(Measure.L1, BellCoefficients(0.3, -0.2, 0.0)) == 0.3


@settings(max_examples=200, deadline=None)
@given(physical_coefficients())
def test_closed_matches_matrix(c):
    # sqrt is infinitely steep at 0, so within ~1e-8 of a tetrahedron face
    # neither route can pin the skew value to 1e-9; the agreement contract
    # covers states whose smallest eigenvalue clears that band.
    assume(min(bell_eigenvalues(c)) >= 2.5e-9)
    rho = to_density_matrix(c)
    for measure in Measure:
        assert abs(closed_measure(measure, c) - matrix_measure(measure, rho)) <= 1e-9


def test_closed_matches_matrix_on_exact_faces():
    # face states whose coefficients are exact binary floats: the factored
    # skew products vanish identically and both routes agree tightly
    for c in [
        BellCoefficients(-0.3333333333333333, 1.0, 0.3333333333333333),
        BellCoefficients(0.5, -0.5, 0.0),
        BellCoefficients(0.75, 0.25, 0.0),
        BellCoefficients(0.0, 0.5, -0.5),
    ]:
        assert min(bell_eigenvalues(c)) <= 1e-15
        rho = to_density_matrix(c)
        for measure in Measure:
            assert abs(closed_measure(measure, c) - matrix_measure(measure, rho)) <= 2e-9


def test_ranges_and_faithfulness_over_sample():
    for c in sample_states(seed=5, count=1000):
        l1, rel, skew = (closed_measure(measure, c) for measure in Measure)
        assert 0.0 <= l1 <= 1.0 + 1e-12
        assert 0.0 <= rel <= LN2 + 1e-12
        assert 0.0 <= skew <= 0.5 + 1e-12
        if max(abs(c.c1), abs(c.c2)) > 1e-6:
            assert rel > 0.0 and skew > 0.0 and l1 > 0.0
        if max(abs(c.c1), abs(c.c2)) <= 1e-12:
            assert rel <= 1e-12 and skew <= 1e-12 and l1 <= 1e-12


def test_dephasing_kills_every_measure():
    for c in sample_states(seed=6, count=50):
        dephased = np.diag(np.diag(to_density_matrix(c)))
        for measure in Measure:
            assert matrix_measure(measure, dephased) <= 1e-12


def test_closed_measures_reject_unphysical():
    bad = BellCoefficients(1.0, 1.0, 1.0)
    for measure in Measure:
        with pytest.raises(UnphysicalStateError):
            closed_measure(measure, bad)


def _clipped_rel_entropy(c1, c2, c3):
    """Reference rel-ent: clipped parities, then x ln x guarded by np.maximum and np.where.

    The masked-log kernel skips the clips and the guard temporaries; its
    bits must equal this form's on every input.
    """
    def xlnx(x):
        safe = np.maximum(x, XLNX_FLOOR)
        return np.where(x > XLNX_FLOOR, safe * np.log(safe), 0.0)

    q1, q2, q3, q4 = (
        np.clip(q, 0.0, None)
        for q in (1.0 - c1 - c2 - c3, 1.0 + c1 + c2 - c3, 1.0 + c1 - c2 + c3, 1.0 - c1 + c2 + c3)
    )
    spectral = xlnx(q1) + xlnx(q2) + xlnx(q3) + xlnx(q4)
    diagonal = xlnx(np.clip(1.0 + c3, 0.0, None)) + xlnx(np.clip(1.0 - c3, 0.0, None))
    return spectral / 4.0 - diagonal / 2.0


def _same_bits(a, b):
    """Same type, dtype, shape and bytes, so that -0.0 and NaN payloads count too."""
    if type(a) is not type(b):
        return False
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _rel_ent_inputs():
    """(label, c1, c2, c3, physical) over random, lattice, face, vertex and NaN states."""
    rng = np.random.default_rng(20150521)
    vertices = np.array(VERTICES)
    inside = rng.dirichlet(np.ones(4), 50_000) @ vertices
    on_face = rng.dirichlet(np.ones(3), 20_000) @ vertices[:3]
    on_edge = np.linspace(0.0, 1.0, 1_001)[:, None] * (vertices[1] - vertices[0]) + vertices[0]
    axis = np.linspace(-1.0, 1.0, 41)
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    cube = rng.uniform(-1.2, 1.2, (50_000, 3))
    with_nan = cube.copy()
    with_nan[rng.random(with_nan.shape) < 0.02] = np.nan
    for label, rows in (("inside", inside), ("face", on_face), ("edge", on_edge),
                        ("vertices", vertices), ("lattice", lattice), ("cube", cube),
                        ("nan", with_nan)):
        physical = physical_mask(*rows.T)
        yield label, *rows.T, bool(physical.all())
        if not physical.all():
            yield f"physical {label}", *rows[physical].T, True
    scalars = [REFERENCE, *VERTICES, (0.5, -0.5, 0.0), (0.0, 0.0, 1.0), (1e-17, 0.0, 1.0 - 1e-16)]
    for c in scalars:
        yield f"floats {c}", *(float(x) for x in c), True
        yield f"numpy scalars {c}", *(np.float64(x) for x in c), True
    for c in VERTICES:
        yield f"ints {c}", *(int(x) for x in c), True
    yield "scalar nan", float("nan"), 0.0, 0.0, False


def test_rel_entropy_bits_equal_the_clipped_form():
    for label, c1, c2, c3, physical in _rel_ent_inputs():
        reference = _clipped_rel_entropy(c1, c2, c3)
        assert _same_bits(rel_entropy_kernel(c1, c2, c3), reference), label
        if physical:
            assert _same_bits(closed_measures(Measure.REL_ENT, c1, c2, c3),
                              clamped_array(reference)), label
