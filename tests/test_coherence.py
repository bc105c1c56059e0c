import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coherence_lab import (
    BellCoefficients,
    InternalNumericalError,
    Measure,
    UnphysicalStateError,
    bell_eigenvalues,
    closed_measure,
    matrix_measure,
    sample_states,
    to_density_matrix,
)
from coherence_lab.coherence import XLNX_FLOOR, clamped_array, closed_measures, rel_entropy_kernel
from coherence_lab.states import PHYSICAL_TOL, physical_mask
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


# Reference copies of the closed-measure path as it stood before the kernels
# were trimmed: masked x ln x, np.clip in skew, the parity test by four
# divisions, and a clamp that always compares twice. The kernels must keep
# these bits; rel-ent has no golden hash (its log is build-dependent), so
# this comparison is its guard.
def _ref_parities(c1, c2, c3):
    return (
        1.0 - c1 - c2 - c3,
        1.0 + c1 + c2 - c3,
        1.0 + c1 - c2 + c3,
        1.0 - c1 + c2 + c3,
    )


def _ref_nonnegative(q):
    q1, q2, q3, q4 = q
    floor = -1e-12
    return (q1 / 4.0 >= floor) & (q2 / 4.0 >= floor) & (q3 / 4.0 >= floor) & (q4 / 4.0 >= floor)


def _ref_xlnx(x):
    x = np.asarray(x)
    keep = x > XLNX_FLOOR
    out = np.zeros(x.shape, dtype=np.result_type(x, XLNX_FLOOR))
    np.log(x, out=out, where=keep)
    return np.multiply(out, x, out=out, where=keep)


def _ref_skew(c1, c2, c3):
    prod12 = (1.0 - c3 - (c1 + c2)) * (1.0 - c3 + (c1 + c2))
    prod34 = (1.0 + c3 - (c1 - c2)) * (1.0 + c3 + (c1 - c2))
    root12 = np.sqrt(np.clip(prod12, 0.0, None))
    root34 = np.sqrt(np.clip(prod34, 0.0, None))
    return (2.0 - root12 - root34) / 4.0


def _ref_clamped(values):
    values = np.asarray(values)
    beyond = values < -1e-12
    if beyond.any():
        value = float(np.ravel(values)[int(np.flatnonzero(beyond)[0])])
        raise InternalNumericalError(f"coherence value {value!r} is negative beyond round-off")
    return np.where(values < 0.0, 0.0, values)


def _ref_closed_measures(measure, c1, c2, c3):
    q = _ref_parities(c1, c2, c3)
    outside = np.logical_not(_ref_nonnegative(q))
    if outside.any():
        first = tuple(float(np.broadcast_to(c, outside.shape)[outside][0]) for c in (c1, c2, c3))
        raise UnphysicalStateError(
            f"coefficients {first} lie outside the physical tetrahedron "
            "with vertices (1,-1,1), (-1,1,1), (1,1,-1), (-1,-1,-1)"
        )
    if measure is Measure.L1:
        values = np.maximum(np.abs(c1), np.abs(c2))
    elif measure is Measure.SKEW:
        values = _ref_skew(c1, c2, c3)
    else:
        spectral = _ref_xlnx(q[0]) + _ref_xlnx(q[1]) + _ref_xlnx(q[2]) + _ref_xlnx(q[3])
        diagonal = _ref_xlnx(1.0 + c3) + _ref_xlnx(1.0 - c3)
        values = spectral / 4.0 - diagonal / 2.0
    return _ref_clamped(values)


def _outcome(evaluate, *args):
    """The value of ``evaluate(*args)``, or the type and message of the error it raises."""
    try:
        return evaluate(*args)
    except (UnphysicalStateError, InternalNumericalError) as exc:
        return type(exc), str(exc)


def _same_outcome(got, want):
    if isinstance(want, tuple):
        return got == want
    return _same_bits(got, want)


# coordinates that sit on rounding boundaries: signed zeros, subnormals, the
# smallest normal, one ulp off a vertex, and NaN
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53,
            -(1.0 - 2.0**-53), 1.0, -1.0, float("nan"))


@st.composite
def _plane_rows(draw, c1):
    """(c2, c3) of states in the plane of a fixed c1, from the interior out to its edges.

    The plane's physical region is |c2 + c3| <= 1 - c1 and |c2 - c3| <= 1 + c1;
    fractions of +-1 put a state on a face, so the rounded state may fall just
    outside, and then the unphysical-state error is what gets compared.
    """
    fraction = st.one_of(st.sampled_from([-1.0, 1.0, 0.0, -0.0]), st.floats(-1.0, 1.0))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        total = draw(fraction) * (1.0 - c1)
        gap = draw(fraction) * (1.0 + c1)
        rows.append(((total + gap) / 2.0, (total - gap) / 2.0))
    return rows


@st.composite
def _closed_measure_inputs(draw):
    """Coefficients in every form ``closed_measures`` is called with.

    Rows are interior, face, edge and vertex states, some coordinates
    replaced by a special value; c1 is an array or one scalar shared by a
    plane of rows, and the arrays may be 2-D or the whole input scalars.
    """
    form = draw(st.sampled_from(["rows", "plane", "matrix", "floats"]))
    if form == "plane":
        c1 = draw(st.one_of(st.sampled_from(_SPECIAL[:9]), st.floats(-1.0, 1.0)))
        c2, c3 = np.array(draw(_plane_rows(c1))).T
        return c1, c2, c3
    count = 1 if form == "floats" else draw(st.integers(1, 12))
    rows = np.array([draw(physical_coefficients(on_boundary=draw(st.booleans())))
                     for _ in range(count)])
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, count - 1)), draw(st.integers(0, 2))] = draw(
            st.sampled_from(_SPECIAL))
    if form == "floats":
        return tuple(float(c) for c in rows[0])
    if form == "matrix" and count % 2 == 0:
        rows = rows.reshape(2, count // 2, 3)
    return tuple(np.moveaxis(rows, -1, 0))


@settings(max_examples=400, deadline=None)
@given(_closed_measure_inputs())
def test_closed_measures_bits_equal_the_reference_path(coefficients):
    for measure in Measure:
        got = _outcome(closed_measures, measure, *coefficients)
        want = _outcome(_ref_closed_measures, measure, *coefficients)
        assert _same_outcome(got, want), (measure, coefficients)


def _threshold_inputs():
    """States whose lowest parity is -4 PHYSICAL_TOL exactly, or one ulp either side of it.

    c1 = 1 makes q1 = -c2 - c3 and c1 = -1 makes q2 = c2 - c3 without
    rounding, so q / 4 meets -PHYSICAL_TOL exactly at the middle offset.
    """
    edge = 4.0 * PHYSICAL_TOL
    for x in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
        for c in ((1.0, x, 0.0), (-1.0, 0.0, x)):
            yield f"threshold {c}", *(float(v) for v in c), None
            yield f"threshold rows {c}", *np.array([REFERENCE, c]).T, None


def test_closed_measures_bits_equal_the_reference_path_on_sweeps():
    for label, c1, c2, c3, _ in (*_rel_ent_inputs(), *_threshold_inputs()):
        for measure in Measure:
            got = _outcome(closed_measures, measure, c1, c2, c3)
            assert _same_outcome(got, _outcome(_ref_closed_measures, measure, c1, c2, c3)), (
                label, measure)


@pytest.mark.parametrize("values", [
    np.array([0.5, -1e-13, -0.0, 0.0, np.nan, -1e-12, 5e-324, -5e-324]),
    np.array([0.25, 1.0]),
    np.array([0.1, -2e-12, -1.0]),
    np.array([[np.nan, -3e-12], [0.2, -1e-13]]),
    np.array([]),
    -0.0,
    -1e-13,
    -1.5e-12,
    float("nan"),
])
def test_clamped_array_equals_the_reference_clamp(values):
    before = np.array(values, copy=True)
    assert _same_outcome(_outcome(clamped_array, values), _outcome(_ref_clamped, values))
    assert _same_bits(np.asarray(values), before)  # the input is never written
