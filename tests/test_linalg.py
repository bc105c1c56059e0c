import numpy as np
import pytest

import math

from coherence_lab import (
    InternalNumericalError,
    NotHermitianError,
    NotPSDError,
    TraceNotOneError,
    ValidationError,
    apply_n,
    from_density_matrix,
    hermitian_eigensystem,
    kraus_set,
    matrix_measure,
    psd_sqrt,
    to_density_matrix,
    von_neumann_entropy,
)
from coherence_lab.linalg import (
    HERMITIAN_TOL,
    PSD_TOL,
    SQRT_RECONSTRUCTION_TOL,
    TRACE_TOL,
    XLNX_FLOOR,
    _xlnx,
    require_hermitian,
    require_psd,
    require_unit_trace,
)
from coherence_lab.states import validate_density_matrix
from conftest import REFERENCE

LN4 = float(np.log(4.0))

# high-precision oracle values for the reference state (0.6, 0.1, 0.2)
S_REFERENCE = 1.1287106813920359
SQRT_RHO_00 = 0.53512512689365132


def random_hermitian(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (a + a.conj().T) / 2.0


def test_eigensystem_identity():
    w, v = hermitian_eigensystem(np.eye(4, dtype=complex))
    assert np.allclose(w, 1.0, atol=1e-14)
    assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-11


def test_eigensystem_diagonal_sorted():
    m = np.diag([0.3, 0.1, 0.4, 0.2]).astype(complex)
    w, _ = hermitian_eigensystem(m)
    assert np.allclose(w, [0.1, 0.2, 0.3, 0.4], atol=1e-14)


def test_eigensystem_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = random_hermitian(rng)
        w, v = hermitian_eigensystem(m)
        assert np.max(np.abs(m - (v * w) @ v.conj().T)) <= 1e-11
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-11
        assert np.all(np.diff(w) >= -1e-15)


def test_eigensystem_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(NotHermitianError):
        hermitian_eigensystem(m)


def test_eigensystem_rejects_non_finite():
    m = np.eye(4, dtype=complex)
    m[2, 2] = np.nan
    with pytest.raises(ValidationError):
        hermitian_eigensystem(m)


def test_eigensystem_rejects_non_square():
    with pytest.raises(ValidationError):
        hermitian_eigensystem(np.ones((2, 3)))


def test_psd_sqrt_identity_and_diagonal():
    assert np.max(np.abs(psd_sqrt(np.eye(4, dtype=complex)) - np.eye(4))) <= 1e-14
    m = np.diag([4.0, 1.0, 0.0, 9.0]).astype(complex) / 14.0
    expected = np.diag([2.0, 1.0, 0.0, 3.0]) / np.sqrt(14.0)
    assert np.max(np.abs(psd_sqrt(m) - expected)) <= 1e-14


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        m = m / np.trace(m).real
        root = psd_sqrt(m)
        assert np.max(np.abs(root @ root - m)) <= 1e-10


def test_psd_sqrt_reference_block_value():
    # <00|sqrt(rho)|00> = (sqrt(mu+) + sqrt(mu-))/2 with mu = (1+c3 +- (c1-c2))/4
    root = psd_sqrt(to_density_matrix(REFERENCE))
    assert abs(float(root[0, 0].real) - SQRT_RHO_00) <= 1e-12


def test_psd_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, 1.0, 1.0, -1e-6]).astype(complex))


def test_entropy_pure_and_mixed():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == 0.0
    assert abs(von_neumann_entropy(np.eye(4, dtype=complex) / 4.0) - LN4) <= 1e-14


def test_a_zero_entropy_is_positive_zero():
    # the sum of a pure spectrum's x ln x is +0.0 and its negation -0.0,
    # which a clamp at '< 0' would let through
    assert math.copysign(1.0, von_neumann_entropy(np.diag([1.0, 0.0, 0.0, 0.0]))) == 1.0
    pure = np.zeros((4, 4, 4))
    pure[:, np.arange(4), np.arange(4)] = np.eye(4)
    entropy = von_neumann_entropy(pure)
    assert np.array_equal(entropy, np.zeros(4))
    assert all(math.copysign(1.0, value) == 1.0 for value in entropy)


def test_entropy_reference_state():
    assert abs(von_neumann_entropy(to_density_matrix(REFERENCE)) - S_REFERENCE) <= 1e-12


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        m = m / np.trace(m).real
        _, v = hermitian_eigensystem(random_hermitian(rng))
        rotated = v @ m @ v.conj().T
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(m)) <= 1e-10
        assert 0.0 <= von_neumann_entropy(m) <= LN4 + 1e-12


def test_entropy_rejects_bad_trace_and_negativity():
    with pytest.raises(TraceNotOneError):
        von_neumann_entropy(np.eye(4, dtype=complex) / 2.0)
    with pytest.raises(NotPSDError):
        von_neumann_entropy(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


MATRIX_ENTRY_POINTS = {
    "hermitian_eigensystem": hermitian_eigensystem,
    "psd_sqrt": psd_sqrt,
    "von_neumann_entropy": von_neumann_entropy,
    "validate_density_matrix": validate_density_matrix,
    "matrix_measure": lambda m: matrix_measure("l1", m),
    "from_density_matrix": from_density_matrix,
    "apply_n": lambda m: apply_n(m, kraus_set("bf", 0.3), 1),
}


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 0, 0)],
                         ids=["matrix", "stack", "empty-stack"])
@pytest.mark.parametrize("routine", MATRIX_ENTRY_POINTS.values(), ids=list(MATRIX_ENTRY_POINTS))
def test_an_empty_matrix_is_rejected(routine, shape):
    # a matrix with no entries has no maximum Hermitian defect to test
    with pytest.raises(ValidationError, match="nonempty square matrix"):
        routine(np.zeros(shape, dtype=complex))


# inputs that are not numeric matrices: each was parsed, read as numbers or
# met with a bare ValueError/TypeError before the matrix intake checked dtypes
NOT_NUMERIC = {
    "string": "x",
    "dict": {},
    "string entries": [["0.25", "0", "0", "0"], ["0", "0.25", "0", "0"],
                       ["0", "0", "0.25", "0"], ["0", "0", "0", "0.25"]],
    "bool entries": np.diag([True, False, False, False]),
    "object entries": np.full((4, 4), 0.25, dtype=object),
    "ragged": [[0.25, 0.0, 0.0, 0.0], [0.0, 0.25]],
}


@pytest.mark.parametrize("junk", NOT_NUMERIC.values(), ids=list(NOT_NUMERIC))
@pytest.mark.parametrize("routine", MATRIX_ENTRY_POINTS.values(), ids=list(MATRIX_ENTRY_POINTS))
def test_a_matrix_that_is_not_numeric_is_rejected(routine, junk):
    with pytest.raises(ValidationError, match="numeric matrix"):
        routine(junk)


def _bits(result):
    if isinstance(result, tuple):
        return b"".join(_bits(part) for part in result)
    return np.asarray(result).tobytes()


# the pure states |0000><0000| and |++><++| in every numeric form the intake
# converts to complex128
NUMERIC_FORMS = [
    (np.diag([1, 0, 0, 0]), [np.diag([1.0, 0.0, 0.0, 0.0]).tolist(),
                             np.diag([1, 0, 0, 0]).astype(np.uint8)]),
    (np.full((4, 4), 0.25), [[[0.25] * 4] * 4, np.full((4, 4), 0.25, dtype=np.float32),
                             np.full((4, 4), 0.25 + 0j).tolist()]),
]


@pytest.mark.parametrize("reference, forms", NUMERIC_FORMS, ids=["integer", "float"])
@pytest.mark.parametrize("routine", MATRIX_ENTRY_POINTS.values(), ids=list(MATRIX_ENTRY_POINTS))
def test_numeric_matrices_keep_their_bits(routine, reference, forms):
    expected = _bits(routine(reference.astype(np.complex128)))
    for form in forms:
        assert _bits(routine(form)) == expected


def test_a_stack_of_no_matrices_stays_valid():
    assert validate_density_matrix(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4, 4)


ABOVE_FLOOR = float(np.nextafter(XLNX_FLOOR, 1.0))


@pytest.mark.parametrize("rest", [[], [0.5], [0.0, 0.5]])
def test_xlnx_is_zero_at_exactly_its_floor(rest):
    # the floor itself is the least entry, or sits beside one below it
    with np.errstate(divide="ignore", invalid="ignore"):  # as every caller runs it
        out = _xlnx(np.array([XLNX_FLOOR, *rest]))
    assert out[0] == 0.0
    assert np.array_equal(out[1:], [x * np.log(x) if x else 0.0 for x in rest])


def test_xlnx_is_x_ln_x_one_ulp_above_its_floor():
    out = _xlnx(np.array([ABOVE_FLOOR, 0.25]))
    assert out[0] == np.log(ABOVE_FLOOR) * ABOVE_FLOOR != 0.0
    assert out[1] == np.log(0.25) * 0.25


@pytest.mark.parametrize("small", [XLNX_FLOOR, ABOVE_FLOOR])
def test_entropy_counts_an_eigenvalue_only_above_the_floor(small):
    # a diagonal matrix, whose eigenvalues come back as its entries
    w = np.array([small, 0.25, 0.25, 0.5 - small])
    entropy = von_neumann_entropy(np.diag(w))
    assert np.array_equal(np.linalg.eigvalsh(np.diag(w).astype(complex)), w)
    first = small * np.log(small) if small > XLNX_FLOOR else 0.0
    assert entropy == -np.sum([first, *(x * np.log(x) for x in w[1:])])


# The validators are the oracle's only Hermiticity, trace and PSD guards, so
# each threshold is pinned at its exact float where one exists.


def test_require_psd_passes_exactly_minus_its_tolerance():
    require_psd(np.array([-PSD_TOL, 0.0]))
    with pytest.raises(NotPSDError):
        require_psd(np.array([0.0, np.nextafter(-PSD_TOL, -1.0)]))


def test_require_hermitian_passes_a_defect_of_exactly_its_tolerance():
    # |m[0, 1] - conj(m[1, 0])| is m[0, 1] itself, with no rounding
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = HERMITIAN_TOL
    assert require_hermitian(m) is not None
    m[0, 1] = np.nextafter(HERMITIAN_TOL, 1.0)
    with pytest.raises(NotHermitianError):
        require_hermitian(m)


@pytest.mark.parametrize("small", [PSD_TOL, float(np.nextafter(PSD_TOL, 1.0))])
def test_psd_sqrt_zeroes_an_eigenvalue_of_exactly_its_tolerance(small):
    # a diagonal matrix, whose eigenvalues come back as its entries
    w = np.array([small, 0.25, 0.25, 0.5 - small])
    assert np.array_equal(np.linalg.eigvalsh(np.diag(w).astype(complex)), w)
    root = psd_sqrt(np.diag(w))
    assert root[0, 0] == (0.0 if small == PSD_TOL else np.sqrt(small))


def test_require_unit_trace_limit_sits_between_two_neighbouring_traces():
    # For t in [1/2, 2], t - 1 is exact (Sterbenz) and a multiple of 2^-53;
    # the double TRACE_TOL has denominator 2^86 in lowest terms, so no trace
    # is off 1 by exactly TRACE_TOL and '>' and '>=' agree on every trace.
    # The limit itself is pinned between a trace's neighbours on each side.
    assert TRACE_TOL.as_integer_ratio()[1] > 2**53
    for ulp in (2.0**-52, -(2.0**-53)):
        k = math.floor(TRACE_TOL / abs(ulp))
        require_unit_trace(np.array([1.0 + k * ulp]))
        with pytest.raises(TraceNotOneError):
            require_unit_trace(np.array([1.0 + (k + 1) * ulp]))


@pytest.mark.parametrize("x, defect, passes", [(262144.37, 2.0**-34, True),
                                               (524290.563, 2.0**-33, False)])
def test_psd_sqrt_reconstruction_limit_sits_between_two_ulps(x, defect, passes):
    # On diag(1, 1, 1, x) the root is diag(1, 1, 1, sqrt(x)) and the only
    # defect is fl(sqrt(x)^2) - x, one ulp of x: 2^-34 in [2^18, 2^19) and
    # 2^-33 in [2^19, 2^20). Neither is the double 1e-10, so '>' and '>='
    # agree on these inputs; the limit is pinned between them.
    assert math.sqrt(x) * math.sqrt(x) - x == defect
    assert (defect < SQRT_RECONSTRUCTION_TOL) is passes
    m = np.diag([1.0, 1.0, 1.0, x]).astype(complex)
    if passes:
        assert psd_sqrt(m)[3, 3] == math.sqrt(x)
    else:
        with pytest.raises(InternalNumericalError):
            psd_sqrt(m)
