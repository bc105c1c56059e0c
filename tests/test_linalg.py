import numpy as np
import pytest

from coherence_lab import (
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


def test_a_stack_of_no_matrices_stays_valid():
    assert validate_density_matrix(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4, 4)
