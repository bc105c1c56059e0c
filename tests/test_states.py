import inspect

import numpy as np
import pytest
from hypothesis import given, settings

from coherence_lab import (
    BellCoefficients,
    Lcg,
    ParameterRangeError,
    NotPSDError,
    TraceNotOneError,
    UnphysicalStateError,
    ValidationError,
    bell_eigenvalues,
    from_density_matrix,
    hermitian_eigensystem,
    is_physical,
    random_physical_state,
    sample_states,
    to_density_matrix,
)
from coherence_lab.linalg import require_hermitian
from coherence_lab.states import PHYSICAL_TOL, parities, physical_mask, validate_density_matrix
from conftest import REFERENCE, VERTICES, physical_coefficients


def test_from_text_round_trip():
    c = BellCoefficients.from_text(" 0.6, 0.1 ,0.2 ")
    assert c == REFERENCE
    assert BellCoefficients.from_text(c.to_text()) == c


@pytest.mark.parametrize("text", ["0.6,0.1", "a,b,c", "1,2,3,4", "0.1,inf,0"])
def test_from_text_rejects_malformed(text):
    with pytest.raises(ValidationError):
        BellCoefficients.from_text(text)


def test_bell_eigenvalues_examples():
    assert np.allclose(bell_eigenvalues(BellCoefficients(0, 0, 0)), 0.25, atol=1e-15)
    assert np.allclose(
        bell_eigenvalues(REFERENCE), [0.025, 0.175, 0.375, 0.425], atol=1e-15
    )
    assert np.allclose(
        bell_eigenvalues(BellCoefficients(1, -1, 1)), [0.0, 0.0, 0.0, 1.0], atol=1e-15
    )


def test_physicality_and_hermiticity_tolerances_are_fixed():
    # no caller sets them, so they are constants rather than parameters
    for check in (is_physical, physical_mask, require_hermitian):
        assert "tol" not in inspect.signature(check).parameters, check.__name__


def test_is_physical_examples():
    assert is_physical(BellCoefficients(0, 0, 0))
    assert is_physical(REFERENCE)
    assert not is_physical(BellCoefficients(1, 1, 1))
    for vertex in VERTICES:
        assert is_physical(BellCoefficients(*vertex))


@settings(max_examples=200)
@given(physical_coefficients())
def test_convex_combinations_are_physical(c):
    assert is_physical(c)


def test_points_beyond_vertices_are_unphysical():
    for vertex in VERTICES:
        stretched = BellCoefficients(*(1.02 * v for v in vertex))
        assert not is_physical(stretched)


def test_to_density_matrix_entries():
    assert np.max(np.abs(to_density_matrix(BellCoefficients(0, 0, 0)) - np.eye(4) / 4)) == 0.0
    rho = to_density_matrix(REFERENCE)
    assert np.allclose(np.diag(rho).real, [0.3, 0.2, 0.2, 0.3], atol=1e-15)
    assert abs(rho[0, 3] - 0.125) <= 1e-15
    assert abs(rho[1, 2] - 0.175) <= 1e-15
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    assert np.max(np.abs(to_density_matrix(BellCoefficients(1, -1, 1)) - np.outer(bell, bell))) <= 1e-15


def test_to_density_matrix_rejects_unphysical():
    with pytest.raises(UnphysicalStateError):
        to_density_matrix(BellCoefficients(1, 1, 1))


def test_bell_eigenvalues_match_eigensolver():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        weights = rng.dirichlet(np.ones(4))
        c = BellCoefficients(*(weights @ np.array(VERTICES)))
        w, _ = hermitian_eigensystem(to_density_matrix(c))
        assert np.max(np.abs(w - bell_eigenvalues(c))) <= 1e-11


def test_from_density_matrix_identity_quarter():
    c, residual = from_density_matrix(np.eye(4, dtype=complex) / 4.0)
    assert c == BellCoefficients(0.0, 0.0, 0.0)
    assert residual == 0.0


@settings(max_examples=200)
@given(physical_coefficients())
def test_round_trip(c):
    back, residual = from_density_matrix(to_density_matrix(c))
    assert max(abs(a - b) for a, b in zip(back, c)) <= 1e-12
    assert residual <= 1e-12


def test_from_density_matrix_strict_residual():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00| is not Bell diagonal
    _, residual = from_density_matrix(rho)
    assert residual > 0.2


def test_validate_density_matrix_errors():
    good = to_density_matrix(REFERENCE)
    with pytest.raises(ValidationError):
        validate_density_matrix(np.eye(3, dtype=complex) / 3.0)
    skew = good.copy()
    skew[0, 1] = 1e-3
    with pytest.raises(ValidationError):
        validate_density_matrix(skew)
    with pytest.raises(TraceNotOneError):
        validate_density_matrix(good * 1.5)
    with pytest.raises(NotPSDError):
        validate_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


# a floor of 1 or more, or NaN, could never be met, so the rejection loop
# would never return: the check must fire before the first draw
@pytest.mark.parametrize("min_l1", ["x", None, True, float("nan"), float("inf"), -1e-3, 1.0, 1.5, 2])
def test_sampling_rejects_a_bad_l1_floor(min_l1):
    with pytest.raises(ParameterRangeError, match="min_l1"):
        sample_states(1, 1, min_l1=min_l1)
    rng = Lcg(1)
    with pytest.raises(ParameterRangeError, match="min_l1"):
        random_physical_state(rng, min_l1)
    assert rng.state == Lcg(1).state


def test_sampling_accepts_l1_floors_below_one():
    for min_l1 in (0, 0.0, np.float64(0.5), 0.9):
        states = sample_states(3, 4, min_l1=min_l1)
        assert all(is_physical(c) and max(abs(c.c1), abs(c.c2)) >= min_l1 for c in states)


EDGE = 4.0 * PHYSICAL_TOL


# c1 = +-1 makes 1 -+ c1 exactly 0 or 2, so each point's one small parity is
# -x with no rounding; at x = EDGE it sits exactly on -4 PHYSICAL_TOL
@pytest.mark.parametrize("parity, point", [
    (0, lambda x: (1.0, x, 0.0)),
    (1, lambda x: (-1.0, 0.0, x)),
    (2, lambda x: (-1.0, x, 0.0)),
    (3, lambda x: (1.0, -x, 0.0)),
])
def test_physical_mask_keeps_each_parity_at_exactly_its_limit(parity, point):
    q = parities(*point(EDGE))
    assert q[parity] == -4.0 * PHYSICAL_TOL
    assert all(value > 0.0 for index, value in enumerate(q) if index != parity)
    assert physical_mask(*point(EDGE))
    assert physical_mask(*point(float(np.nextafter(EDGE, 0.0))))
    assert not physical_mask(*point(float(np.nextafter(EDGE, 1.0))))
