import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_lab import (
    BellCoefficients,
    ChannelKind,
    CoefficientMapMode,
    InternalNumericalError,
    MissingGammaError,
    NotHermitianError,
    NotPSDError,
    ParameterRangeError,
    TraceNotOneError,
    UnphysicalStateError,
    ValidationError,
    apply_n,
    apply_product_channel,
    coefficient_map,
    from_density_matrix,
    kraus_set,
    per_iteration_factors,
    single_parameter_kraus_set,
    to_density_matrix,
)
from coherence_lab import channels
from coherence_lab.states import IDENTITY_2, SIGMA_X
from conftest import REFERENCE, physical_coefficients

ALL_KINDS = list(ChannelKind)
UNITAL_KINDS = [
    ChannelKind.BIT_FLIP,
    ChannelKind.PHASE_FLIP,
    ChannelKind.BIT_PHASE_FLIP,
    ChannelKind.DEPOLARIZING,
]


def test_bit_flip_kraus_structure():
    kset = kraus_set(ChannelKind.BIT_FLIP, 0.5)
    assert len(kset.operators) == 2
    assert np.max(np.abs(kset.operators[0] - np.sqrt(0.75) * IDENTITY_2)) <= 1e-15
    assert np.max(np.abs(kset.operators[1] - np.sqrt(0.25) * SIGMA_X)) <= 1e-15


def test_depolarizing_kraus_at_three_quarters():
    kset = kraus_set(ChannelKind.DEPOLARIZING, 0.75)
    assert len(kset.operators) == 4
    for op in kset.operators:
        assert np.max(np.abs(np.abs(op[np.abs(op) > 0]) - 0.5)) <= 1e-15


def test_operator_counts():
    counts = {
        ChannelKind.BIT_FLIP: 2,
        ChannelKind.PHASE_FLIP: 2,
        ChannelKind.BIT_PHASE_FLIP: 2,
        ChannelKind.DEPOLARIZING: 4,
        ChannelKind.AMPLITUDE_DAMPING: 4,
    }
    for kind, count in counts.items():
        assert len(single_parameter_kraus_set(kind, 0.3).operators) == count


def test_parameter_validation():
    for bad_p in (0.0, 1.0, -0.1, 1.1, float("nan")):
        with pytest.raises(ParameterRangeError):
            kraus_set(ChannelKind.BIT_FLIP, bad_p)
    with pytest.raises(MissingGammaError):
        kraus_set(ChannelKind.AMPLITUDE_DAMPING, 0.5)
    with pytest.raises(ParameterRangeError):
        kraus_set(ChannelKind.AMPLITUDE_DAMPING, 0.5, gamma=1.0)
    with pytest.raises(ParameterRangeError):
        kraus_set(ChannelKind.BIT_FLIP, 0.5, gamma=0.3)


def test_completeness_over_parameter_grid():
    # construction re-checks sum E^dag E = I within 1e-12 and raises on failure
    grid = [k / 100 for k in range(1, 100)]
    for p in grid:
        for kind in UNITAL_KINDS:
            kraus_set(kind, p)
        for gamma in (0.1, 0.5, 0.9):
            kraus_set(ChannelKind.AMPLITUDE_DAMPING, p, gamma=gamma)


def test_unital_channels_fix_maximally_mixed():
    mixed = np.eye(4, dtype=complex) / 4.0
    for kind in UNITAL_KINDS:
        out = apply_product_channel(mixed, kraus_set(kind, 0.37))
        assert np.max(np.abs(out - mixed)) <= 1e-15


def test_bit_flip_single_application():
    out = apply_product_channel(to_density_matrix(REFERENCE), kraus_set(ChannelKind.BIT_FLIP, 0.5))
    c, residual = from_density_matrix(out)
    assert np.allclose(c, (0.6, 0.025, 0.05), atol=1e-14)
    assert residual <= 1e-12


def test_general_damping_leaves_family():
    # local Bloch z-shift gamma(2p-1) = 0.12 shows up as residual 0.06
    mixed = np.eye(4, dtype=complex) / 4.0
    out = apply_product_channel(mixed, kraus_set(ChannelKind.AMPLITUDE_DAMPING, 0.7, gamma=0.3))
    _, residual = from_density_matrix(out)
    assert residual > 1e-6
    assert abs(residual - 0.06) <= 1e-12


def test_apply_n_examples():
    rho = to_density_matrix(REFERENCE)
    kset = kraus_set(ChannelKind.PHASE_FLIP, 0.5)
    c, residual = from_density_matrix(apply_n(rho, kset, 3))
    assert np.allclose(c, (0.6 * 0.25**3, 0.1 * 0.25**3, 0.2), atol=1e-14)
    assert residual <= 1e-12
    out = apply_n(rho, kraus_set(ChannelKind.DEPOLARIZING, 0.75), 1)
    assert np.max(np.abs(out - np.eye(4) / 4.0)) <= 1e-12
    with pytest.raises(ParameterRangeError):
        apply_n(rho, kset, 0)


def test_per_iteration_factor_table():
    assert per_iteration_factors(ChannelKind.BIT_FLIP, 0.5) == (1.0, 0.25, 0.25)
    assert per_iteration_factors(ChannelKind.PHASE_FLIP, 0.5) == (0.25, 0.25, 1.0)
    assert per_iteration_factors(ChannelKind.BIT_PHASE_FLIP, 0.5) == (0.25, 1.0, 0.25)
    paper = per_iteration_factors(ChannelKind.DEPOLARIZING, 0.3, CoefficientMapMode.PAPER)
    derived = per_iteration_factors(ChannelKind.DEPOLARIZING, 0.3)
    assert paper == pytest.approx((0.6, 0.6, 0.6), abs=1e-15)
    assert derived == pytest.approx((0.36, 0.36, 0.36), abs=1e-15)
    keep = 1.0 - 0.3
    assert per_iteration_factors(ChannelKind.AMPLITUDE_DAMPING, 0.3) == (keep, keep, keep * keep)


def test_coefficient_map_examples():
    out = coefficient_map(ChannelKind.BIT_FLIP, 0.5, 2, REFERENCE)
    assert out == pytest.approx((0.6, 0.00625, 0.0125), abs=1e-15)
    near_identity = coefficient_map(ChannelKind.DEPOLARIZING, 1e-12, 5, REFERENCE)
    assert max(abs(a - b) for a, b in zip(near_identity, REFERENCE)) <= 1e-10
    paper = coefficient_map(ChannelKind.DEPOLARIZING, 0.3, 2, REFERENCE, CoefficientMapMode.PAPER)
    derived = coefficient_map(ChannelKind.DEPOLARIZING, 0.3, 2, REFERENCE)
    assert paper == pytest.approx(tuple(0.36 * c for c in REFERENCE), rel=1e-13)
    assert derived == pytest.approx(tuple(0.36**2 * c for c in REFERENCE), rel=1e-13)


def test_coefficient_map_validation():
    with pytest.raises(UnphysicalStateError):
        coefficient_map(ChannelKind.BIT_FLIP, 0.5, 1, BellCoefficients(1, 1, 1))
    with pytest.raises(ParameterRangeError):
        coefficient_map(ChannelKind.BIT_FLIP, 0.5, 0, REFERENCE)
    with pytest.raises(ParameterRangeError):
        coefficient_map(ChannelKind.BIT_FLIP, 1.0, 1, REFERENCE)


@settings(max_examples=150, deadline=None)
@given(
    physical_coefficients(),
    st.sampled_from(ALL_KINDS),
    st.sampled_from([m for m in CoefficientMapMode]),
    st.floats(0.01, 0.99),
    st.integers(1, 12),
    st.integers(1, 12),
)
def test_semigroup_is_exact(c, kind, mode, p, a, b):
    two_step = coefficient_map(kind, p, b, coefficient_map(kind, p, a, c, mode), mode)
    one_step = coefficient_map(kind, p, a + b, c, mode)
    assert two_step == one_step  # bitwise, by per-iteration construction


def test_family_preservation_to_n_50():
    rho0 = to_density_matrix(REFERENCE)
    for kind in ALL_KINDS:
        kset = single_parameter_kraus_set(kind, 0.5)
        rho = rho0
        for _ in range(50):
            rho = apply_product_channel(rho, kset)
            _, residual = from_density_matrix(rho)
            assert residual <= 1e-10


def _kron_loop_apply_n(rho, kset, n):
    """The oracle's own oracle: every E_i (x) E_j rebuilt with np.kron on every iteration."""
    out = np.asarray(rho, dtype=np.complex128)
    for _ in range(n):
        step = np.zeros_like(out)
        for left in kset.operators:
            for right in kset.operators:
                op = np.kron(left, right)
                step += op @ out @ op.conj().T
        out = step
    return out


EDGE_P = (1e-12, 1.0 - 1e-12)
ORACLE_CASES = (
    [(kind, p, None) for kind in ALL_KINDS for p in EDGE_P + (0.37,)]
    + [(ChannelKind.DEPOLARIZING, 0.75, None)]
    + [(ChannelKind.AMPLITUDE_DAMPING, w, g) for w, g in ((0.3, 0.6), (0.8, 0.05))]
    + [(ChannelKind.AMPLITUDE_DAMPING, w, g) for w in EDGE_P for g in EDGE_P]
)


def _case_kraus_set(kind, p, gamma):
    if gamma is None:
        return single_parameter_kraus_set(kind, p)
    return kraus_set(kind, p, gamma=gamma)


@pytest.mark.parametrize("kind, p, gamma", ORACLE_CASES)
def test_apply_n_matches_kron_loop_bitwise(kind, p, gamma):
    kset = _case_kraus_set(kind, p, gamma)
    for state in (REFERENCE, BellCoefficients(-0.5, 0.25, 0.25), BellCoefficients(1.0, -1.0, 1.0)):
        rho = to_density_matrix(state)
        for n in (1, 2, 7, 20):
            # tobytes: equal bits, the signs of zeros included
            assert apply_n(rho, kset, n).tobytes() == _kron_loop_apply_n(rho, kset, n).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    physical_coefficients(on_boundary=True) | physical_coefficients(),
    st.sampled_from(ORACLE_CASES),
    st.integers(1, 20),
)
def test_apply_n_matches_kron_loop_bitwise_property(c, case, n):
    kset = _case_kraus_set(*case)
    rho = to_density_matrix(c)
    assert apply_n(rho, kset, n).tobytes() == _kron_loop_apply_n(rho, kset, n).tobytes()


STACK_STATES = (
    REFERENCE,
    BellCoefficients(-0.5, 0.25, 0.25),
    BellCoefficients(1.0, -1.0, 1.0),
    BellCoefficients(0.1, -0.3, 0.2),
)
STACK_CASES = [(kind, None) for kind in ALL_KINDS] + [(ChannelKind.AMPLITUDE_DAMPING, 0.6)]


@pytest.mark.parametrize("kind, gamma", STACK_CASES)
def test_stacked_apply_n_matches_kron_loop_bitwise(kind, gamma):
    # the single-parameter kinds go through evolve_matrices with one p per
    # row, so every row of the merged P_k rho product has its own operators;
    # the two-parameter gad set steps the whole stack through apply_n. Each
    # row is judged by independent 2-D matmuls
    ps = (1e-12, 0.37, 0.75, 1.0 - 1e-12)
    rho = np.stack([to_density_matrix(c) for c in STACK_STATES])
    for n in (1, 2, 7, [1, 2, 7, 20]):
        counts = np.broadcast_to(n, len(ps)).tolist()
        if gamma is None:
            ksets = [single_parameter_kraus_set(kind, p) for p in ps]
            out = channels.evolve_matrices(rho, [kind] * len(ps), ps, counts)
        else:
            ksets = [kraus_set(kind, 0.37, gamma=gamma)] * len(ps)
            out = apply_n(rho, ksets[0], n)
        for row, kset, count, got in zip(rho, ksets, counts, out):
            assert got.tobytes() == _kron_loop_apply_n(row, kset, count).tobytes()


BUILDER_P = (1e-12, 0.37, 1.0 - 1e-12, 5e-324)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_kraus_set_builder_equals_the_per_p_sets(kind):
    ps = BUILDER_P + ((0.75,) if kind is ChannelKind.DEPOLARIZING else ())
    built = channels._kraus_sets(kind, *channels._single_parameter_args(kind, list(ps)))
    _assert_same_sets(built, [single_parameter_kraus_set(kind, p) for p in ps])


def test_kraus_set_builder_equals_the_per_p_sets_with_a_general_gamma():
    weights, gammas = zip(*[(w, g) for w in BUILDER_P + (0.3,) for g in BUILDER_P + (0.6,)])
    built = channels._kraus_sets(ChannelKind.AMPLITUDE_DAMPING, list(weights), list(gammas))
    _assert_same_sets(built, [
        kraus_set(ChannelKind.AMPLITUDE_DAMPING, w, gamma=g) for w, g in zip(weights, gammas)
    ])


def _assert_same_sets(built, singles):
    ops, products, adjoints = built
    assert len(ops) == len(products) == len(adjoints) == len(singles)
    assert not any(array.flags.writeable for array in built)
    for row, want in enumerate(singles):
        assert ops[row].tobytes() == np.stack(want.operators).tobytes()
        assert products[row].tobytes() == want.products.tobytes()
        assert adjoints[row].tobytes() == want.adjoints.tobytes()


def test_products_are_the_kron_products():
    for kind, p, gamma in ORACLE_CASES:
        kset = _case_kraus_set(kind, p, gamma)
        krons = [np.kron(left, right) for left in kset.operators for right in kset.operators]
        assert kset.products.tobytes() == np.stack(krons).tobytes()
        assert kset.adjoints.tobytes() == np.stack([op.conj().T for op in krons]).tobytes()


def test_non_trace_preserving_products_fail_on_first_step():
    good = kraus_set(ChannelKind.BIT_FLIP, 0.3)
    leaky = dataclasses.replace(good, products=good.products * 1.01, adjoints=good.adjoints * 1.01)
    rho = to_density_matrix(REFERENCE)
    with pytest.raises(InternalNumericalError, match="trace"):
        apply_n(rho, leaky, 1)
    with pytest.raises(InternalNumericalError, match="trace"):
        apply_product_channel(rho, leaky)


def test_bad_inputs_are_rejected_by_both_entry_points():
    kset = kraus_set(ChannelKind.DEPOLARIZING, 0.2)
    good = to_density_matrix(REFERENCE)
    not_hermitian = good.copy()
    not_hermitian[0, 1] += 1e-6
    bad_inputs = (
        (not_hermitian, NotHermitianError),
        (good * 1.5, TraceNotOneError),
        (np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), NotPSDError),
    )
    for rho, error in bad_inputs:
        with pytest.raises(error):
            apply_product_channel(rho, kset)
        with pytest.raises(error):
            apply_n(rho, kset, 3)


def test_apply_n_rejects_what_is_not_a_kraus_set():
    # apply_n steps one Kraus set; rows with sets of their own go through
    # evolve_matrices, so a list or tuple of sets is rejected like a string
    rho = to_density_matrix(REFERENCE)
    kset = kraus_set(ChannelKind.DEPOLARIZING, 0.2)
    for bad, shown in (("dep", "str"), ((k for k in [kset]), "generator"), ([kset, "dep"], "list"),
                       ([kset], "list"), ((kset, kset), "tuple")):
        with pytest.raises(ValidationError, match=f"KrausSet.*got {shown}"):
            apply_n(rho, bad, 2)
        with pytest.raises(ValidationError, match=f"KrausSet.*got {shown}"):
            apply_product_channel(rho, bad)


class _Untouchable:
    def __array__(self, *args, **kwargs):
        raise AssertionError("rho was read before n was checked")


def test_apply_n_rejects_bad_counts_before_reading_rho():
    kset = kraus_set(ChannelKind.PHASE_FLIP, 0.4)
    for bad_n in (True, 2.7, 0):
        with pytest.raises(ParameterRangeError):
            apply_n(_Untouchable(), kset, bad_n)
