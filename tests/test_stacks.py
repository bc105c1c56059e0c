"""The stack-native oracle: a stacked call equals per-matrix calls bit for bit.

Every matrix routine takes one (4, 4) matrix or an (N, 4, 4) stack and runs
the same code for both. These properties hold the stacked results to the
per-matrix ones with ``tobytes`` (signs of zeros included), on face, edge
and vertex states, where zero eigenvalues reach the ENTROPY_FLOOR and
PSD_TOL snaps, and on non-Bell-diagonal states from the two-parameter gad
channel. A bad matrix anywhere in a stack raises the error, and the
message, that it raises on its own. Stacks that mix channel kinds and
cross ``evolve_matrices``' block boundaries are held to the same bits.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_lab import (
    BellCoefficients,
    ChannelKind,
    DecayQuery,
    Engine,
    InternalNumericalError,
    Measure,
    NotHermitianError,
    NotPSDError,
    TraceNotOneError,
    ValidationError,
    apply_n,
    apply_product_channel,
    decay_rate,
    decay_rates,
    from_density_matrix,
    kraus_set,
    matrix_measure,
    per_iteration_factors,
    psd_sqrt,
    sample_states,
    single_parameter_kraus_set,
    to_density_matrix,
    von_neumann_entropy,
)
from coherence_lab import channels
from coherence_lab.channels import evolve_matrices, evolve_rows
from coherence_lab.states import validate_density_matrix
from conftest import REFERENCE, physical_coefficients

STATES = st.lists(
    physical_coefficients(on_boundary=True) | physical_coefficients(), min_size=1, max_size=10
)
# one step of two-parameter gad takes a Bell-diagonal state out of the family
LEAVE_FAMILY = kraus_set(ChannelKind.AMPLITUDE_DAMPING, 0.3, gamma=0.6)
P_VALUES = st.floats(1e-12, 1.0 - 1e-12)


def _stack(states, leave_family):
    rho = np.stack([to_density_matrix(c) for c in states])
    if leave_family:
        rho = np.concatenate([rho, apply_product_channel(rho, LEAVE_FAMILY)])
    return rho


def _same_bits(stacked, singles):
    assert np.asarray(stacked).tobytes() == np.stack([np.asarray(x) for x in singles]).tobytes()


@settings(max_examples=60, deadline=None)
@given(STATES, st.booleans())
def test_matrix_routines_stack_bitwise(states, leave_family):
    rho = _stack(states, leave_family)
    for routine in (validate_density_matrix, psd_sqrt, von_neumann_entropy):
        _same_bits(routine(rho), [routine(m) for m in rho])
    for measure in Measure:
        _same_bits(matrix_measure(measure, rho), [matrix_measure(measure, m) for m in rho])
    coefficients, residual = from_density_matrix(rho)
    singles = [from_density_matrix(m) for m in rho]
    _same_bits(np.column_stack([*coefficients, residual]), [(*c, r) for c, r in singles])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(list(ChannelKind)),
    st.sampled_from(list(Engine)),
    st.lists(st.tuples(physical_coefficients(), st.sampled_from(list(Measure)),
                       st.floats(0.01, 0.99), st.integers(1, 12)), min_size=1, max_size=10),
)
def test_decay_rates_stack_bitwise(kind, engine, rows):
    queries = [DecayQuery(c, m, kind, p, n, engine=engine) for c, m, p, n in rows
               if matrix_measure(m, to_density_matrix(c)) > 1e-6]
    # every row may be filtered out: an empty stack gives an empty float array
    rates = decay_rates(queries)
    assert rates.shape == (len(queries),) and rates.dtype == np.float64
    assert rates.tobytes() == np.array([decay_rate(q) for q in queries]).tobytes()


def _bell_stack(count=7):
    states = [BellCoefficients(0.6 - 0.1 * k, 0.1, 0.2) for k in range(count)]
    return np.stack([to_density_matrix(c) for c in states])


def _not_hermitian():
    m = to_density_matrix(REFERENCE)
    m[0, 1] += 1e-6
    return m


BAD_MATRICES = (
    (validate_density_matrix, _not_hermitian(), NotHermitianError),
    (validate_density_matrix, to_density_matrix(REFERENCE) * 1.5, TraceNotOneError),
    (validate_density_matrix, np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), NotPSDError),
    (psd_sqrt, np.diag([1.0, 1.0, 1.0, -1e-6]).astype(complex), NotPSDError),
    (von_neumann_entropy, np.eye(4, dtype=complex) / 2.0, TraceNotOneError),
    (lambda m: apply_n(m, LEAVE_FAMILY, 2), _not_hermitian(), NotHermitianError),
)


@pytest.mark.parametrize("row", [0, 3, 6])
@pytest.mark.parametrize("routine, bad, error", BAD_MATRICES)
def test_a_bad_row_raises_its_own_error(routine, bad, error, row):
    with pytest.raises(error) as alone:
        routine(bad)
    stack = _bell_stack()
    stack[row] = bad
    with pytest.raises(error) as stacked:
        routine(stack)
    assert str(stacked.value) == str(alone.value)


def test_the_first_bad_row_is_reported():
    stack = _bell_stack()
    stack[2] = stack[2] * 1.5
    stack[5] = stack[5] * 2.0
    with pytest.raises(TraceNotOneError) as first:
        validate_density_matrix(stack[2])
    with pytest.raises(TraceNotOneError) as stacked:
        validate_density_matrix(stack)
    assert str(stacked.value) == str(first.value)


@pytest.mark.parametrize("row", [0, 4, 6])
def test_a_leaky_row_fails_its_step(row):
    good = single_parameter_kraus_set(ChannelKind.BIT_FLIP, 0.3)
    leaky = dataclasses.replace(good, products=good.products * 1.01,
                                adjoints=good.adjoints * 1.01)
    stack = _bell_stack()
    ksets = [leaky if k == row else good for k in range(len(stack))]
    counts = np.arange(1, len(stack) + 1)
    with pytest.raises(InternalNumericalError) as alone:
        apply_n(stack[row], leaky, int(counts[row]))
    # the stepping loop as evolve_matrices drives it, with one leaky row
    products = np.stack([k.products for k in ksets])
    adjoints = np.stack([k.adjoints for k in ksets])
    with pytest.raises(InternalNumericalError) as stacked:
        channels._per_row_steps(stack, counts, channels._step, (products, adjoints))
    assert "trace" in str(stacked.value)
    assert str(stacked.value) == str(alone.value)


def test_an_empty_stack_steps_to_an_empty_stack():
    empty = np.empty((0, 4, 4), dtype=complex)
    kset = single_parameter_kraus_set(ChannelKind.BIT_FLIP, 0.3)
    assert apply_n(empty, kset, 3).shape == (0, 4, 4)
    assert evolve_matrices(empty, [], [], []).shape == (0, 4, 4)


@pytest.mark.parametrize("counts", [[3, 3, 3, 3], [2, 5, 1, 5, 2], [4]],
                         ids=["equal", "mixed", "one-row"])
def test_the_stepping_loop_never_writes_its_inputs(counts):
    ps = [0.1 + 0.15 * k for k in range(len(counts))]
    coefficients = np.array([BellCoefficients(0.6 - 0.1 * k, 0.1, 0.2) for k in range(len(counts))])
    factors = np.array([per_iteration_factors(ChannelKind.DEPOLARIZING, p) for p in ps])
    kinds = [ChannelKind.DEPOLARIZING] * len(ps)
    rho = np.stack([to_density_matrix(BellCoefficients(*c)) for c in coefficients])
    counts = np.array(counts)
    inputs = (rho, coefficients, factors, counts)
    saved = [x.copy() for x in inputs]
    for x in inputs:
        x.setflags(write=False)
    evolved = evolve_rows(coefficients, factors, counts)
    stepped = evolve_matrices(rho, kinds, ps, counts)
    for x, before in zip(inputs, saved):
        assert x.tobytes() == before.tobytes()
    rows = range(len(counts))
    _same_bits(evolved, [evolve_rows(coefficients[k:k + 1], factors[k:k + 1], counts[k:k + 1])[0]
                         for k in rows])
    _same_bits(stepped, [apply_n(rho[k], single_parameter_kraus_set(kinds[k], ps[k]),
                                 int(counts[k])) for k in rows])


def _mixed_queries(seed, crowded, engine):
    """Every kind and measure, then more than one block of ``crowded``, shuffled."""
    rng = np.random.default_rng(seed)
    count = 3 * len(ChannelKind) + channels._ROWS_PER_STACK + 1
    kinds = list(ChannelKind) * 3 + [crowded] * (count - 3 * len(ChannelKind))
    measures = list(Measure)
    queries = [
        DecayQuery(state, measures[row % 3], kinds[row], float(rng.uniform(0.01, 0.99)),
                   int(rng.integers(1, 13)), engine=engine)
        for row, state in enumerate(sample_states(seed, count, min_l1=1e-2))
    ]
    return [queries[row] for row in rng.permutation(count)]


@settings(max_examples=10, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(list(ChannelKind)),
    st.sampled_from(list(Engine)),
    st.lists(st.tuples(physical_coefficients(), st.sampled_from(list(Measure)),
                       st.sampled_from(list(ChannelKind)), st.floats(0.01, 0.99),
                       st.integers(1, 12)), max_size=10),
)
def test_mixed_kind_decay_rates_stack_bitwise(seed, crowded, engine, rows):
    drawn = [DecayQuery(c, m, kind, p, n, engine=engine) for c, m, kind, p, n in rows
             if matrix_measure(m, to_density_matrix(c)) > 1e-6]
    queries = drawn + _mixed_queries(seed, crowded, engine)
    _same_bits(decay_rates(queries), [decay_rate(q) for q in queries])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4) | st.just(channels._ROWS_PER_STACK),
    st.none() | st.sampled_from(list(ChannelKind)),
    st.lists(st.tuples(physical_coefficients(on_boundary=True) | physical_coefficients(),
                       st.sampled_from(list(ChannelKind)), st.sampled_from([0.2, 0.7]) | P_VALUES,
                       st.integers(1, 8)), min_size=1, max_size=12),
)
def test_evolve_matrices_equals_apply_n_per_row(rows_per_stack, one_kind, rows):
    # small blocks, so a short stack crosses block boundaries in every kind;
    # with one kind, rows of their own p and n share every block
    if one_kind is not None:
        rows = [(c, one_kind, p, n) for c, _, p, n in rows]
    rho = np.stack([to_density_matrix(c) for c, _, _, _ in rows])
    _, kinds, ps, counts = zip(*rows)
    with mock.patch.object(channels, "_ROWS_PER_STACK", rows_per_stack):
        evolved = evolve_matrices(rho, kinds, ps, counts)
    _same_bits(evolved, [apply_n(m, single_parameter_kraus_set(kind, p), n)
                         for m, (_, kind, p, n) in zip(rho, rows)])


def test_evolve_matrices_builds_one_kraus_set_per_p_and_block(monkeypatch):
    built = []
    builder = channels._kraus_sets

    def recording(kind, p, gamma):
        built.append(list(p))
        return builder(kind, p, gamma)

    monkeypatch.setattr(channels, "_kraus_sets", recording)
    count = 2 * channels._ROWS_PER_STACK + 1
    rho = to_density_matrix(BellCoefficients(*np.array(sample_states(1, count)).T))
    ps = [(0.1, 0.3, 0.5)[row % 3] for row in range(count)]
    evolve_matrices(rho, [ChannelKind.DEPOLARIZING] * count, ps, [2] * count)
    # one builder call per block: two full blocks of three p values, then one row
    assert [len(block) for block in built] == [3, 3, 1]


_PAIR_PARTS = (_bell_stack(2), [ChannelKind.BIT_FLIP] * 2, [0.3, 0.4], [1, 2])


@pytest.mark.parametrize("short", range(4), ids=["stack", "kinds", "ps", "counts"])
def test_evolve_matrices_rejects_a_length_mismatch(short):
    parts = list(_PAIR_PARTS)
    parts[short] = parts[short][:1]
    with pytest.raises(ValidationError):
        evolve_matrices(*parts)


def test_evolve_matrices_rejects_a_single_matrix():
    with pytest.raises(ValidationError):
        evolve_matrices(_bell_stack(1)[0], [ChannelKind.BIT_FLIP] * 4, [0.3] * 4, [1] * 4)


def _oracle_peak_bytes(count):
    measures = list(Measure)
    queries = [
        DecayQuery(state, measures[row % 3], ChannelKind.DEPOLARIZING, 0.05 + 0.9 * row / count,
                   1 + row % 12, engine=Engine.MATRIX_ORACLE)
        for row, state in enumerate(sample_states(5, count, min_l1=1e-2))
    ]
    tracemalloc.start()
    try:
        decay_rates(queries)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_decay_rates_memory_is_bounded_by_a_block():
    # the per-row Kraus products of one block, not of the whole stack
    assert _oracle_peak_bytes(1000) < 2 * _oracle_peak_bytes(100)
