"""The stack-native oracle: a stacked call equals per-matrix calls bit for bit.

Every matrix routine takes one (4, 4) matrix or an (N, 4, 4) stack and runs
the same code for both. These properties hold the stacked results to the
per-matrix ones with ``tobytes`` (signs of zeros included), on face, edge
and vertex states, where zero eigenvalues reach the XLNX_FLOOR and
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
    CoefficientMapMode,
    DecayQuery,
    Engine,
    InternalNumericalError,
    Measure,
    NotHermitianError,
    NotPSDError,
    TraceNotOneError,
    UnphysicalStateError,
    ValidationError,
    apply_n,
    apply_product_channel,
    coefficient_map,
    decay_curve,
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
from coherence_lab import channels, cli, coherence, decay
from coherence_lab import states as states_module
from coherence_lab.channels import _evolve_rows, evolve_matrices
from coherence_lab.states import require_physical, validate_density_matrix
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
    leaky = dataclasses.replace(good, products=good.products * 1.01)
    stack = _bell_stack()
    ksets = [leaky if k == row else good for k in range(len(stack))]
    counts = np.arange(1, len(stack) + 1)
    with pytest.raises(InternalNumericalError) as alone:
        apply_n(stack[row], leaky, int(counts[row]))
    # the stepping loop as evolve_matrices drives it, with one leaky row
    products = np.stack([k.products for k in ksets])
    with pytest.raises(InternalNumericalError) as stacked:
        channels._per_row_steps(stack, counts, channels._step, channels._supports(products))
    assert "trace" in str(stacked.value)
    assert str(stacked.value) == str(alone.value)


def _not_psd(out):
    # the smallest eigenvalue is at most the smallest diagonal entry, which
    # step 3 of each channel at p = 0.3 leaves below zero
    out[:, 0, 0] -= 2.0
    out[:, 3, 3] += 2.0


def _not_hermitian_entry(out):
    out[:, 0, 1] += 1e-3


def _fault_second_step(monkeypatch, fault):
    """Make ``channels._step``'s second call return a same-trace non-density matrix."""
    step, calls = channels._step, []

    def faulty(a, *supports):
        out = step(a, *supports)
        calls.append(len(a))
        if len(calls) == 2:
            fault(out)
        return out

    monkeypatch.setattr(channels, "_step", faulty)
    return calls


def _raises_at_the_exit(calls, run):
    calls.clear()
    with pytest.raises(InternalNumericalError) as raised:
        run()
    assert str(raised.value).startswith("channel output:")
    assert len(calls) == 3


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("fault", [_not_psd, _not_hermitian_entry])
def test_a_bad_step_output_is_caught_where_the_stack_leaves_the_oracle(monkeypatch, capsys,
                                                                       fault, kind):
    # a fault at step 2 of 3 that keeps the trace passes ``_step``'s drift
    # test and step 3, and is caught once the stepped stack is validated
    stack = _bell_stack(4)
    calls = _fault_second_step(monkeypatch, fault)
    _raises_at_the_exit(calls, lambda: apply_n(stack, single_parameter_kraus_set(kind, 0.3), 3))
    # mixed counts, so the sorted phases run: one step each for counts 1, 2, 3
    _raises_at_the_exit(calls, lambda: evolve_matrices(stack, [kind] * 4, [0.3] * 4, [3, 1, 3, 2]))
    queries = [DecayQuery(c, Measure.L1, kind, 0.3, 3, engine=Engine.MATRIX_ORACLE)
               for c in sample_states(5, 4, min_l1=1e-2)]
    _raises_at_the_exit(calls, lambda: decay_rates(queries))
    argv = ["evolve", "--method", "kraus", "--channel", kind.value, "--p", "0.3", "--n", "3",
            "--state=0.3,-0.2,0.1"]
    calls.clear()
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: channel output:") and err.count("\n") == 1
    assert len(calls) == 3


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
    evolved = _evolve_rows(coefficients, factors, counts)
    stepped = evolve_matrices(rho, kinds, ps, counts)
    for x, before in zip(inputs, saved):
        assert x.tobytes() == before.tobytes()
    rows = range(len(counts))
    _same_bits(evolved, [_evolve_rows(coefficients[k:k + 1], factors[k:k + 1], counts[k:k + 1])[0]
                         for k in rows])
    _same_bits(stepped, [apply_n(rho[k], single_parameter_kraus_set(kinds[k], ps[k]),
                                 int(counts[k])) for k in rows])


def test_equal_counts_step_as_the_general_path_does():
    # equal counts step the rows as given, with no gathered copy; one more row
    # of another count sends the same rows through the sort, and they come
    # out with the same bits
    rho = _bell_stack(5)
    coefficients = np.array([BellCoefficients(0.6 - 0.1 * k, 0.1, 0.2) for k in range(5)])
    ps = [0.1 + 0.15 * k for k in range(5)]
    _, products = channels._kraus_sets(ChannelKind.DEPOLARIZING, ps, None)
    factors = np.array([per_iteration_factors(ChannelKind.DEPOLARIZING, p) for p in ps])
    for rows, step, args in ((rho, channels._step, channels._supports(products)),
                             (coefficients, np.multiply, (factors,))):
        inputs = (rows, *args)
        saved = [x.tobytes() for x in inputs]
        for x in inputs:
            x.setflags(write=False)
        stepped = []

        def recording(head, *cut):
            stepped.append(head)
            return step(head, *cut)

        equal = channels._per_row_steps(rows, np.full(5, 3), recording, args)
        assert stepped[0] is rows and len(stepped) == 3
        general = channels._per_row_steps(np.concatenate([rows, rows[:1]]),
                                          np.array([3, 3, 3, 3, 3, 1]), step,
                                          [np.concatenate([x, x[:1]]) for x in args])
        assert equal.tobytes() == general[:5].tobytes()
        assert [x.tobytes() for x in inputs] == saved


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


def test_evolve_matrices_builds_one_kraus_set_per_block_on_its_rows(monkeypatch):
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
    # one builder call per block on that block's p values, in row order
    assert built == [ps[:100], ps[100:200], ps[200:]]


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


def _evolve_twin(twin, states, kinds, ps, counts):
    """Row k of ``states`` after ``counts[k]`` steps of ``kinds[k]`` at ``ps[k]``, on one twin."""
    if twin == "coefficients":
        modes = [CoefficientMapMode.DERIVED] * len(kinds)
        return channels.evolve_coefficients(states, kinds, ps, counts, modes)
    rho = to_density_matrix(BellCoefficients(*states.T))
    return channels.evolve_matrices(rho, kinds, ps, counts)


_TRIPLE = (np.array(sample_states(3, 3)), [ChannelKind.BIT_FLIP] * 3, [0.3, 0.4, 0.5], [1, 2, 3])


def _bad_rows(case):
    states, kinds, ps, counts = (list(x) for x in _TRIPLE)
    if case == "bad p then bad kind":
        ps[1], kinds[2] = 1.5, "xx"
    elif case == "bad count after bad p":
        ps[0], counts[2] = 1.5, 0
    else:  # a length mismatch: the named part loses its last row
        part = ("states", "kinds", "ps", "counts").index(case.split()[0])
        parts = [states, kinds, ps, counts]
        parts[part] = parts[part][:-1]
        states, kinds, ps, counts = parts
    return np.array(states), kinds, ps, counts


def _no_steps(*args):
    raise AssertionError("a row was stepped before its rows were checked")


@pytest.mark.parametrize("case", [
    "bad p then bad kind", "bad count after bad p",
    "states short", "kinds short", "ps short", "counts short",
])
def test_both_twins_reject_the_same_bad_rows_before_any_step(monkeypatch, case):
    monkeypatch.setattr(channels, "_per_row_steps", _no_steps)
    messages = []
    for twin in ("coefficients", "matrices"):
        with pytest.raises(ValidationError) as raised:
            _evolve_twin(twin, *_bad_rows(case))
        messages.append(str(raised.value))
    expected = {
        "bad p then bad kind": "p must lie strictly between 0 and 1, got 1.5",
        "bad count after bad p": "iteration count must be an integer >= 1, got 0",
    }
    if case in expected:
        assert messages == [expected[case]] * 2
    else:  # the reader names the first sequence whose length differs from the stack's
        rows, got = (2, 3) if case == "states short" else (3, 2)
        name = {"ps short": "p values", "counts short": "iteration counts"}.get(case, "kinds")
        message = f"{name} must be a non-text iterable of {rows} entries, got {got} entries"
        assert messages == [message] * 2


def test_evolve_coefficients_checks_modes_and_physicality_before_any_step(monkeypatch):
    monkeypatch.setattr(channels, "_per_row_steps", _no_steps)
    states, kinds, ps, counts = _TRIPLE
    derived = CoefficientMapMode.DERIVED
    with pytest.raises(ValidationError, match="'xx' is not a valid CoefficientMapMode"):
        channels.evolve_coefficients(states, kinds, ps, counts, [derived, "xx", derived])
    short = "modes must be a non-text iterable of 3 entries, got 2 entries"
    with pytest.raises(ValidationError, match=short):
        channels.evolve_coefficients(states, kinds, ps, counts, [derived] * 2)
    with pytest.raises(UnphysicalStateError):
        channels.evolve_coefficients(states + [0.0, 0.0, 2.0], kinds, ps, counts, [derived] * 3)


def test_evolve_coefficients_equals_coefficient_map_per_row():
    # every kind in both modes, with counts whose step order is neither the
    # row order nor its reverse
    kinds = list(ChannelKind) * 2
    modes = [CoefficientMapMode.DERIVED] * 5 + [CoefficientMapMode.PAPER] * 5
    ps = [0.05 + 0.09 * row for row in range(10)]
    counts = [7, 1, 20, 2, 5, 3, 11, 1, 8, 4]
    states = np.array(sample_states(8, 10))
    evolved = channels.evolve_coefficients(states, kinds, ps, counts, modes)
    _same_bits(evolved, [coefficient_map(*row) for row in zip(kinds, ps, counts, states, modes)])


def test_both_twins_read_per_row_generators_as_lists():
    states, kinds, ps, counts = _TRIPLE
    modes = [CoefficientMapMode.DERIVED] * 3
    rho = to_density_matrix(BellCoefficients(*states.T))
    for twin, stack, extra in ((channels.evolve_coefficients, states, [modes]),
                               (channels.evolve_matrices, rho, [])):
        listed = twin(stack, kinds, ps, counts, *extra)
        read = twin(stack, iter(kinds), (p for p in ps), tuple(counts), *map(iter, extra))
        assert read.tobytes() == listed.tobytes()


# every per-row argument of each stack door, valid: three rows of _TRIPLE's states
_VALID_ROWS = {
    "kinds": [ChannelKind.BIT_FLIP, ChannelKind.DEPOLARIZING, ChannelKind.AMPLITUDE_DAMPING],
    "ps": [0.3, 0.4, 0.5],
    "counts": [1, 2, 3],
    "modes": [CoefficientMapMode.DERIVED, CoefficientMapMode.PAPER, CoefficientMapMode.DERIVED],
    "queries": [DecayQuery(REFERENCE, m, ChannelKind.PHASE_FLIP, 0.3, 2) for m in Measure],
    "n_list": [1, 2, 5],
}
_RHO = to_density_matrix(BellCoefficients(*_TRIPLE[0].T))
# door -> (its per-row arguments, a call on them by name)
_STACK_DOORS = {
    "evolve_coefficients": (("kinds", "ps", "counts", "modes"),
                            lambda a: channels.evolve_coefficients(
                                _TRIPLE[0], a["kinds"], a["ps"], a["counts"], a["modes"])),
    "evolve_matrices": (("kinds", "ps", "counts"), lambda a: channels.evolve_matrices(
        _RHO, a["kinds"], a["ps"], a["counts"])),
    "decay_rates": (("queries",), lambda a: decay_rates(a["queries"])),
    "decay_curve": (("n_list",), lambda a: decay_curve(
        ChannelKind.DEPOLARIZING, Measure.SKEW, REFERENCE, a["n_list"], p_count=3)),
}
# junk in place of a per-row argument, from its valid rows and a small int
_JUNK = {
    "None": lambda rows, number: None,
    "int": lambda rows, number: number,
    "str": lambda rows, number: "123",
    "bytes": lambda rows, number: b"\x01\x02\x03",
    "generator": lambda rows, number: (row for row in rows),
    "nested list": lambda rows, number: [rows],
    "0-d array": lambda rows, number: np.array(rows[0], dtype=object),
    "one row short": lambda rows, number: rows[:-1],
    "one row long": lambda rows, number: rows + rows[-1:],
}


@pytest.mark.parametrize("door, part", [
    (door, part) for door, (parts, _) in _STACK_DOORS.items() for part in parts
])
@settings(max_examples=50, deadline=None)
@given(st.sampled_from(list(_JUNK)), st.integers(-2, 4))
def test_stack_doors_return_or_raise_a_validation_error_on_junk_rows(door, part, junk, number):
    parts, call = _STACK_DOORS[door]
    args = {name: list(_VALID_ROWS[name]) for name in parts}
    args[part] = _JUNK[junk](args[part], number)
    try:
        call(args)
    except ValidationError:
        pass


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


# ten queries of every kind and measure, with counts whose step order is
# neither the row order nor its reverse
_MIXED_COUNTS = [7, 1, 20, 2, 5, 3, 11, 1, 8, 4]


def _counted_queries(engine):
    kinds = list(ChannelKind) * 2
    measures = list(Measure) * 4
    modes = [CoefficientMapMode.DERIVED] * 5 + [CoefficientMapMode.PAPER] * 5
    if engine is Engine.MATRIX_ORACLE:
        modes = [CoefficientMapMode.DERIVED] * 10
    drawn = sample_states(12, 10, min_l1=1e-2)
    return [DecayQuery(state, measure, kind, 0.05 + 0.09 * row, count, mode, engine)
            for row, (state, measure, kind, count, mode)
            in enumerate(zip(drawn, measures, kinds, _MIXED_COUNTS, modes))]


def _record_calls(monkeypatch, original, record):
    """Wrap every package module's binding of ``original`` to call ``record(*args)`` first."""
    def wrapper(*args):
        record(*args)
        return original(*args)

    for module in (states_module, channels, coherence, decay, cli):
        if getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, wrapper)


def test_an_oracle_decay_rates_call_validates_each_matrix_once(monkeypatch):
    # the N initial matrices once, then the N evolved ones once, where the
    # stepped stack leaves the oracle in ``channels._kraus_steps``
    queries = _counted_queries(Engine.MATRIX_ORACLE)
    validated, checked = [], []
    _record_calls(monkeypatch, validate_density_matrix,
                  lambda rho: validated.append(np.size(rho) // 16))
    _record_calls(monkeypatch, channels._checked_rows, lambda *args: checked.append(len(args[0])))
    decay_rates(queries)
    assert sum(validated) == 2 * len(queries)
    assert checked == [len(queries)]


def test_a_closed_decay_rates_call_checks_each_row_physical_once(monkeypatch):
    # the initial rows in the first ``closed_measures`` and the evolved rows in
    # the second, each once
    queries = _counted_queries(Engine.CLOSED_FORM)
    initial = np.array([q.state for q in queries])
    evolved = np.array([coefficient_map(q.kind, q.p, q.n, q.state, q.mode) for q in queries])
    handed, checked = [], []
    _record_calls(monkeypatch, require_physical, lambda *c: handed.append(
        np.column_stack([np.ravel(x) for x in np.broadcast_arrays(*c)])))
    _record_calls(monkeypatch, channels._checked_rows, lambda *args: checked.append(len(args[0])))
    decay_rates(queries)

    def rows(stack):
        return sorted(map(tuple, np.concatenate(stack).tolist()))

    assert rows(handed) == rows([initial, evolved])
    assert checked == [len(queries)]


def test_a_verify_run_validates_each_stack_once(monkeypatch, capsys):
    # the measures stack once; the coefficient maps' initial matrices once and
    # their evolved matrices once, as each block leaves the oracle; the oracle
    # engine's initial matrices once and its evolved ones once
    trials = 7
    validated = []
    _record_calls(monkeypatch, validate_density_matrix,
                  lambda rho: validated.append(np.size(rho) // 16))
    assert cli.main(["verify", "--seed", "42", "--trials", str(trials)]) == 0
    capsys.readouterr()
    map_rows = 5 * len(ChannelKind) * 4 * 3
    assert validated[:2] == [trials, map_rows]
    assert sum(validated) == trials + 2 * map_rows + 2 * trials


def test_the_coefficient_maps_suite_checks_its_rows_once(monkeypatch):
    checked = []
    _record_calls(monkeypatch, channels._checked_rows, lambda *args: checked.append(len(args[0])))
    cli._verify_coefficient_maps(42, 1)
    assert checked == [5 * len(ChannelKind) * 4 * 3]


def test_the_coefficient_maps_suite_checks_its_rows_physical_once(monkeypatch):
    # in ``to_density_matrix``, on all of the suite's rows at once
    handed = []
    _record_calls(monkeypatch, require_physical, lambda *c: handed.append(np.size(c[0])))
    cli._verify_coefficient_maps(42, 1)
    assert handed == [5 * len(ChannelKind) * 4 * 3]


@pytest.mark.parametrize("n", [1, 7])
def test_a_kraus_evolve_validates_its_initial_and_final_matrices(monkeypatch, capsys, n):
    # the initial matrix in ``apply_n`` and the last step's output as it
    # leaves the oracle, whatever n; it is extracted and measured with no
    # second look
    validated = []
    _record_calls(monkeypatch, validate_density_matrix,
                  lambda rho: validated.append(np.size(rho) // 16))
    argv = ["evolve", "--method", "kraus", "--channel", "dep", "--p", "0.3", "--n", str(n),
            "--state=0.3,-0.2,0.1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert validated == [1, 1]
