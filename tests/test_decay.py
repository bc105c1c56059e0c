import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coherence_lab import (
    BellCoefficients,
    ChannelKind,
    CoefficientMapMode,
    DecayQuery,
    Engine,
    IncoherentStateError,
    Lcg,
    Measure,
    ValidationError,
    apply_n,
    bell_eigenvalues,
    closed_measure,
    coefficient_map,
    decay_curve,
    decay_rate,
    decay_rates,
    frozen_surface,
    is_frozen,
    is_physical,
    kraus_set,
    per_iteration_factors,
    sample_states,
    to_density_matrix,
)
from coherence_lab import channels
from coherence_lab.coherence import closed_measures
from coherence_lab.cli import VERIFY_ENGINE_TOL
from conftest import REFERENCE

BF = ChannelKind.BIT_FLIP
PF = ChannelKind.PHASE_FLIP
DEP = ChannelKind.DEPOLARIZING


def test_bf_l1_rate_is_exactly_one():
    for p in (0.1, 0.5, 0.9):
        for n in (1, 10, 30):
            assert decay_rate(DecayQuery(REFERENCE, Measure.L1, BF, p, n)) == 1.0


def test_pf_l1_quarter_contraction():
    rate = decay_rate(DecayQuery(REFERENCE, Measure.L1, PF, 0.5, 1))
    assert rate == pytest.approx(0.25, abs=1e-15)
    assert not is_frozen(DecayQuery(REFERENCE, Measure.L1, PF, 0.5, 1))


def test_dep_l1_contraction_factor():
    # both coefficients scale identically, so the rate is the factor itself
    p, n = 0.3, 4
    factor = 1.0 - 4.0 * p / 3.0
    expected = 1.0
    for _ in range(n):
        expected *= factor * factor
    rate = decay_rate(DecayQuery(REFERENCE, Measure.L1, DEP, p, n))
    assert rate == pytest.approx(abs(expected), rel=1e-13)


def test_dep_complete_incoherence_rate_zero():
    for measure in Measure:
        for n in (1, 4):
            assert decay_rate(DecayQuery(REFERENCE, measure, DEP, 0.75, n)) == 0.0


def test_near_identity_channel_is_frozen():
    for kind in ChannelKind:
        for measure in Measure:
            assert is_frozen(DecayQuery(REFERENCE, measure, kind, 1e-12, 1))


def test_frozen_examples():
    assert is_frozen(DecayQuery(REFERENCE, Measure.L1, BF, 0.5, 10))
    assert not is_frozen(DecayQuery(REFERENCE, Measure.L1, PF, 0.5, 1))


def test_incoherent_input_rejected():
    for engine in Engine:
        with pytest.raises(IncoherentStateError):
            decay_rate(
                DecayQuery(BellCoefficients(0, 0, 0.5), Measure.L1, BF, 0.5, 1, engine=engine)
            )


@pytest.mark.parametrize("rates", [
    lambda state: decay_rates([DecayQuery(state, Measure.L1, BF, 0.5, 1)]),
    lambda state: decay_rates([DecayQuery(state, Measure.L1, BF, 0.5, 1,
                                          engine=Engine.MATRIX_ORACLE)]),
    lambda state: decay_curve(BF, Measure.L1, state, (1, 2), p_count=3),
], ids=["closed-form", "matrix-oracle", "decay_curve"])
def test_incoherence_is_rejected_before_any_step(monkeypatch, rates):
    def no_steps(*args):
        raise AssertionError("a channel step ran before the coherence check")

    monkeypatch.setattr(channels, "_per_row_steps", no_steps)
    with pytest.raises(IncoherentStateError):
        rates(BellCoefficients(0.0, 0.0, 0.5))


_QUERY = DecayQuery(REFERENCE, Measure.L1, BF, 0.5, 1)
# states that are not exactly three coordinates
_SHORT, _LONG, _TEXT = (0.6, 0.1), (0.6, 0.1, 0.2, 0.0), "0.6,0.1,0.2"
# a state with an array coordinate, which is two states, not one
_ARRAY = (np.array([0.1, 0.2]), 0.1, 0.0)
# a stack of two density matrices
_PAIR = to_density_matrix(BellCoefficients(np.array([0.6, 0.5]), 0.1, 0.2))

# entry point x bad value; each was accepted, coerced or met with a bare
# TypeError/ValueError before the validators in errors.py took over
BAD_INPUTS = {
    "kraus_set p string": lambda: kraus_set(BF, "0.5"),
    "kraus_set gamma string": lambda: kraus_set(ChannelKind.AMPLITUDE_DAMPING, 0.5, "0.3"),
    "per_iteration_factors p None": lambda: per_iteration_factors(BF, None),
    "frozen_surface tol bool": lambda: frozen_surface(BF, Measure.L1, 0.5, 1, 5, tol=True),
    "frozen_surface tol string": lambda: frozen_surface(BF, Measure.L1, 0.5, 1, 5, tol="x"),
    "frozen_surface min_coherence bool":
        lambda: frozen_surface(BF, Measure.L1, 0.5, 1, 5, min_coherence=True),
    "ChannelKind unknown": lambda: ChannelKind("xx"),
    "Measure unknown": lambda: Measure("l2"),
    "CoefficientMapMode unknown": lambda: CoefficientMapMode("exact"),
    "Engine unknown": lambda: Engine("gpu"),
    "sample_states count float": lambda: sample_states(1, 2.7),
    "sample_states count bool": lambda: sample_states(1, True),
    "is_frozen tol NaN": lambda: is_frozen(_QUERY, tol=float("nan")),
    "is_frozen tol negative": lambda: is_frozen(_QUERY, tol=-1),
    "decay_rate string state":
        lambda: decay_rate(DecayQuery(("0.6", "0.1", "0.2"), Measure.L1, BF, 0.5, 1)),
    "decay_rate oracle bool coordinate": lambda: decay_rate(DecayQuery(
        (False, 0.1, 0.2), Measure.L1, BF, 0.5, 1, engine=Engine.MATRIX_ORACLE)),
    "closed_measure complex coordinate":
        lambda: closed_measure(Measure.L1, BellCoefficients(0.1j, 0.0, 0.0)),
    # Python ints beyond float range, on which float arithmetic overflows
    "frozen_surface tol huge int": lambda: frozen_surface(BF, Measure.L1, 0.5, 1, 5, tol=10**400),
    # too many digits for repr, so the message must not print it
    "frozen_surface tol 5001-digit int":
        lambda: frozen_surface(BF, Measure.L1, 0.5, 1, 5, tol=10**5000),
    "closed_measure huge int coordinate":
        lambda: closed_measure(Measure.L1, BellCoefficients(10**400, 0, 0)),
    "decay_rate huge int coordinate":
        lambda: decay_rate(DecayQuery((0.1, -10**400, 0.2), Measure.L1, BF, 0.5, 1)),
    "sample_states seed float": lambda: sample_states(2.7, 1),
    "sample_states seed bool": lambda: sample_states(True, 1),
    "sample_states seed string": lambda: sample_states("3", 1),
    # the Kraus route has one dep convention, so the oracle takes no other
    "decay_rate oracle paper mode": lambda: decay_rate(DecayQuery(
        REFERENCE, Measure.L1, DEP, 0.3, 2, mode="paper", engine=Engine.MATRIX_ORACLE)),
    "decay_rate oracle unknown mode": lambda: decay_rate(DecayQuery(
        REFERENCE, Measure.L1, DEP, 0.3, 2, mode="bogus", engine=Engine.MATRIX_ORACLE)),
    "is_frozen oracle paper mode": lambda: is_frozen(DecayQuery(
        REFERENCE, Measure.L1, BF, 0.3, 2, mode="paper", engine=Engine.MATRIX_ORACLE)),
    # states of the wrong arity, a bare TypeError where they were unpacked
    # (a numpy ValueError for a ragged stack), and a count where a list goes
    "closed_measure 2-tuple state": lambda: closed_measure(Measure.L1, _SHORT),
    "closed_measure 4-tuple state": lambda: closed_measure(Measure.L1, _LONG),
    "closed_measure string state": lambda: closed_measure(Measure.L1, _TEXT),
    "coefficient_map 2-tuple state": lambda: coefficient_map(BF, 0.5, 1, _SHORT),
    "coefficient_map 4-tuple state": lambda: coefficient_map(BF, 0.5, 1, _LONG),
    "coefficient_map string state": lambda: coefficient_map(BF, 0.5, 1, _TEXT),
    "to_density_matrix 2-tuple state": lambda: to_density_matrix(_SHORT),
    "to_density_matrix 4-tuple state": lambda: to_density_matrix(_LONG),
    "to_density_matrix string state": lambda: to_density_matrix(_TEXT),
    "decay_rate 2-tuple state": lambda: decay_rate(DecayQuery(_SHORT, Measure.L1, BF, 0.5, 1)),
    "decay_rate oracle 4-tuple state": lambda: decay_rate(DecayQuery(
        _LONG, Measure.L1, BF, 0.5, 1, engine=Engine.MATRIX_ORACLE)),
    "decay_rates ragged stack":
        lambda: decay_rates([_QUERY, DecayQuery(_SHORT, Measure.L1, BF, 0.5, 1)]),
    "decay_curve 2-tuple state": lambda: decay_curve(BF, Measure.L1, _SHORT, (1,), p_count=3),
    "decay_curve 4-tuple state": lambda: decay_curve(BF, Measure.L1, _LONG, (1,), p_count=3),
    "decay_curve string state": lambda: decay_curve(BF, Measure.L1, _TEXT, (1,), p_count=3),
    "decay_curve n_list int": lambda: decay_curve(BF, Measure.L1, REFERENCE, 5, p_count=3),
    # real-number checks come before the state is tiled into float rows,
    # which would parse the strings and read the bool as 1.0
    "decay_curve string coordinates":
        lambda: decay_curve(BF, Measure.L1, ("0.5", "0.1", "0.1"), (1,), p_count=3),
    "decay_curve bool coordinate":
        lambda: decay_curve(BF, Measure.L1, (True, 0.0, 0.0), (1,), p_count=3),
    # typed all along, but no test reached these branches
    "apply_n more counts than rows": lambda: apply_n(_PAIR, kraus_set(BF, 0.5), [1, 2, 3]),
    "apply_n list of Kraus sets": lambda: apply_n(_PAIR, [kraus_set(BF, 0.5)] * 2, 1),
    "decay_rates mixed engines": lambda: decay_rates([_QUERY, DecayQuery(
        REFERENCE, Measure.L1, BF, 0.5, 1, engine=Engine.MATRIX_ORACLE)]),
    "decay_curve empty n_list": lambda: decay_curve(BF, Measure.L1, REFERENCE, (), p_count=3),
    # states that do not unpack at all, a bare TypeError where they were iterated
    "decay_rate None state": lambda: decay_rate(DecayQuery(None, Measure.L1, BF, 0.5, 1)),
    "decay_rate int state": lambda: decay_rate(DecayQuery(5, Measure.L1, BF, 0.5, 1)),
    "decay_rate oracle None state": lambda: decay_rate(DecayQuery(
        None, Measure.L1, BF, 0.5, 1, engine=Engine.MATRIX_ORACLE)),
    "decay_rate oracle int state": lambda: decay_rate(DecayQuery(
        5, Measure.L1, BF, 0.5, 1, engine=Engine.MATRIX_ORACLE)),
    "bell_eigenvalues 2-tuple state": lambda: bell_eigenvalues(_SHORT),
    # states that did not go through the state intake: a bare TypeError,
    # OverflowError or numpy ValueError, or a (4, 2) array sorted per row
    "is_physical 2-tuple state": lambda: is_physical(_SHORT),
    "is_physical None state": lambda: is_physical(None),
    "is_physical string coordinates": lambda: is_physical(("a", "b", "c")),
    "is_physical huge int coordinate": lambda: is_physical((10**400, 0, 0)),
    "is_physical array coordinate": lambda: is_physical(_ARRAY),
    "bell_eigenvalues string coordinates": lambda: bell_eigenvalues(("a", "b", "c")),
    "bell_eigenvalues huge int coordinate": lambda: bell_eigenvalues((10**400, 0, 0)),
    "bell_eigenvalues array coordinate": lambda: bell_eigenvalues(_ARRAY),
    "closed_measure array coordinate": lambda: closed_measure(Measure.L1, _ARRAY),
    "coefficient_map array coordinate": lambda: coefficient_map(BF, 0.5, 1, _ARRAY),
    # array coordinates that do not broadcast together, a numpy ValueError
    # from inside the physicality test
    "to_density_matrix unbroadcastable arrays":
        lambda: to_density_matrix((np.zeros(2), np.zeros(3), 0.0)),
    "closed_measures unbroadcastable arrays":
        lambda: closed_measures(Measure.L1, np.zeros(2), np.zeros(3), 0.0),
}


@pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_bad_input_raises_a_typed_error(call):
    with pytest.raises(ValidationError):
        call()


def test_numpy_scalars_are_still_accepted():
    cloud = frozen_surface(BF, Measure.L1, np.float64(0.5), np.int64(2), np.int32(5))
    plain = frozen_surface(BF, Measure.L1, 0.5, 2, 5)
    assert cloud.metadata() == plain.metadata()
    assert np.array_equal(cloud.points, plain.points)
    query = DecayQuery(REFERENCE, Measure.SKEW, PF, np.float64(0.3), np.int64(3))
    assert decay_rate(query) == decay_rate(DecayQuery(REFERENCE, Measure.SKEW, PF, 0.3, 3))


def test_integer_seeds_of_any_sign_are_accepted():
    assert Lcg(-1).state == Lcg(2**64 - 1).state
    assert sample_states(np.int64(-7), 3) == sample_states(-7, 3)
    assert sample_states(-7, 3) != sample_states(7, 3)


def _sweep(count):
    kinds = list(ChannelKind)
    measures = list(Measure)
    p_grid = [k / 10 for k in range(1, 10)]
    for index, state in enumerate(sample_states(seed=99, count=count, min_l1=1e-2)):
        yield (
            state,
            measures[index % 3],
            kinds[index % 5],
            p_grid[index % 9],
            1 + index % 12,
        )


def test_engine_agreement_on_sweep():
    for state, measure, kind, p, n in _sweep(60):
        closed = decay_rate(DecayQuery(state, measure, kind, p, n))
        oracle = decay_rate(DecayQuery(state, measure, kind, p, n, engine=Engine.MATRIX_ORACLE))
        assert abs(closed - oracle) <= 1e-8


def test_bound_and_n_monotonicity_on_sweep():
    for state, measure, kind, p, n in _sweep(150):
        here = decay_rate(DecayQuery(state, measure, kind, p, n))
        after = decay_rate(DecayQuery(state, measure, kind, p, n + 1))
        assert here <= 1.0 + 1e-9
        assert after <= here + 1e-10


COORDINATE = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([BF, ChannelKind.BIT_PHASE_FLIP]), COORDINATE, COORDINATE,
    st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
    st.integers(1, 1000), st.integers(1, 50),
)
def test_freezing_surface_rates_stay_at_one(kind, kept, c3, p, n, oracle_n):
    # Bromley, Cianciaruso and Adesso, PRL 114, 210401: on c2 = -c1 c3 under bf
    # (c1 = -c2 c3 under bpf) the coherence of every measure is frozen for all n
    if kind is BF:
        state = BellCoefficients(kept, -kept * c3, c3)
    else:
        state = BellCoefficients(-kept * c3, kept, c3)
    assume(is_physical(state))
    assume(all(closed_measure(measure, state) >= 1e-4 for measure in Measure))
    # the closed skew kernel misses by up to ~2e-8 one ulp from a vertex:
    # test_skew_freezing_next_to_a_vertex
    closed = decay_rates([
        DecayQuery(state, measure, kind, p, n) for measure in (Measure.L1, Measure.REL_ENT)
    ])
    assert np.all(np.abs(closed - 1.0) <= 1e-9), closed
    oracle = decay_rates([
        DecayQuery(state, measure, kind, p, oracle_n, engine=Engine.MATRIX_ORACLE)
        for measure in Measure
    ])
    assert np.all(np.abs(oracle - 1.0) <= VERIFY_ENGINE_TOL), oracle


@pytest.mark.xfail(strict=True, reason="skew_kernel takes sqrt of a parity product that is "
                   "only round-off next to a face, so its error grows to ~sqrt(eps)")
def test_skew_freezing_next_to_a_vertex():
    # exactly on the bf surface c2 = -c1 c3, one ulp from the vertex (1, -1, 1);
    # the evolved state (c1, c2 / 4, c3 / 4) is exactly on it too, so R = 1
    state = BellCoefficients(0.9999999999999999, -0.9999999999999999, 1.0)
    rate = decay_rate(DecayQuery(state, Measure.SKEW, BF, 0.5, 1))
    assert abs(rate - 1.0) <= 1e-9
