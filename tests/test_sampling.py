"""The batched sampler against the scalar stream it replaces, bit for bit.

The reference, ``conftest.ScalarStream``, restates the LCG recurrence in
plain Python integers and draws one float at a time, with the rejection loop
written out, so the jump-ahead arithmetic of ``sampling`` is never used to
check itself.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_lab import Lcg, ParameterRangeError, sampling
from coherence_lab.sampling import _draw_states
from conftest import ScalarStream


def scalar_draw(seed, count, min_l1, extra):
    """``count`` states, ``extra`` floats after each and the final state, one draw at a time."""
    stream = ScalarStream(seed)
    states, extras = [], []
    for _ in range(count):
        states.append(stream.next_state(min_l1))
        extras.append([stream.next_float() for _ in range(extra)])
    return np.array(states).reshape(count, 3), np.array(extras).reshape(count, extra), stream.state


SEEDS = st.integers(max_value=-1) | st.just(0) | st.just(2**64 - 1) | st.integers(min_value=2**64)
# 0.99 accepts about one triple in 10^4, so it forces several batches per
# state; 1000 states at that floor would take some 3e7 scalar draws, so it
# pairs with the smaller counts only
CASES = st.sampled_from([(count, min_l1) for count in (0, 1, 1000) for min_l1 in (0.0, 1e-2, 0.99)
                         if (count, min_l1) != (1000, 0.99)])


@settings(max_examples=40, deadline=None)
@given(SEEDS, CASES, st.sampled_from([0, 1]))
def test_draws_equal_the_scalar_stream(seed, case, extra):
    count, min_l1 = case
    rng = Lcg(seed)
    states, extras = _draw_states(rng, count, min_l1, extra)
    want_states, want_extras, want_state = scalar_draw(seed, count, min_l1, extra)
    assert states.tobytes() == want_states.tobytes()
    assert extras.tobytes() == want_extras.tobytes()
    assert rng.state == want_state


def test_draws_across_batch_edges():
    # a few states per call make small batches, so over many seeds a state's
    # triple or its extra float lands on the last floats of a batch
    for seed in range(300):
        for count, extra in ((2, 1), (3, 1), (4, 0), (3, 2)):
            rng = Lcg(seed)
            states, extras = _draw_states(rng, count, 0.0, extra)
            want_states, want_extras, want_state = scalar_draw(seed, count, 0.0, extra)
            assert states.tobytes() == want_states.tobytes()
            assert extras.tobytes() == want_extras.tobytes()
            assert rng.state == want_state


@pytest.mark.parametrize("extra", [0, 1, 2])
def test_a_rare_floor_resumes_across_batches(extra):
    # whether a batch's end falls in a rejected triple, an accepted one or
    # its extras depends on the 3 + extra floats a state takes
    rng = Lcg(5)
    with mock.patch.object(sampling, "_jump", wraps=sampling._jump) as jump:
        states, extras = _draw_states(rng, 2, 0.99, extra)
    assert jump.call_count > 2
    want_states, want_extras, want_state = scalar_draw(5, 2, 0.99, extra)
    assert states.tobytes() == want_states.tobytes()
    assert extras.tobytes() == want_extras.tobytes()
    assert rng.state == want_state


def test_the_scalar_api_is_the_batched_core():
    rng, stream = Lcg(-3), Lcg(-3)
    one = sampling.random_physical_state(rng, 0.5)
    states, _ = _draw_states(stream, 1, 0.5, 0)
    assert one == tuple(states[0].tolist()) and all(type(c) is float for c in one)
    assert rng.state == stream.state
    assert sampling.sample_states(-3, 7) == [tuple(row) for row in _draw_states(
        Lcg(-3), 7, 0.0, 0)[0].tolist()]


@pytest.mark.parametrize("min_l1", ["x", None, True, float("nan"), -1e-3, 1.0, 1.5])
def test_a_rejected_floor_draws_nothing(min_l1):
    rng = Lcg(1)
    with pytest.raises(ParameterRangeError, match="min_l1"):
        _draw_states(rng, 5, min_l1, 1)
    assert rng.state == Lcg(1).state


def _stream_bytes(states, extras, rng):
    return np.column_stack((states, extras)).tobytes() + rng.state.to_bytes(8, "little")


def test_verify_draw_streams_are_golden():
    # verify's three streams at its default seed 42 and 1000 trials: the
    # measure states, the coefficient-map states and the engine states with
    # the float after each, every one followed by the generator's state.
    # Recorded from the one-float-at-a-time sampler; integer and IEEE
    # arithmetic only, so the same on any build
    digest = hashlib.sha256()
    for seed, count, min_l1, extra in ((42, 1000, 0.0, 0), (43, 300, 0.0, 0), (44, 1000, 1e-2, 1)):
        rng = Lcg(seed)
        digest.update(_stream_bytes(*_draw_states(rng, count, min_l1, extra), rng))
    assert digest.hexdigest() == "1938a1ed9a923f4561b0d9b41130423b76288f40b0aa375bbf27fcc10a21fe7f"
