"""Deterministic state sampling for the self-check suites.

A fixed 64-bit linear congruential generator (Knuth's MMIX multiplier)
keeps the draws reproducible across platforms and numpy versions; numpy's
own bit generators are deliberately not used here so that a seed printed
in a report always regenerates the identical sweep. The stream is the
recurrence

    s <- (a s + c) mod 2**64,   float = (s >> 11) / 2**53,

with a = ``_MULT`` and c = ``_INC``: one float in [0, 1) from the top 53
bits of each new state. The rejection sampler ``_draw_states`` forms many
floats at once by jump-ahead, in numpy ``uint64`` arithmetic, which wraps
modulo 2**64 exactly as the recurrence does, so it gives the floats of the
recurrence stepped one at a time, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .coherence import l1_kernel
from .errors import (ParameterRangeError, ValidationError, require_bound, require_count,
                     require_integer)
from .states import BellCoefficients, physical_mask

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
# floats a rejection batch draws per state still wanted, besides its extras:
# four triples, where a state takes three on average without an l1 floor
_TRIPLE_FLOATS = 12
# most floats one rejection batch draws; each short batch doubles the next
_MAX_BATCH = 1 << 18


class Lcg:
    """The state of the module's 64-bit LCG, which ``_draw_states`` advances.

    The seed is any integer, negative ones included (taken modulo 2**64);
    a bool, float or string seed is rejected rather than truncated.
    """

    def __init__(self, seed: int):
        self.state = require_integer("seed", seed) & _MASK


def _jump(state: int, count: int) -> np.ndarray:
    """The ``count`` states after ``state``, as ``uint64``: state k is

        a^k s + c (1 + a + ... + a^(k-1))  mod 2**64,

    with the powers a^k from one running product and the sums from one
    running sum. Array arithmetic on ``uint64`` wraps silently and exactly.
    """
    powers = np.multiply.accumulate(np.full(count, _MULT, dtype=np.uint64))
    ones = np.ones(1, dtype=np.uint64)
    sums = np.cumsum(np.concatenate((ones, powers)), dtype=np.uint64)[:count]
    return powers * np.uint64(state) + sums * np.uint64(_INC)


def _unit(states: np.ndarray) -> np.ndarray:
    """The recurrence's float of each state: the top 53 bits over 2**53, exact as a float64."""
    return (states >> np.uint64(11)) / float(1 << 53)


def _draw_states(rng: Lcg, count: int, min_l1: float, extra: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rejection-sampled states and the ``extra`` plain floats drawn after each.

    The floats are the recurrence's, in order: triples (c1, c2, c3) =
    -1 + 2 u are drawn until one lies in the tetrahedron with l1 >=
    ``min_l1``, then ``extra`` floats follow, then the next state's
    triples. Returns the (count, 3) states and the (count, extra) floats,
    and leaves ``rng.state`` just past the last float used. ``min_l1`` is
    checked before any draw.

    Each batch of floats is tested at every start offset at once, then
    walked as a one-float-at-a-time loop walks the stream: past a rejected
    triple, or past an accepted triple and its extras. An accepted triple
    whose extras do not fit in the batch, or a triple that does not fit,
    ends the walk, and the next batch starts at that triple.
    """
    min_l1 = require_bound("min_l1", min_l1, strict=False)
    if min_l1 >= 1.0:
        raise ParameterRangeError(f"min_l1 must be < 1, got {min_l1!r}")
    states, extras = np.empty((count, 3)), np.empty((count, extra))
    done = size = 0
    while done < count:
        wanted = count - done
        size = max(3 + extra, min(_MAX_BATCH, max((_TRIPLE_FLOATS + extra) * wanted, 2 * size)))
        batch = _jump(rng.state, size)
        u = _unit(batch)
        # each coordinate is -1 + (1 - -1) u, a float of [-1, 1)
        c = -1.0 + (1.0 - -1.0) * u
        c1, c2, c3 = c[:-2], c[1:-1], c[2:]
        ok = (physical_mask(c1, c2, c3) & (l1_kernel(c1, c2) >= min_l1)).tolist()
        offset, picked = 0, []
        while len(picked) < wanted and offset + 3 <= size:
            if not ok[offset]:
                offset += 3
            elif offset + 3 + extra <= size:
                picked.append(offset)
                offset += 3 + extra
            else:
                break
        # a batch holds at least one triple and its extras, so the walk never stays at 0
        rng.state = int(batch[offset - 1])
        picked = np.array(picked, dtype=np.intp)[:, None]
        states[done:done + len(picked)] = c[picked + np.arange(3)]
        extras[done:done + len(picked)] = u[picked + np.arange(3, 3 + extra)]
        done += len(picked)
    return states, extras


def random_physical_state(rng: Lcg, min_l1: float = 0.0) -> BellCoefficients:
    """Rejection-sample the cube [-1, 1]^3 until inside the tetrahedron.

    ``min_l1`` additionally rejects states whose l1 coherence falls below the
    floor, which keeps decay-ratio denominators well conditioned. It must lie
    in [0, 1): l1 = max(|c1|, |c2|) reaches 1 only at the vertices, a set
    of measure zero, so a floor of 1 or more would never be met. The one-
    state case of ``_draw_states``, which checks the floor before any draw.
    """
    if not isinstance(rng, Lcg):
        raise ValidationError(f"expected an Lcg, got {type(rng).__name__}")
    states, _ = _draw_states(rng, 1, min_l1, 0)
    return BellCoefficients(*states[0].tolist())


def sample_states(seed: int, count: int, min_l1: float = 0.0) -> list[BellCoefficients]:
    """``count`` states of ``random_physical_state`` from ``Lcg(seed)``, drawn in one call."""
    count = require_count("sample count", count)
    states, _ = _draw_states(Lcg(seed), count, min_l1, 0)
    return [BellCoefficients(*row) for row in states.tolist()]
