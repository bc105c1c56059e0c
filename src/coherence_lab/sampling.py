"""Deterministic state sampling for the self-check suites.

A fixed 64-bit linear congruential generator (Knuth's MMIX multiplier)
keeps the draws reproducible across platforms and numpy versions; numpy's
own bit generators are deliberately not used here so that a seed printed
in a report always regenerates the identical sweep. ``Lcg.next_float``
states the stream one float at a time; ``Lcg.floats`` and the rejection
sampler ``_draw_states`` form many floats at once by jump-ahead, in numpy
``uint64`` arithmetic, which wraps modulo 2**64 exactly as the stated
recurrence does, so they give the same floats bit for bit.
"""

from __future__ import annotations

import numpy as np

from .coherence import l1_kernel
from .errors import ParameterRangeError, require_bound, require_count, require_integer
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
    """64-bit LCG yielding floats in [0, 1) from the top 53 bits.

    The seed is any integer, negative ones included (taken modulo 2**64);
    a bool, float or string seed is rejected rather than truncated.
    """

    def __init__(self, seed: int):
        self.state = require_integer("seed", seed) & _MASK

    def next_float(self) -> float:
        self.state = (self.state * _MULT + _INC) & _MASK
        return (self.state >> 11) / float(1 << 53)

    def next_in(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()

    def floats(self, count: int) -> np.ndarray:
        """The next ``count`` values of ``next_float``, as one array; ``state`` moves past them."""
        count = require_count("float count", count, minimum=0)
        states = _jump(self.state, count)
        if count:
            self.state = int(states[-1])
        return _unit(states)


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
    """``next_float``'s float of each state: the top 53 bits, exact as a float64."""
    return (states >> np.uint64(11)) / float(1 << 53)


def _draw_states(rng: Lcg, count: int, min_l1: float, extra: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` rejection-sampled states and the ``extra`` plain floats drawn after each.

    The stream is the scalar one: triples (c1, c2, c3) = -1 + 2 u are drawn
    until one lies in the tetrahedron with l1 >= ``min_l1``, then ``extra``
    floats follow, then the next state's triples. Returns the (count, 3)
    states and the (count, extra) floats, and leaves ``rng.state`` just past
    the last float used. ``min_l1`` is checked before any draw.

    Each batch of floats is tested at every start offset at once; a
    per-phase table then gives, for each offset, the next accepted triple
    of the same phase, so one index jump per state walks the stream. A
    batch that runs out resumes at the first triple that did not fit in it,
    with the triples it tested and rejected consumed.
    """
    min_l1 = require_bound("min_l1", min_l1, strict=False)
    if min_l1 >= 1.0:
        raise ParameterRangeError(f"min_l1 must be < 1, got {min_l1!r}")
    states, extras = np.empty((count, 3)), np.empty((count, extra))
    done = size = 0
    while done < count:
        wanted = count - done
        size = max(3 + extra, min(_MAX_BATCH, max((_TRIPLE_FLOATS + extra) * wanted, 2 * size)))
        start = rng.state
        batch = _jump(start, size)
        u = _unit(batch)
        # as next_in(-1.0, 1.0) forms each coordinate
        c = -1.0 + (1.0 - -1.0) * u
        # the start offsets whose triple and extras fit in the batch
        fits = size - 2 - extra
        c1, c2, c3 = c[:fits], c[1:fits + 1], c[2:fits + 2]
        accepted = np.flatnonzero(physical_mask(c1, c2, c3) & (l1_kernel(c1, c2) >= min_l1))
        # following[j]: the first accepted offset >= j of j's phase, or size if none
        phases = -(-fits // 3)
        table = np.full(3 * phases, size)
        table[accepted] = accepted
        following = np.minimum.accumulate(table.reshape(phases, 3)[::-1], axis=0)[::-1]
        following = following.ravel().tolist()
        offset, picked = 0, []
        while len(picked) < wanted and offset < fits and following[offset] < size:
            picked.append(following[offset])
            offset = picked[-1] + 3 + extra
        if len(picked) < wanted and offset < fits:
            # every triple left in this phase was rejected: resume past the last of them
            offset += 3 * -(-(fits - offset) // 3)
        rng.state = start if offset == 0 else int(batch[offset - 1])
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
    states, _ = _draw_states(rng, 1, min_l1, 0)
    return BellCoefficients(*states[0].tolist())


def sample_states(seed: int, count: int, min_l1: float = 0.0) -> list[BellCoefficients]:
    """``count`` states of ``random_physical_state`` from ``Lcg(seed)``, drawn in one call."""
    count = require_count("sample count", count)
    states, _ = _draw_states(Lcg(seed), count, min_l1, 0)
    return [BellCoefficients(*row) for row in states.tolist()]
