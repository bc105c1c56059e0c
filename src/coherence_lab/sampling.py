"""Deterministic state sampling for the self-check suites.

A fixed 64-bit linear congruential generator (Knuth's MMIX multiplier)
keeps the draws reproducible across platforms and numpy versions; numpy's
own bit generators are deliberately not used here so that a seed printed
in a report always regenerates the identical sweep.
"""

from __future__ import annotations

from .coherence import l1_kernel
from .errors import ParameterRangeError, require_bound, require_count, require_integer
from .states import BellCoefficients, is_physical

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


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


def random_physical_state(rng: Lcg, min_l1: float = 0.0) -> BellCoefficients:
    """Rejection-sample the cube [-1, 1]^3 until inside the tetrahedron.

    ``min_l1`` additionally rejects states whose l1 coherence falls below the
    floor, which keeps decay-ratio denominators well conditioned. It must lie
    in [0, 1): l1 = max(|c1|, |c2|) reaches 1 only at the vertices, a set
    of measure zero, so a floor of 1 or more would never be met.
    """
    min_l1 = require_bound("min_l1", min_l1, strict=False)
    if min_l1 >= 1.0:
        raise ParameterRangeError(f"min_l1 must be < 1, got {min_l1!r}")
    while True:
        c = BellCoefficients(
            rng.next_in(-1.0, 1.0), rng.next_in(-1.0, 1.0), rng.next_in(-1.0, 1.0)
        )
        if is_physical(c) and float(l1_kernel(*c)) >= min_l1:
            return c


def sample_states(seed: int, count: int, min_l1: float = 0.0) -> list[BellCoefficients]:
    count = require_count("sample count", count)
    rng = Lcg(seed)
    return [random_physical_state(rng, min_l1) for _ in range(count)]
