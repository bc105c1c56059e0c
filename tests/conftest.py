import numpy as np
from hypothesis import strategies as st

from coherence_lab import BellCoefficients
from coherence_lab.states import physical_mask

REFERENCE = BellCoefficients(0.6, 0.1, 0.2)

# tetrahedron vertices of the physical region
VERTICES = (
    (1.0, -1.0, 1.0),
    (-1.0, 1.0, 1.0),
    (1.0, 1.0, -1.0),
    (-1.0, -1.0, -1.0),
)

# Knuth's MMIX multiplier and increment, modulo 2**64
MULT = 6364136223846793005
INC = 1442695040888963407


class ScalarStream:
    """The sampler's LCG restated in plain Python integers, one float at a time.

    state <- (MULT state + INC) mod 2**64, and each float is the top 53 bits
    of the new state over 2**53; the rejection loop is written out, so the
    jump-ahead arithmetic of ``sampling`` is never used to check itself.
    """

    def __init__(self, seed):
        self.state = seed % 2**64

    def next_float(self):
        self.state = (self.state * MULT + INC) % 2**64
        return (self.state >> 11) / 2.0**53

    def next_state(self, min_l1=0.0):
        """Triples -1 + 2u until one is physical with l1 >= ``min_l1``."""
        while True:
            c1, c2, c3 = (-1.0 + (1.0 - -1.0) * self.next_float() for _ in range(3))
            if physical_mask(c1, c2, c3) and max(abs(c1), abs(c2)) >= min_l1:
                return c1, c2, c3


@st.composite
def physical_coefficients(draw, on_boundary=False):
    """Random physical states as convex combinations of the vertices.

    With ``on_boundary`` one to three weights are zeroed, so the state lies
    on a face, an edge or a vertex of the tetrahedron.
    """
    weights = np.array([draw(st.floats(0.0, 1.0)) for _ in range(4)])
    if on_boundary:
        dropped = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        weights[dropped] = 0.0
        if weights.sum() == 0.0:
            weights[[i for i in range(4) if i not in dropped]] = 1.0
    total = weights.sum()
    if total == 0.0:
        weights = np.array([0.25, 0.25, 0.25, 0.25])
        total = 1.0
    weights = weights / total
    c = weights @ np.array(VERTICES)
    return BellCoefficients(float(c[0]), float(c[1]), float(c[2]))
