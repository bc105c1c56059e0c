import numpy as np
from hypothesis import strategies as st

from coherence_lab import BellCoefficients

REFERENCE = BellCoefficients(0.6, 0.1, 0.2)

# tetrahedron vertices of the physical region
VERTICES = (
    (1.0, -1.0, 1.0),
    (-1.0, 1.0, 1.0),
    (1.0, 1.0, -1.0),
    (-1.0, -1.0, -1.0),
)


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
