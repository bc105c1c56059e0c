"""Coherence decay of two-qubit Bell-diagonal states under product noise.

The package computes three coherence measures (l1 norm, relative entropy,
skew information) in closed form and straight from the density matrix,
evolves states through iterated product channels both via per-coefficient
contraction factors and via literal Kraus operators, and scans decay rates
and frozen-coherence regions over parameter and state space.
"""

from .channels import (
    ChannelKind,
    CoefficientMapMode,
    KrausSet,
    apply_n,
    apply_product_channel,
    coefficient_map,
    kraus_set,
    per_iteration_factors,
    single_parameter_kraus_set,
)
from .coherence import Measure, closed_measure, matrix_measure
from .decay import (
    DecayQuery,
    Engine,
    decay_rate,
    decay_rates,
    is_frozen,
)
from .errors import (
    CoherenceLabError,
    IncoherentStateError,
    InternalNumericalError,
    MissingGammaError,
    NotHermitianError,
    NotPSDError,
    ParameterRangeError,
    TraceNotOneError,
    UnphysicalStateError,
    ValidationError,
)
from .linalg import (
    EigenSystem,
    hermitian_eigensystem,
    psd_sqrt,
    von_neumann_entropy,
)
from .sampling import Lcg, random_physical_state, sample_states
from .scan import DecayCurve, SurfacePointCloud, decay_curve, frozen_surface
from .states import (
    BellCoefficients,
    bell_eigenvalues,
    from_density_matrix,
    is_physical,
    to_density_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BellCoefficients",
    "ChannelKind",
    "CoefficientMapMode",
    "CoherenceLabError",
    "DecayCurve",
    "DecayQuery",
    "EigenSystem",
    "Engine",
    "IncoherentStateError",
    "InternalNumericalError",
    "KrausSet",
    "Lcg",
    "Measure",
    "MissingGammaError",
    "NotHermitianError",
    "NotPSDError",
    "ParameterRangeError",
    "SurfacePointCloud",
    "TraceNotOneError",
    "UnphysicalStateError",
    "ValidationError",
    "apply_n",
    "apply_product_channel",
    "bell_eigenvalues",
    "closed_measure",
    "coefficient_map",
    "decay_curve",
    "decay_rate",
    "decay_rates",
    "from_density_matrix",
    "frozen_surface",
    "hermitian_eigensystem",
    "is_frozen",
    "is_physical",
    "kraus_set",
    "matrix_measure",
    "per_iteration_factors",
    "psd_sqrt",
    "random_physical_state",
    "sample_states",
    "single_parameter_kraus_set",
    "to_density_matrix",
    "von_neumann_entropy",
]
