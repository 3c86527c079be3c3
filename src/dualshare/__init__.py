"""dualshare: exact dual witnesses, symmetric secret sharing, and
Chebyshev truncation bounds for Boolean tests.

All trust-path computation is exact rational arithmetic; floating point is
confined to verification estimates and explicitly float-valued bounds.
"""

__version__ = "0.1.0"

from .approxlab import (
    RampParams,
    approx_degree,
    consolidate_and,
    consolidation_bound,
    dual_distributions,
    finite_n_ramp,
    l2_tail_bound,
    minimax_on_weight_grid,
    ramp_advantage,
)
from .boolcube import (
    DualWitness,
    ParityPoly,
    SymmetricDistribution,
    WeightVector,
    basis_convert,
    kwise_indistinguishable,
    pair_with_witness,
    project_symmetric,
    stat_distance_symmetric,
    walsh_hadamard,
)
from .dualand import (
    DualAndParams,
    DualAndWitness,
    ShareSampler,
    build_witness,
    epsilon_of,
    verify_witness,
    weighted_anticoncentration_check,
)
from .errors import PropertyViolation
from .ratpoly import (
    ChebyshevExpansion,
    RationalPoly,
    cheb_T,
    sigma_inner,
)
from .symcheb import (
    AmplificationParams,
    SymmetrizedTest,
    bounded_check,
    circle_identity_check,
    exact_weight_test,
    indistinguishability_bound,
    symmetrize,
    truncated_approximant,
)
from .weightdeg import (
    SymmetricSpec,
    WeightDegreeReport,
    approx_eq_y,
    low_weight_approximant,
    weight_lower_bound,
)

__all__ = [
    "AmplificationParams",
    "ChebyshevExpansion",
    "DualAndParams",
    "DualAndWitness",
    "DualWitness",
    "ParityPoly",
    "PropertyViolation",
    "RampParams",
    "RationalPoly",
    "ShareSampler",
    "SymmetricDistribution",
    "SymmetricSpec",
    "SymmetrizedTest",
    "WeightDegreeReport",
    "WeightVector",
    "__version__",
    "approx_degree",
    "approx_eq_y",
    "basis_convert",
    "bounded_check",
    "build_witness",
    "cheb_T",
    "circle_identity_check",
    "consolidate_and",
    "consolidation_bound",
    "dual_distributions",
    "epsilon_of",
    "exact_weight_test",
    "finite_n_ramp",
    "indistinguishability_bound",
    "kwise_indistinguishable",
    "l2_tail_bound",
    "low_weight_approximant",
    "minimax_on_weight_grid",
    "pair_with_witness",
    "project_symmetric",
    "ramp_advantage",
    "sigma_inner",
    "stat_distance_symmetric",
    "symmetrize",
    "truncated_approximant",
    "verify_witness",
    "walsh_hadamard",
    "weight_lower_bound",
    "weighted_anticoncentration_check",
]
