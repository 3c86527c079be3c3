"""dualshare: exact dual witnesses, symmetric secret sharing, and
Chebyshev truncation bounds for Boolean tests.

All trust-path computation is exact rational arithmetic; floating point is
confined to verification estimates and explicitly float-valued bounds.

Importing the package runs none of its computation modules: each is
registered with ``importlib.util.LazyLoader``, so its body runs when one of
its attributes is first read, and the public names below are served on first
access.  Only ``errors`` is loaded eagerly.  Inside the package a computation
module is imported as a module (``from . import simplex``) and its names are
read qualified: ``from .simplex import name`` would run the body inside the
import statement, which drops any exception the body raises.
"""

import importlib.util
import sys

from . import errors

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "RampParams": "approxlab",
    "approx_degree": "approxlab",
    "consolidate_and": "approxlab",
    "dual_distributions": "approxlab",
    "finite_n_ramp": "approxlab",
    "l2_tail_bound": "approxlab",
    "minimax_on_weight_grid": "approxlab",
    "ramp_advantage": "approxlab",
    "SymmetricDistribution": "boolcube",
    "WeightVector": "boolcube",
    "dual_pairings": "boolcube",
    "kwise_indistinguishable": "boolcube",
    "project_symmetric": "boolcube",
    "stat_distance_symmetric": "boolcube",
    "walsh_hadamard": "boolcube",
    "DualAndParams": "dualand",
    "DualAndWitness": "dualand",
    "ShareSampler": "dualand",
    "build_witness": "dualand",
    "epsilon_of": "dualand",
    "verify_witness": "dualand",
    "PropertyViolation": "errors",
    "ChebyshevExpansion": "ratpoly",
    "RationalPoly": "ratpoly",
    "cheb_T": "ratpoly",
    "AmplificationParams": "symcheb",
    "SymmetrizedTest": "symcheb",
    "bounded_check": "symcheb",
    "circle_identity_check": "symcheb",
    "exact_weight_test": "symcheb",
    "indistinguishability_bound": "symcheb",
    "truncated_approximant": "symcheb",
    "SymmetricSpec": "weightdeg",
    "WeightDegreeReport": "weightdeg",
    "low_weight_report": "weightdeg",
    "weight_lower_bound": "weightdeg",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def _register_lazy(short: str):
    name = f"{__name__}.{short}"
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_LAZY_SUBMODULES = ("approxlab", "boolcube", "certify", "dualand", "ratpoly", "serialize",
                    "simplex", "symcheb", "weightdeg")
# Bound as package attributes too, so ``from . import boolcube`` finds the
# module without an import, which would read its __spec__ and load it.
for _short in _LAZY_SUBMODULES:
    globals()[_short] = _register_lazy(_short)
del _short


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[home], name)
    return value
