"""Handler of ``symcheb pw``: the exact-weight test polynomial and its
certified checks.  ``cli`` imports this module when it dispatches the
command."""

from __future__ import annotations

from fractions import Fraction

from . import serialize, symcheb
from .errors import InvalidInput, PropertyViolation


def symcheb_pw(n, big_k, w, check, trunc_k, eps, out, fmt):
    if check == "truncation":
        if trunc_k is None:
            raise InvalidInput("--check truncation needs --k")
        if big_k < 1 or trunc_k < 0:
            raise InvalidInput(f"--check truncation needs --K >= 1 and --k >= 0, "
                               f"got K={big_k}, k={trunc_k}")
    test = symcheb.exact_weight_test(n, big_k, w)
    expansion = test.cheb
    result = {
        "scale": serialize.rat_to_str(test.scale),
        "zeros": [serialize.rat_to_str(z) for z in test.zeros],
        "poly": serialize.poly_to_json(test.poly),
        "cheb_half_coeffs": [serialize.rat_to_str(c) for c in expansion.half_coeffs],
        "reflection_identity": symcheb.reflection_check(test),
    }
    if check == "bounded":
        result["grid_max_float"] = symcheb.bounded_check(test)
        result["bounded_by_2"] = True
    elif check == "truncation":
        q, bound, err = symcheb.truncated_approximant(test, trunc_k)
        result.update({
            "k": trunc_k,
            "q": serialize.poly_to_json(q),
            "error_bound_float": bound,
            "certified_error_float": err,
        })
    elif check == "circle":
        params = symcheb.AmplificationParams(serialize._parse_rational(eps))
        # raises PropertyViolation where the routes differ
        result["circle_max_rel_error_float"] = symcheb.circle_identity_check(test, params)
    elif check == "product-cap":
        delta = serialize._parse_rational(eps)
        grid = [Fraction(i, 500) for i in range(-500, 501)]
        ok = symcheb.shifted_product_check(test, delta, grid)
        result["product_cap_holds"] = ok
        if not ok:
            raise PropertyViolation("shifted-product cap failed on the grid")
    config = {"n": n, "K": big_k, "w": w, "check": check, "k": trunc_k,
              "eps": eps}
    serialize._emit("symcheb-pw", config, result, out, fmt)
