"""Handlers of ``ramp``, ``consolidate`` and ``indist-check``: the ramp
formulas, the finite-n pair they build, and the checks on such pairs.
``cli`` imports this module when it dispatches one of the three commands."""

from __future__ import annotations

import sys

from . import approxlab, boolcube, serialize, symcheb
from .errors import InvalidInput, PropertyViolation


def ramp_cmd(k, big_k, n, finite, out, fmt):
    if finite and n is None:
        raise InvalidInput("--finite needs --n")
    params = approxlab.RampParams(k, big_k, n)
    radicand, value = approxlab.ramp_advantage(params)
    proof_radicand, proof_value = approxlab.ramp_advantage_proof_constant(params)
    tail = approxlab.l2_tail_bound(big_k, k)
    # the interpreter prints no integer of more digits than its limit (0: none)
    limit = sys.get_int_max_str_digits()
    if limit and max(abs(x) for r in (radicand, proof_radicand, tail)
                     for x in r.as_integer_ratio()) >= 10 ** limit:
        raise InvalidInput(f"--K={big_k} gives an exact radicand of more than {limit} "
                           "digits, too long to print")
    result = {
        "radicand": serialize.rat_to_str(radicand),
        "value_float": value,
        "proof_radicand": serialize.rat_to_str(proof_radicand),
        "proof_value_float": proof_value,
        "l2_tail_bound": serialize.rat_to_str(tail),
    }
    if finite:
        mu, nu, advantage = approxlab.finite_n_ramp(params)
        result.update({
            "finite_n": n,
            "mu": serialize.dist_to_json(mu),
            "nu": serialize.dist_to_json(nu),
            "advantage": serialize.rat_to_str(advantage),
            "advantage_float": float(advantage),
            "advantage_over_limit_float": float(advantage) / value,
            "kwise_indistinguishable": True,  # finite_n_ramp raises otherwise
        })
    config = {"k": k, "K": big_k, "n": n, "finite": finite}
    serialize._emit("ramp", config, result, out, fmt)


def consolidate_cmd(dist_path, t, out, fmt):
    d = serialize.dist_from_json(serialize.load_json(dist_path))
    consolidated = approxlab.consolidate_and(d, t)
    config = {"dist": dist_path, "t": t}
    serialize._emit("consolidate", config,
                    {"consolidated": serialize.dist_to_json(consolidated)}, out, fmt)


def indist_check_cmd(dist1, dist2, k, big_ks, out, fmt):
    d1 = serialize.dist_from_json(serialize.load_json(dist1))
    d2 = serialize.dist_from_json(serialize.load_json(dist2))
    if d1.n != d2.n:
        raise InvalidInput("distributions live on different n")
    n = d1.n
    if big_ks is not None:
        try:
            ks = [int(x) for x in big_ks.split(",")]
        except ValueError as exc:
            raise InvalidInput(f"--K needs comma-separated integers, got {big_ks!r}") from exc
    else:
        ks = [K for K in range(k + 1, n // 64 + 1)]
    for K in ks:  # every projection size is checked before any work
        if not k < K <= n:
            raise InvalidInput(f"projection size {K} out of range")
    if not boolcube.kwise_indistinguishable(d1, d2, k):
        raise PropertyViolation(f"distributions are not perfectly {k}-wise indistinguishable")
    rows = []
    for K in ks:
        dist = boolcube.stat_distance_symmetric(boolcube.project_symmetric(d1, K),
                                                boolcube.project_symmetric(d2, K))
        bound = symcheb.indistinguishability_bound(k, K)
        within = symcheb.indistinguishability_bound_holds(dist, k, K)
        rows.append({
            "K": K,
            "projected_distance": serialize.rat_to_str(dist),
            "projected_distance_float": float(dist),
            "bound_float": bound,
            "within_bound": within,
        })
        if not within:
            raise PropertyViolation(
                f"projected distance {float(dist)} exceeds the bound {bound} at K={K}"
            )
    config = {"dist1": dist1, "dist2": dist2, "k": k, "K": big_ks}
    csv_rows = ([*rows[0].keys()], [[r[c] for c in rows[0].keys()] for r in rows]) if rows else None
    serialize._emit("indist-check", config, {"perfectly_k_wise": True, "projections": rows},
                    out, fmt, csv_rows)
