"""Output checks that recompute or bound each result without dualshare code.

``check(job, text)`` returns None when the payload passes, else a one-line
reason.  Exact quantities are recomputed here in plain integer arithmetic
(the AND witness's epsilon by exhaustive count, share parities, moment
equalities of the ramp pair); float certificates are compared with the
bound the payload states.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb, lcm


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _dist(obj: dict) -> list[Fraction]:
    probs = [Fraction(p) for p in obj["weight_probs"]]
    _require(len(probs) == obj["n"] + 1, "distribution length is not n+1")
    _require(all(p >= 0 for p in probs) and sum(probs) == 1,
             "not a probability vector")
    return probs


def exhaustive_epsilon(weights: list[Fraction], d: Fraction) -> Fraction:
    """Pr[<w, X> >= d] over uniform X in {-1,1}^n, by listing every X."""
    scale = lcm(*(x.denominator for x in weights), d.denominator)
    ints = [int(x * scale) for x in weights]
    total, target = sum(ints), d * scale
    subset_sums = [0]  # weight of the set of -1 coordinates
    for w in ints:
        subset_sums += [s + w for s in subset_sums]
    hits = sum(1 for s in subset_sums if total - 2 * s >= target)
    return Fraction(hits, len(subset_sums))


def _dual_and(job, res) -> None:
    e = job.expect
    eps = exhaustive_epsilon([Fraction(x) for x in e["weights"]], Fraction(e["d"]))
    _require(Fraction(res["epsilon"]) == eps, f"epsilon {res['epsilon']} != {eps}")
    _require(res["l1_norm"] == "1/1", "l1_norm is not 1/1")
    _require(Fraction(res["correlation"]) == eps, "correlation differs from epsilon")
    _require(len(res["witness"]["values"]) == 1 << e["n"], "witness has wrong size")


def _share_rows(job, text: str) -> list[list[int]]:
    if job.expect["format"] == "json":
        return json.loads(text)["result"]["shares"]
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == [f"bit_{i + 1}" for i in range(job.expect["n"])], "bad header")
    return [[int(v) for v in row] for row in rows[1:]]


def _sample_shares(job, text: str) -> None:
    rows = _share_rows(job, text)
    count = int(job.argv[job.argv.index("--count") + 1])
    secret = 1 if job.expect["secret"] == "+1" else -1
    _require(len(rows) == count, "wrong number of shares")
    for row in rows:
        _require(len(row) == job.expect["n"] and set(row) <= {1, -1}, "malformed share")
        parity = 1
        for v in row:
            parity *= v
        _require(parity == secret, "share parity does not match the secret")


def _symcheb(job, res) -> None:
    _require(res["reflection_identity"] is True, "reflection identity failed")
    check = job.expect["check"]
    if check == "truncation":
        _require(res["certified_error_float"] <= res["error_bound_float"],
                 "certified truncation error exceeds the bound")
    elif check == "bounded":
        _require(res["bounded_by_2"] is True and res["grid_max_float"] <= 2,
                 "|p_w| <= 2 not certified")
    else:
        _require(res["circle_max_rel_error_float"] < 1e-8, "circle identity off")


def _approx_degree(job, res) -> None:
    _require(0 <= res["approx_degree"] <= job.expect["n"], "degree out of range")
    _require(Fraction(res["minimax_error_at_degree"]) <= Fraction(job.expect["eps"]),
             "minimax error at the reported degree exceeds eps")


def _ramp(job, res) -> None:
    mu, nu = _dist(res["mu"]), _dist(res["nu"])
    _require(len(mu) == len(nu) == job.expect["n"] + 1, "ramp pair has wrong n")
    for j in range(job.expect["k"] + 1):
        _require(sum((a - b) * comb(h, j) for h, (a, b) in enumerate(zip(mu, nu))) == 0,
                 f"ramp pair differs in its order-{j} moment")
    _require(res["kwise_indistinguishable"] is True, "pair not reported indistinguishable")
    _require(Fraction(res["advantage"]) > 0, "advantage is not positive")


def _indist_check(job, res) -> None:
    _require(res["perfectly_k_wise"] is True, "not perfectly k-wise")
    rows = res["projections"]
    _require(len(rows) == job.expect["projections"], "wrong number of projections")
    for row in rows:
        _require(row["within_bound"] is True
                 and row["projected_distance_float"] <= row["bound_float"],
                 "projected distance exceeds its bound")


def _consolidate(job, res) -> None:
    _require(res["consolidated"]["n"] == job.expect["n"], "wrong consolidated n")
    _dist(res["consolidated"])


def _weight_bound(job, res) -> None:
    built, lower = res["construct"], res["lower"]
    _require(Fraction(built["certified_error"]) <= Fraction(job.expect["eps"]),
             "certified error exceeds eps")
    if lower["weight_lower_bound"] != "inf":
        _require(Fraction(built["weight"]) >= Fraction(lower["weight_lower_bound"]),
                 "constructive weight below the certified lower bound")


_RESULT_CHECKS = {
    "dual-and": _dual_and,
    "symcheb-pw": _symcheb,
    "approx-degree": _approx_degree,
    "ramp": _ramp,
    "indist-check": _indist_check,
    "consolidate": _consolidate,
    "weight-bound": _weight_bound,
}


def check(job, text: str) -> str | None:
    """None if the payload ``text`` of ``job`` passes, else the reason."""
    try:
        if job.command == "sample-shares":
            _sample_shares(job, text)
            return None
        doc = json.loads(text)
        _require(doc.get("tool") == "dualshare" and doc.get("command") == job.command,
                 "payload header names another command")
        _RESULT_CHECKS[job.command](job, doc["result"])
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed payload: {type(exc).__name__}: {exc}"
    return None
