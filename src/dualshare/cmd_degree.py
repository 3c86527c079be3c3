"""Handlers of ``approx-degree`` and ``weight-bound``, which take a named or
a ``.json`` predicate on the weight grid.  ``cli`` imports this module when
it dispatches one of the two commands."""

from __future__ import annotations

import math
from fractions import Fraction

from . import approxlab, serialize, weightdeg
from .errors import InvalidInput, PropertyViolation


def _named_predicate(name: str, n: int) -> list[int]:
    if name == "and":
        return [1 if h == n else 0 for h in range(n + 1)]
    if name == "or":
        return [0 if h == 0 else 1 for h in range(n + 1)]
    if name == "maj":
        return [1 if 2 * h > n else 0 for h in range(n + 1)]
    if name == "parity":
        return [h & 1 for h in range(n + 1)]
    if name == "exact-half":
        if n % 2:
            raise InvalidInput("exact-half needs even n")
        return [1 if h == n // 2 else 0 for h in range(n + 1)]
    raise InvalidInput(f"unknown predicate {name!r}")


def _check_n(n: int) -> None:
    if not 1 <= n <= approxlab.MAX_N:
        raise InvalidInput(f"n must be between 1 and {approxlab.MAX_N}, got n={n}")


def _load_predicate(f: str, n: int | None) -> tuple[int, list[int]]:
    """(n, values by Hamming weight) of a named or a .json predicate; n is
    checked against the grid's range, and a file's against ``--n``, first."""
    if not f.endswith(".json"):
        if n is None:
            raise InvalidInput("--n is required for named predicates")
        _check_n(n)
        return n, _named_predicate(f, n)
    try:
        doc = serialize.load_json(f)
    except OSError as exc:
        raise InvalidInput(f"cannot read predicate file {f!r}: {exc.strerror}") from exc
    try:
        file_n, values = doc["n"], list(doc["values"])
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"predicate file needs n and values: {exc!r}") from exc
    for v in (file_n, *values):
        if type(v) is not int:  # bool is an int subclass, and 3.9 must not become 3
            raise InvalidInput(f"predicate file n and values must be integers, got {v!r}")
    if n is not None and n != file_n:
        raise InvalidInput(f"--n={n} differs from the predicate file's n={file_n}")
    n = file_n
    _check_n(n)
    if len(values) != n + 1:
        raise InvalidInput(f"predicate file has {len(values)} values for n={n}")
    for v in values:
        if v not in (0, 1):
            raise InvalidInput(f"predicate file values must be 0 or 1, got {v!r}")
    return n, values


def approx_degree_cmd(f_name, n, eps, out, fmt):
    n, values = _load_predicate(f_name, n)
    epsilon = serialize._parse_rational(eps)
    sol, _ = approxlab.approx_degree(values, epsilon)
    config = {"f": f_name, "n": n, "eps": eps}
    result = {"approx_degree": sol.degree,
              "minimax_error_at_degree": serialize.rat_to_str(sol.epsilon)}
    serialize._emit("approx-degree", config, result, out, fmt)


def weight_bound_cmd(f_name, n, big_k, eps, construct, lower, out, fmt):
    if big_k < 1:  # the floor alone would read "inf" for an empty degree range
        raise InvalidInput(f"--K must be at least 1, got {big_k}")
    n, values = _load_predicate(f_name, n)
    epsilon = serialize._parse_rational(eps)
    result: dict = {}
    if construct:
        spec = weightdeg.SymmetricSpec(n, tuple(values))
        report, _ = weightdeg.low_weight_report(spec, big_k, epsilon)
        result["construct"] = {
            "degree": report.degree,
            "weight": serialize.rat_to_str(report.weight),
            "weight_float": float(report.weight),
            "certified_error": serialize.rat_to_str(report.error),
            "bound_exponent_float": report.bound_exponent,
            "k_f": spec.k_f,
        }
    floor: Fraction | float = Fraction(0)
    if lower:
        _, cert = approxlab.approx_degree(values, epsilon)
        if cert is None:
            # a constant already meets eps: no certificate, and the floor is 0
            result["lower"] = {
                "certificate_degree": None,
                "certificate_error": None,
                "weight_lower_bound": serialize.rat_to_str(0),
                "weight_lower_bound_float": 0.0,
            }
        else:
            floor = weightdeg.weight_lower_bound(cert, big_k, epsilon)
            result["lower"] = {
                "certificate_degree": cert.degree,
                "certificate_error": serialize.rat_to_str(cert.epsilon),
                "weight_lower_bound": ("inf" if floor == math.inf
                                       else serialize.rat_to_str(floor)),
                "weight_lower_bound_float": float(floor) if floor != math.inf else None,
            }
    if construct and report.weight < floor:  # the floor stays 0 without --lower
        raise PropertyViolation(
            f"constructive weight {report.weight} fell below the certified floor {floor}"
        )
    config = {"f": f_name, "n": n, "K": big_k, "eps": eps, "construct": construct,
              "lower": lower}
    serialize._emit("weight-bound", config, result, out, fmt)
