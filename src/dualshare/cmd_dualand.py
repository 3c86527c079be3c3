"""Handlers of ``dual-and`` and ``sample-shares``: the AND dual witness on
the cube and the shares drawn from it.  ``cli`` imports this module when it
dispatches one of the two commands."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import boolcube, dualand, serialize
from .errors import InvalidInput, PropertyViolation


def dual_and_cmd(n, weights, d_str, out, fmt):
    d = serialize._parse_rational(d_str)
    if weights:
        w = boolcube.WeightVector.of([serialize._parse_rational(x) for x in weights.split(",")])
        if w.n != n:
            raise InvalidInput("weights length must equal n")
    else:
        w = boolcube.WeightVector.uniform(n)
    params = dualand.DualAndParams(n, w, d)
    wit = dualand.build_witness(params)
    report = dualand.verify_witness(wit)
    # wit.epsilon = |H| / 2^n = phi(0) = report.correlation, as |H| = class_sums[0]
    report.require(dualand.epsilon_of(params))
    config = {"n": n, "weights": [serialize.rat_to_str(x) for x in w.entries],
              "d": serialize.rat_to_str(d)}
    result = {
        "H_size": wit.H_size,
        "Z": serialize.rat_to_str(wit.Z),
        "epsilon": serialize.rat_to_str(wit.epsilon),
        "correlation": serialize.rat_to_str(report.correlation),
        "l1_norm": serialize.rat_to_str(report.l1_norm),
        "pure_high_degree_strictly_below_d": report.pure_high_degree,
        "witness": serialize.witness_to_json(n, d, wit.classes.expand(
            [serialize.rat_to_str(v) for v in wit.class_values])),
    }
    serialize._emit("dual-and", config, result, out, fmt)


def sample_shares_cmd(witness_path, secret, count, seed, out, fmt):
    doc = serialize.load_json(witness_path)
    try:
        cfg = doc["config"]
        n, weights, d = cfg["n"], cfg["weights"], serialize._parse_rational(cfg["d"])
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"witness file lacks a usable config: {exc!r}") from exc
    if type(n) is not int:  # bool is an int subclass, and 2.7 must not become 2
        raise InvalidInput(f"witness config n must be an integer, got {n!r}")
    if type(weights) is not list:
        raise InvalidInput(f"witness config weights must be a list, got {weights!r}")
    w = boolcube.WeightVector.of([serialize._parse_rational(x) for x in weights])
    wit = dualand.build_witness(dualand.DualAndParams(n, w, d))
    _check_result(doc, wit)
    sampler = dualand.ShareSampler(wit, 1 if secret == "+1" else -1, seed)
    rows = []
    for _ in range(count):
        bits = sampler.sample()
        rows.append([1 - 2 * b for b in bits])  # emit +-1 share values
    header = [f"bit_{i + 1}" for i in range(n)]
    config = {"witness": witness_path, "secret": secret, "count": count, "seed": seed}
    serialize._emit("sample-shares", config, {"shares": rows}, out, fmt, (header, rows))


def _check_result(doc, wit: dualand.DualAndWitness) -> None:
    """Check a ``dual-and`` file's result against ``wit``, the witness its
    config names: exit 2 if the result is missing or malformed, and 3 if its
    epsilon, H_size or any value differs from the construction, or the
    construction fails its check.  Values are compared per class on the
    integer numerators, and exactly wherever the file spells one otherwise."""
    n = wit.params.n
    try:
        result = doc["result"]
        eps, h_size, witness = result["epsilon"], result["H_size"], result["witness"]
        wn, texts = witness["n"], witness["values"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"witness file lacks a usable result: {exc!r}") from exc
    if type(wn) is not int or wn != n or type(texts) is not list or len(texts) != 1 << n:
        raise InvalidInput(f"witness file result needs {1 << n} witness values for n={n}")
    if type(h_size) is not int:
        raise InvalidInput(f"witness file H_size must be an integer, got {h_size!r}")
    if serialize._parse_rational(eps) != wit.epsilon or h_size != wit.H_size:
        raise PropertyViolation(
            f"witness file claims epsilon={eps}, H_size={h_size}; its config gives "
            f"epsilon={serialize.rat_to_str(wit.epsilon)}, H_size={wit.H_size}")
    nums, den = wit.scaled_values
    want = wit.classes.expand([f"{v // g}/{den // g}" for v in nums for g in (gcd(v, den),)])
    if tuple(texts) != want:
        for x, (got, value) in enumerate(zip(texts, want)):
            if got != value and serialize._parse_rational(got) != Fraction(value):
                raise PropertyViolation(
                    f"witness value {got} at mask {x} differs from {value}, "
                    "the value its config gives")
    dualand.verify_witness(wit).require(wit.epsilon)
