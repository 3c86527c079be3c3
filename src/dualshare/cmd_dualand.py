"""Handlers of ``dual-and`` and ``sample-shares``: the AND dual witness on
the cube and the shares drawn from it.  ``cli`` imports this module when it
dispatches one of the two commands."""

from __future__ import annotations

from . import boolcube, dualand, serialize
from .errors import InvalidInput


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
    # wit.epsilon = |H| / 2^n = phi(0) = report.correlation, as |H| is class 0's sum
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
    wit = serialize.witness_from_json(serialize.load_json(witness_path))
    # The rows are held in memory, so count * n share bits is capped at the
    # scale of the largest cube; a per-command work budget, checked before
    # any work, would replace this cap.
    if count * wit.params.n > 1 << boolcube.CUBE_CAP:
        raise InvalidInput(f"Invalid value for '--count': {count} shares of {wit.params.n} "
                           f"bits exceed count * n <= 2^{boolcube.CUBE_CAP}.")
    sampler = dualand.ShareSampler(wit, 1 if secret == "+1" else -1, seed)
    rows = []
    for _ in range(count):
        bits = sampler.sample()
        rows.append([1 - 2 * b for b in bits])  # emit +-1 share values
    header = [f"bit_{i + 1}" for i in range(wit.params.n)]
    config = {"witness": witness_path, "secret": secret, "count": count, "seed": seed}
    serialize._emit("sample-shares", config, {"shares": rows}, out, fmt, (header, rows))
