"""JSON/CSV serialisation with exact rationals as strings.

Rationals serialise as "numerator/denominator" in lowest terms (optional
leading minus); bare integers are accepted on input.  Polynomials serialise
as coefficient arrays, lowest power first.  Output files are written
atomically (temp file + rename) with the mode a plain write gives a new
file, and deterministically (sorted keys, no timestamps), so identical runs
are byte-identical.

The command handlers share the helpers at the foot of this module: each
command's payload goes out through ``_emit``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Any, Sequence

from . import __version__, boolcube, dualand, ratpoly
from .errors import InvalidInput, PropertyViolation


def rat_to_str(x) -> str:
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def poly_to_json(p: ratpoly.RationalPoly) -> list[str]:
    return [rat_to_str(c) for c in p.coeffs]


def dist_to_json(d: boolcube.SymmetricDistribution) -> dict:
    return {"n": d.n, "weight_probs": [rat_to_str(p) for p in d.weight_probs]}


def dist_from_json(obj: dict) -> boolcube.SymmetricDistribution:
    """A distribution from a JSON integer n and rational-string probabilities."""
    try:
        n, probs = obj["n"], obj["weight_probs"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed distribution (n, weight_probs): {exc!r}") from exc
    # bool is an int subclass, and Fraction would take a JSON float too
    if type(n) is not int or type(probs) is not list or any(type(p) is not str for p in probs):
        raise InvalidInput(f"distribution needs an integer n and rational strings, "
                           f"got n={n!r}, weight_probs={probs!r}")
    try:
        return boolcube.SymmetricDistribution.of(n, probs)
    except ZeroDivisionError as exc:
        raise InvalidInput(f"malformed distribution (n, weight_probs): {exc!r}") from exc


def witness_to_json(n: int, d, texts: Sequence[str]) -> dict:
    """The cube witness on n variables with claimed degree d; ``texts`` are
    its 2^n values already written by ``rat_to_str``, for a caller whose
    values repeat and who converts each distinct one once."""
    return {"n": n, "representation": "cube", "values": list(texts),
            "claimed_degree": rat_to_str(d)}


def witness_from_json(doc) -> dualand.DualAndWitness:
    """The class form of a ``dual-and`` file's witness, checked as a
    certificate; ``config``'s n, weights and d give only the classes and the
    tested set.  A malformed file exits 2.  It exits 3 unless H_size =
    epsilon * 2^n >= 1 and the values are integers over 2^n H_size, constant
    per class, pass ``verify_witness(...).require(epsilon)`` and have the
    sign of chi_[n] or are 0, as the sampler's secret-to-parity rule needs."""
    try:
        config, result = doc["config"], doc["result"]
        n, weights, d = config["n"], config["weights"], _parse_rational(config["d"])
        eps, h_size = _parse_rational(result["epsilon"]), result["H_size"]
        wn, texts = result["witness"]["n"], result["witness"]["values"]
        distinct = set(texts)
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed witness file: {exc!r}") from exc
    # bool is an int subclass, and 2.7 must not become 2
    if type(n) is not int or type(weights) is not list or type(h_size) is not int:
        raise InvalidInput(f"witness file needs integers n and H_size and a weight list, "
                           f"got n={n!r}, weights={weights!r}, H_size={h_size!r}")
    params = dualand.DualAndParams(
        n, boolcube.WeightVector.of([_parse_rational(x) for x in weights]), d)
    if type(wn) is not int or wn != n or type(texts) is not list or len(texts) != 1 << n:
        raise InvalidInput(f"witness file result needs {1 << n} witness values for n={n}")
    if h_size < 1 or h_size != eps * (1 << n):
        raise PropertyViolation(f"witness file claims H_size={h_size}, epsilon={eps}; "
                                "need H_size = epsilon * 2^n >= 1")
    scaled = {text: _parse_rational(text) * (h_size << n) for text in distinct}
    if any(v.denominator != 1 for v in scaled.values()):
        raise PropertyViolation(f"a witness value is not a multiple of 1/{h_size << n}")
    points = tuple(map({t: v.numerator for t, v in scaled.items()}.__getitem__, texts))
    classes = dualand.BitCountClasses.of(params.w, d)
    per_class = dict(zip(classes.class_of, points))
    nums = list(map(per_class.__getitem__, range(len(per_class))))
    if classes.expand(nums) != points:
        raise PropertyViolation("witness values are not constant on config's classes")
    wit = dualand.DualAndWitness(params, h_size, classes, nums)
    dualand.verify_witness(wit).require(eps)
    if any(v > 0 if k & 1 else v < 0 for v, k in zip(nums, classes.ones)):
        raise PropertyViolation("witness values do not have the sign of chi_[n]")
    return wit


def _atomic_write(path: str, write_fn) -> None:
    """Write a temporary file beside ``path`` and rename it into place.  The
    file is created with mode 0o666 less the umask, as ``open`` creates one
    (``tempfile.mkstemp`` would give every output 0o600)."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-dualshare-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: Any) -> None:
    _atomic_write(
        path, lambda fh: fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    )


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    import csv  # imported here: a command that writes JSON never loads it

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, _write)


def load_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("DUALSHARE_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(command: str, config: dict, result: dict, out: str | None, fmt: str,
          csv_table: tuple[list[str], list[list]] | None = None) -> None:
    """Print the command's payload, or write it to ``out`` and print the path."""
    payload = {
        "tool": "dualshare",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }
    out = _resolve_out(out)
    if fmt == "json":
        if out:
            write_json(out, payload)
            print(out)
        else:
            print(json.dumps(payload, indent=2, sort_keys=True))
        return
    header, rows = csv_table if csv_table else _flatten_csv(result)
    if out:
        write_csv(out, header, rows)
        print(out)
    else:
        print("# " + json.dumps({k: v for k, v in payload.items() if k != "result"},
                                sort_keys=True))
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))


def _flatten_csv(result: dict) -> tuple[list[str], list[list]]:
    return ["key", "value"], [[k, json.dumps(v) if isinstance(v, (list, dict)) else v]
                              for k, v in sorted(result.items())]


def _parse_rational(value: str) -> Fraction:
    if type(value) is not str:  # Fraction would take a JSON float or bool too
        raise InvalidInput(f"not a rational string: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not a rational: {value!r}") from exc
