"""JSON/CSV serialisation with exact rationals as strings.

Rationals serialise as "numerator/denominator" in lowest terms (optional
leading minus); bare integers are accepted on input.  Polynomials serialise
as coefficient arrays, lowest power first.  Output files are written
atomically (temp file + rename) and deterministically (sorted keys, no
timestamps), so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from fractions import Fraction
from typing import Any, Sequence

from . import boolcube, ratpoly
from .errors import InvalidInput


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


def _atomic_write(path: str, write_fn) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-dualshare-")
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
    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, _write)


def load_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)
