"""JSON/CSV serialisation with exact rationals as strings.

Rationals serialise as "numerator/denominator" in lowest terms (optional
leading minus); bare integers are accepted on input.  Polynomials serialise
as coefficient arrays, lowest power first.  Output files are written
atomically (temp file + rename), only over a regular file, with the mode a
plain write gives a new file, and deterministically (sorted keys, no
timestamps), so identical runs are byte-identical.  JSON goes out in pieces
(``_json_pieces``), with the bytes of ``json.dumps(indent=2, sort_keys=True)``
but never the whole text in memory at once.

The command handlers share the helpers at the foot of this module: each
command's payload goes out through ``_emit``.
"""

from __future__ import annotations

import json
import operator
import os
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Sequence

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
    values repeat and who converts each distinct one once.  The sequence is
    kept as given: a tuple goes out as a JSON list."""
    return {"n": n, "representation": "cube", "values": texts,
            "claimed_degree": rat_to_str(d)}


def witness_from_json(doc) -> dualand.DualAndWitness:
    """The class form of a ``dual-and`` file's witness, checked as a
    certificate; ``config``'s n, weights and d give only the classes and the
    tested set.  A malformed file, or a representation other than "cube",
    exits 2.  It exits 3 unless H_size = epsilon * 2^n >= 1 and the values
    are integers over 2^n H_size, constant per class, pass
    ``verify_witness(...).require(epsilon)``, are pure below the witness's
    ``claimed_degree`` too (checked again only where it is not config's d),
    and have the sign of chi_[n] or are 0, as the sampler's secret-to-parity
    rule needs; and unless the file's ``l1_norm``, ``correlation``, ``Z``
    and ``pure_high_degree_strictly_below_d`` are what the check found.

    No table of 2^n entries is built beside the file's own list (unless every
    class is one point): one text per class is parsed, and the values are
    compared with their class's text in C.  Every value is a rational string
    or the file exits 2, even one that also breaks an exit-3 property."""
    try:
        config, result = doc["config"], doc["result"]
        n, weights, d = config["n"], config["weights"], _parse_rational(config["d"])
        eps, h_size = _parse_rational(result["epsilon"]), result["H_size"]
        claims = {key: _parse_rational(result[key]) for key in ("l1_norm", "correlation", "Z")}
        pure = result["pure_high_degree_strictly_below_d"]
        witness = result["witness"]
        wn, texts, representation = witness["n"], witness["values"], witness["representation"]
        claimed = _parse_rational(witness["claimed_degree"])
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed witness file: {exc!r}") from exc
    # bool is an int subclass, and 2.7 must not become 2
    if type(n) is not int or type(weights) is not list or type(h_size) is not int:
        raise InvalidInput(f"witness file needs integers n and H_size and a weight list, "
                           f"got n={n!r}, weights={weights!r}, H_size={h_size!r}")
    if type(pure) is not bool or representation != "cube":
        raise InvalidInput(f"witness file needs a boolean purity flag and the cube "
                           f"representation, got {pure!r} and {representation!r}")
    params = dualand.DualAndParams(
        n, boolcube.WeightVector.of([_parse_rational(x) for x in weights]), d)
    if type(wn) is not int or wn != n or type(texts) is not list or len(texts) != 1 << n:
        raise InvalidInput(f"witness file result needs {1 << n} witness values for n={n}")
    classes = dualand.BitCountClasses.of(params.w, d)
    class_of = classes.class_of
    if isinstance(class_of, range):  # singleton classes: class = mask
        class_texts = texts
    else:  # one text per class, read at the last of its masks
        last = dict(zip(class_of, texts))
        class_texts = list(map(last.__getitem__, range(len(last))))
    try:
        values = {text: _parse_rational(text) for text in set(class_texts)}
    except TypeError:  # a list or an object where a rational string should be
        raise InvalidInput("witness values must be rational strings") from None
    constant = all(map(operator.eq, texts, map(class_texts.__getitem__, class_of)))
    if not constant:  # parse every differing value first: a malformed one exits 2
        constant = all([_parse_rational(text) == values[expect] for text, expect
                        in zip(texts, map(class_texts.__getitem__, class_of)) if text != expect])
    if h_size < 1 or h_size != eps * (1 << n):
        raise PropertyViolation(f"witness file claims H_size={h_size}, epsilon={eps}; "
                                "need H_size = epsilon * 2^n >= 1")
    scaled = {text: value * (h_size << n) for text, value in values.items()}
    if any(v.denominator != 1 for v in scaled.values()):
        raise PropertyViolation(f"a witness value is not a multiple of 1/{h_size << n}")
    if not constant:
        raise PropertyViolation("witness values are not constant on config's classes")
    nums = list(map({text: v.numerator for text, v in scaled.items()}.__getitem__, class_texts))
    wit = dualand.DualAndWitness(params, h_size, classes, nums)
    report = dualand.verify_witness(wit)
    report.require(eps)
    if claimed != d and not dualand.verify_witness(dualand.DualAndWitness(
            params, h_size, dualand.BitCountClasses.of(params.w, claimed), nums)).pure_high_degree:
        raise PropertyViolation(f"the witness is not pure below its claimed degree {claimed}")
    if any(v > 0 if k & 1 else v < 0 for v, k in zip(nums, classes.ones)):
        raise PropertyViolation("witness values do not have the sign of chi_[n]")
    found = {"l1_norm": report.l1_norm, "correlation": report.correlation, "Z": wit.Z}
    if claims != found or pure != report.pure_high_degree:
        raise PropertyViolation(f"witness file claims {claims} and purity {pure}; "
                                f"the check found {found} and purity {report.pure_high_degree}")
    return wit


def _atomic_write(path: str, write_fn) -> None:
    """Write a temporary file beside ``path`` and rename it into place.  The
    file is created with mode 0o666 less the umask, as ``open`` creates one
    (``tempfile.mkstemp`` would give every output 0o600).  An OSError (a full
    disk, a directory that refuses the file) is an InvalidInput naming
    ``path``."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-dualshare-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                write_fn(fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidInput(f"cannot write {path!r}: {exc.strerror or exc}") from None


_BLOCK = 4096  # list items per joined piece
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)  # as json.dumps(indent=2, sort_keys=True)


def _json_pieces(obj: Any, indent: str = "") -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, in pieces, for
    ``obj`` written ``indent`` deep.  A dict with string keys goes key by key in
    sorted order; a list or tuple goes in blocks of at most ``_BLOCK`` items, a
    block of only ``str`` or only ``int`` as one C-level join (each distinct
    string of the block escaped once).  A ``str`` or ``int`` goes as ``json``
    writes it, and every other value through ``json``'s own encoder, so bools,
    None, floats and other dicts read as they would there."""
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        inner = indent + "  "
        head = "{\n" + inner
        for key in sorted(obj):
            yield head + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(obj[key], inner)
            head = ",\n" + inner
        yield "\n" + indent + "}"
    elif type(obj) in (list, tuple) and obj:
        inner = indent + "  "
        sep = ",\n" + inner
        head = "[\n" + inner
        for start in range(0, len(obj), _BLOCK):
            block = obj[start:start + _BLOCK]
            kinds = set(map(type, block))
            if kinds == {str}:
                distinct = set(block)
                escaped = dict(zip(distinct, map(encode_basestring_ascii, distinct)))
                yield head + sep.join(map(escaped.__getitem__, block))
            elif kinds == {int}:  # bools are not ints here: json writes true/false
                yield head + sep.join(map(int.__repr__, block))
            else:
                for item in block:
                    yield head
                    yield from _json_pieces(item, inner)
                    head = sep
            head = sep
        yield "\n" + indent + "]"
    elif type(obj) is str:
        yield encode_basestring_ascii(obj)
    elif type(obj) is int:
        yield int.__repr__(obj)
    else:  # a JSON string never holds a raw newline, so re-indenting is safe
        yield _ENCODER.encode(obj).replace("\n", "\n" + indent)


def _dump_json(payload: Any, fh) -> None:
    """``payload``'s JSON text and a newline, to ``fh`` piece by piece."""
    write = fh.write
    for piece in _json_pieces(payload):
        write(piece)
    write("\n")


def write_json(path: str, payload: Any) -> None:
    _atomic_write(path, lambda fh: _dump_json(payload, fh))


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


def _resolve_out(path: str) -> str:
    """The file ``--out path`` names (under ``DUALSHARE_OUT_DIR`` when the
    path is relative), checked before the command does any work: the path
    must not be empty, its directory must exist, and it must name no file
    yet or a regular file, which the output replaces.  A device, a FIFO or a
    directory is never replaced."""
    if not path:  # more likely an unset variable than a request for stdout
        raise InvalidInput("Invalid value for '--out': Path '' is empty.")
    base = os.environ.get("DUALSHARE_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        if os.path.basename(path) and os.path.isdir(os.path.dirname(os.path.abspath(path))):
            return path
        reason = f"Directory {os.path.dirname(path)!r} does not exist."
    except OSError as exc:  # a file where a directory should be, a name too long
        reason = f"Path {path!r}: {exc.strerror}."
    else:
        if stat.S_ISREG(mode):
            return path
        kind = "a directory" if stat.S_ISDIR(mode) else "not a regular file"
        reason = f"Path {path!r} is {kind}."
    raise InvalidInput(f"Invalid value for '--out': {reason}")


def _emit(command: str, config: dict, result: dict, out: str | None, fmt: str,
          csv_table: tuple[list[str], list[list]] | None = None) -> None:
    """Print the command's payload, or write it to ``out`` (a path
    ``_resolve_out`` gave) and print the path."""
    payload = {
        "tool": "dualshare",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }
    if fmt == "json":
        if out:
            write_json(out, payload)
            print(out)
        else:
            _dump_json(payload, sys.stdout)
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
