"""JSON/CSV serialisation with exact rationals as strings.

Rationals serialise as "numerator/denominator" in lowest terms (optional
leading minus); bare integers are accepted on input.  Polynomials serialise
as coefficient arrays, lowest power first.  A file type's codec lives with
its type (distributions in ``boolcube``, the AND witness in ``dualand``), so
a command compiles only the codecs it uses.  Output files are written
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
import os
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator

from . import __version__, ratpoly
from .errors import InvalidInput


def rat_to_str(x) -> str:
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def poly_to_json(p: ratpoly.RationalPoly) -> list[str]:
    return [rat_to_str(c) for c in p.coeffs]


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
