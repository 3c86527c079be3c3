"""Command-line entry point for all experiment pipelines.

Every run is fully determined by (command, parameters), plus the seed for
``sample-shares``, the one command that draws random bits and so the only
one that takes ``--seed``; every command takes ``--out``/``--format``.  The
resolved configuration and tool version are echoed into every JSON output,
and into the ``#`` line that starts a CSV printed to stdout; a CSV file
written with ``--out`` holds only the header and the rows.  Outputs are
written atomically, to an ``--out`` path checked before the command does any
work (``serialize._resolve_out``), and repeated runs are byte-identical.  Exit
codes: 0 success, 2 usage/validation error, 3 a certified mathematical
property failed on the instance (so CI can separate math regressions from
bad invocations).

The commands live in one table, ``cli`` at the foot of this module: each is
a name, its handler named as ``"module.function"``, its help line and its
options.  The same table drives parsing, ``--help``, ``--version`` and
``--list-commands``; the handlers live in four ``cmd_*`` modules, one per
family of commands, and a command imports only its own family's module,
when it is dispatched.  The parser follows click's conventions: the token
after an option is its value even when it starts with ``-``, ``--opt=value``
works, the last occurrence of an option wins, option names are never
abbreviated, and every usage error is one ``Error:`` line in click's
wording.  It imports only the standard library, so a command starts in
little more than the interpreter's own start-up time.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import sys
import warnings

from . import __version__, serialize
from .errors import InfeasibleBudget, InvalidInput, PropertyViolation

EXIT_USAGE = 2
EXIT_PROPERTY_VIOLATION = 3


class Option:
    """One option: its flag, the handler keyword ``dest`` and a ``kind``.

    The kind is the type name ``--list-commands`` reports: ``integer``,
    ``text``, ``choice`` (one of ``choices``), ``path`` (an existing file),
    ``integer range`` (an integer >= 1), or ``boolean``: a flag such as
    ``--finite`` or a switch such as ``--lower/--no-lower``.
    """

    __slots__ = ("flag", "kind", "dest", "default", "required", "help", "choices")

    def __init__(self, flag: str, kind: str = "text", dest: str | None = None, *,
                 default=None, required: bool = False, help: str = "",
                 choices: tuple[str, ...] = ()):
        self.flag, self.kind, self.default = flag, kind, default
        self.dest = dest or flag.split("/")[0][2:].replace("-", "_")
        self.required, self.help, self.choices = required, help, choices

    def convert(self, value):
        """The handler's value for the text ``value``, checked as the kind asks."""
        kind = self.kind
        if kind in ("integer", "integer range"):
            try:
                number = int(value)
            except ValueError:
                raise self._invalid(f"{value!r} is not a valid {kind}.") from None
            if kind == "integer range" and number < 1:
                raise self._invalid(f"{number} is not in the range x>=1.")
            return number
        if kind == "choice" and value not in self.choices:
            raise self._invalid(f"{value!r} is not one of {', '.join(map(repr, self.choices))}.")
        if kind == "path" and not os.path.exists(value):
            raise self._invalid(f"Path {value!r} does not exist.")
        if kind == "path" and os.path.isdir(value):
            raise self._invalid(f"Path {value!r} is a directory.")
        return value

    def _invalid(self, reason: str) -> InvalidInput:
        return InvalidInput(f"Invalid value for '{self.flag}': {reason}")

    def columns(self) -> tuple[str, str]:
        """The option's two ``--help`` columns: flag and metavar, then notes."""
        if self.kind == "boolean":
            label = self.flag.replace("/", " / ")
        elif self.kind == "choice":
            label = f"{self.flag} [{'|'.join(self.choices)}]"
        else:
            label = f"{self.flag} {self.kind.upper()}"
        notes = ["required"] if self.required else []
        if self.default is not None and self.default is not False:
            notes.append(f"default: {self.default}")
        if self.kind == "integer range":
            notes.append("x>=1")
        note = f"[{'; '.join(notes)}]" if notes else ""
        return label, f"{self.help}  {note}".strip()


class Command:
    """A command: its handler ``"module.function"`` in this package, its help
    line, and its options, the common ``--out``/``--format`` last."""

    def __init__(self, name: str, handler: str, help: str, *options: Option):
        self.name, self.handler, self.help = name, handler, help
        self.options = (*options, *_COMMON)
        self._callback = None

    @property
    def callback(self):
        """The handler function, its module imported on first read."""
        if self._callback is None:
            module, _, function = self.handler.partition(".")
            self._callback = getattr(
                importlib.import_module(f"{__package__}.{module}"), function)
        return self._callback

    @callback.setter
    def callback(self, function) -> None:  # a tracer rebinds it to a wrapper
        self._callback = function


class Group:
    """Commands under one name, each an entry of ``commands``."""

    def __init__(self, name: str, help: str, *commands, options: tuple[Option, ...] = ()):
        self.name, self.help, self.options = name, help, options
        self.commands = {cmd.name: cmd for cmd in commands}


_COMMON = (
    Option("--out", help="Output file (default: stdout)."),
    Option("--format", "choice", "fmt", default="json", choices=("json", "csv")),
)
_HELP = Option("--help", "boolean", help="Show this message and exit.")

cli = Group(
    "dualshare", "Exact dual witnesses, symmetric secret sharing, and truncation bounds.",
    Command("dual-and", "cmd_dualand.dual_and_cmd",
            "Build the AND dual witness, verify it, and emit it as JSON.",
            Option("--n", "integer", required=True),
            Option("--weights",
                   help="Comma-separated rationals; default uniform weights 1."),
            Option("--d", "text", "d_str", required=True, help="Degree threshold (rational).")),
    Command("sample-shares", "cmd_dualand.sample_shares_cmd",
            "Draw share vectors for a secret; CSV columns bit_1..bit_n hold +-1 values.",
            Option("--witness", "path", "witness_path", required=True,
                   help="Witness JSON produced by dual-and."),
            Option("--secret", "choice", required=True, choices=("+1", "-1")),
            Option("--count", "integer range", default=1),
            Option("--seed", "integer", default=0, help="RNG seed.")),
    Group("symcheb", "Symmetrised exact-weight test polynomials and their certified checks.",
          Command("pw", "cmd_symcheb.symcheb_pw",
                  "Build the exact-weight test polynomial and optionally run a named check.",
                  Option("--n", "integer", required=True),
                  Option("--K", "integer", "big_k", required=True),
                  Option("--w", "integer", required=True),
                  Option("--check", "choice",
                         choices=("bounded", "truncation", "circle", "product-cap")),
                  Option("--k", "integer", "trunc_k",
                         help="Truncation index for --check truncation."),
                  Option("--eps", default="1/10",
                         help="Amplification epsilon for --check circle, "
                              "shift for product-cap."))),
    Command("approx-degree", "cmd_degree.approx_degree_cmd",
            "Exact epsilon-approximate degree of a symmetric function via the LP.",
            Option("--f", "text", "f_name", required=True,
                   help="and|or|maj|parity|exact-half or a custom .json predicate."),
            Option("--n", "integer"),
            Option("--eps", default="1/3")),
    Command("ramp", "cmd_ramp.ramp_cmd",
            "The ramp reconstruction-advantage formulas, exact radicands included.",
            Option("--k", "integer", required=True),
            Option("--K", "integer", "big_k", required=True),
            Option("--n", "integer"),
            Option("--finite", "boolean", default=False,
                   help="Also build the finite-n LP pair.")),
    Command("weight-bound", "cmd_degree.weight_bound_cmd",
            "Constructive weight upper bound and dual lower bound, side by side.",
            Option("--f", "text", "f_name", required=True),
            Option("--n", "integer"),
            Option("--K", "integer", "big_k", required=True),
            Option("--eps", default="1/3"),
            Option("--construct/--no-construct", "boolean", default=True),
            Option("--lower/--no-lower", "boolean", default=True)),
    Command("consolidate", "cmd_ramp.consolidate_cmd",
            "AND-consolidate blocks of t shares into single bits.",
            Option("--dist", "path", "dist_path", required=True),
            Option("--t", "integer", required=True, help="Block size.")),
    Command("indist-check", "cmd_ramp.indist_check_cmd",
            "Verify perfect k-wise indistinguishability and the projected-distance bound.",
            Option("--dist1", "path", required=True),
            Option("--dist2", "path", required=True),
            Option("--k", "integer", required=True,
                   help="Claimed perfect indistinguishability level."),
            Option("--K", "text", "big_ks",
                   help="Comma-separated projection sizes; default all K <= n/64 with K > k.")),
    options=(Option("--list-commands", "boolean", help="Emit the command schema as JSON."),
             Option("--version", "boolean", help="Show the version and exit.")),
)


def _read(options: tuple[Option, ...], args: list[str], interspersed: bool):
    """The raw value of each option given, by dest, and the operands.

    A later occurrence replaces an earlier one's value but keeps its place,
    so values come in the order their options first appear.  A group stops
    at its first operand, the command name; a command reads operands
    anywhere.  ``--`` ends the options.
    """
    flags = {flag: opt for opt in options for flag in opt.flag.split("/")}
    values: dict = {}
    operands: list[str] = []
    tokens = iter(args)
    for token in tokens:  # ``operands += tokens`` takes every token left
        if token == "--":
            operands += tokens
        elif token[:1] != "-" or token == "-":
            operands.append(token)
            if not interspersed:
                operands += tokens
        else:
            name, eq, value = token.partition("=")
            opt = flags.get(name)
            if opt is None:
                raise InvalidInput(f"No such option '{name}'.")
            if opt.kind == "boolean":
                if eq:
                    raise InvalidInput(f"Option '{name}' does not take a value.")
                value = name == opt.flag.split("/")[0]
            elif not eq:
                value = next(tokens, None)
                if value is None:
                    raise InvalidInput(f"Option '{name}' requires an argument.")
            values[opt.dest] = value
    return values, operands


def _help(entry: Command | Group, prog: str) -> str:
    """``--help`` text: usage, help line, options and, for a group, commands."""
    group = isinstance(entry, Group)
    usage = f"Usage: {prog} [OPTIONS]" + (" COMMAND [ARGS]..." if group else "")
    lines = [usage, "", f"  {entry.help}", "", "Options:",
             *_columns([opt.columns() for opt in (*entry.options, _HELP)])]
    if group:
        lines += ["", "Commands:",
                  *_columns(sorted((name, cmd.help) for name, cmd in entry.commands.items()))]
    return "\n".join(lines)


def _columns(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(left) for left, _ in rows)
    return [f"  {left:<{width}}  {right}".rstrip() for left, right in rows]


def _schema() -> dict:
    """Each command, by its full invocation ("symcheb pw"), with its help
    line and its options' dest, type, required flag and default text."""
    schema = {}
    groups = [("", cli)]
    while groups:
        prefix, group = groups.pop()
        for name, entry in group.commands.items():
            schema[prefix + name] = {"help": entry.help, "params": [
                {"name": opt.dest, "required": opt.required, "type": opt.kind,
                 "default": None if opt.default is None else str(opt.default)}
                for opt in entry.options]}
            if isinstance(entry, Group):
                groups.append((f"{prefix}{name} ", entry))
    return schema


def _run(entry: Command | Group, args: list[str], prog: str) -> None:
    """Parse ``args`` for ``entry`` and run it; a group reads its own options,
    then hands the rest to the command named next."""
    group = isinstance(entry, Group)
    values, operands = _read((*entry.options, _HELP), args, interspersed=not group)
    for dest in values:  # --help and --version act at once, the first given first
        if dest == "help":
            print(_help(entry, prog))
            return
        if dest == "version":
            print(f"dualshare, version {__version__}")
            return
    if not group:
        options = {opt.dest: opt for opt in entry.options}
        kwargs = {dest: options[dest].convert(value) for dest, value in values.items()}
        for opt in entry.options:
            if opt.dest not in kwargs:
                if opt.required:
                    raise InvalidInput(f"Missing option '{opt.flag}'.")
                kwargs[opt.dest] = opt.default
        if operands:
            plural = "s" if len(operands) > 1 else ""
            raise InvalidInput(f"Got unexpected extra argument{plural} ({' '.join(operands)})")
        if kwargs["out"] is not None:  # checked before the command does any work
            kwargs["out"] = serialize._resolve_out(kwargs["out"])
        entry.callback(**kwargs)  # read at call time: a tracer may rebind it
        return
    command = None
    if operands:
        command = entry.commands.get(operands[0])
        if command is None:
            raise InvalidInput(f"No such command '{operands[0]}'.")
    if values.get("list_commands"):
        print(json.dumps(_schema(), indent=2, sort_keys=True))
    elif command is not None:
        _run(command, operands[1:], f"{prog} {command.name}")
    elif entry is cli:  # a bare ``dualshare`` shows its help
        print(_help(entry, prog))
    else:  # a group named without a command is a usage error
        print(_help(entry, prog), file=sys.stderr)
        sys.exit(EXIT_USAGE)


def main(argv: list[str] | None = None) -> None:
    """Run one command line (default ``sys.argv[1:]``): the one place that
    maps exceptions to exit codes.

    A usage error (an unknown option or command, a missing or malformed
    value) and a command's ValueError or InfeasibleBudget alike end with one
    ``Error:`` line and exit 2; a PropertyViolation ends with one line and
    exit 3.  A closed stdout ends quietly with exit 1.  Each warning is one
    ``Warning:`` line, on every run, and the warning settings are restored.

    Run on the process's own command line (``argv`` None), it freezes the
    collector's heap first; a caller that passes ``argv`` keeps its collector
    as it was.
    """
    if argv is None:
        # Everything loaded so far (the interpreter's start-up, the standard
        # library, this package) lives until the process exits, so neither the
        # command's collections nor the interpreter's at finalization need walk
        # it again.
        gc.freeze()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"Warning: {message}", file=sys.stderr)
        try:
            _run(cli, sys.argv[1:] if argv is None else list(argv), "dualshare")
        except (ValueError, InfeasibleBudget) as exc:
            print(f"Error: {exc}", file=sys.stderr)
            sys.exit(EXIT_USAGE)
        except PropertyViolation as exc:
            print(f"property violated: {exc}", file=sys.stderr)
            sys.exit(EXIT_PROPERTY_VIOLATION)
        except BrokenPipeError:  # the reader closed stdout early, as ``| head`` does
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit flush
            sys.exit(1)


if __name__ == "__main__":
    main()
