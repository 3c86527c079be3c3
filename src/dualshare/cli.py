"""Command-line entry point for all experiment pipelines.

Every run is fully determined by (command, parameters), plus the seed for
``sample-shares``, the one command that draws random bits and so the only
one that takes ``--seed``; every command takes ``--out``/``--format``.  The
resolved configuration and tool version are echoed into every output file,
outputs are written atomically, and repeated runs are byte-identical.  Exit
codes: 0 success, 2 usage/validation error, 3 a certified mathematical
property failed on the instance (so CI can separate math regressions from
bad invocations).

The commands live in one table, ``cli`` at the foot of this module: each is
a name, a handler whose docstring is its help line, and its options.  The
same table drives parsing, ``--help``, ``--version`` and
``--list-commands``.  The parser follows click's conventions: the token
after an option is its value even when it starts with ``-``, ``--opt=value``
works, the last occurrence of an option wins, option names are never
abbreviated, and every usage error is one ``Error:`` line in click's
wording.  It imports only the standard library, so a command starts in
little more than the interpreter's own start-up time.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, approxlab, boolcube, dualand, serialize, symcheb, weightdeg
from .errors import InfeasibleBudget, InvalidInput, PropertyViolation

EXIT_USAGE = 2
EXIT_PROPERTY_VIOLATION = 3


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("DUALSHARE_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(command: str, config: dict, result: dict, out: str | None, fmt: str,
          csv_table: tuple[list[str], list[list]] | None = None) -> None:
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
            serialize.write_json(out, payload)
            print(out)
        else:
            print(json.dumps(payload, indent=2, sort_keys=True))
        return
    header, rows = csv_table if csv_table else _flatten_csv(result)
    meta = ["# " + json.dumps({"command": command, "config": config,
                               "tool": "dualshare", "version": __version__},
                              sort_keys=True)]
    if out:
        serialize.write_csv(out, header, rows)
        print(out)
    else:
        print(meta[0])
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


def dual_and_cmd(n, weights, d_str, out, fmt):
    """Build the AND dual witness, verify it, and emit it as JSON."""
    d = _parse_rational(d_str)
    if weights:
        w = boolcube.WeightVector.of([_parse_rational(x) for x in weights.split(",")])
        if w.n != n:
            raise InvalidInput("weights length must equal n")
    else:
        w = boolcube.WeightVector.uniform(n)
    params = dualand.DualAndParams(n, w, d)
    wit = dualand.build_witness(params)
    eps = dualand.epsilon_of(params)
    report = dualand.verify_witness(wit)
    if not (report.pure_high_degree and report.l1_norm == 1
            and report.correlation == wit.epsilon == eps):
        raise PropertyViolation(
            f"witness conditions failed: pure={report.pure_high_degree}, "
            f"l1={report.l1_norm}, corr={report.correlation}, eps={eps}"
        )
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
    _emit("dual-and", config, result, out, fmt)


def sample_shares_cmd(witness_path, secret, count, seed, out, fmt):
    """Draw share vectors for a secret; CSV columns bit_1..bit_n hold +-1 values."""
    doc = serialize.load_json(witness_path)
    try:
        cfg = doc["config"]
        n, weights, d = cfg["n"], cfg["weights"], _parse_rational(cfg["d"])
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"witness file lacks a usable config: {exc!r}") from exc
    if type(n) is not int:  # bool is an int subclass, and 2.7 must not become 2
        raise InvalidInput(f"witness config n must be an integer, got {n!r}")
    if type(weights) is not list:
        raise InvalidInput(f"witness config weights must be a list, got {weights!r}")
    w = boolcube.WeightVector.of([_parse_rational(x) for x in weights])
    wit = dualand.build_witness(dualand.DualAndParams(n, w, d))
    sampler = dualand.ShareSampler(wit, 1 if secret == "+1" else -1, seed)
    rows = []
    for _ in range(count):
        bits = sampler.sample()
        rows.append([1 - 2 * b for b in bits])  # emit +-1 share values
    header = [f"bit_{i + 1}" for i in range(n)]
    config = {"witness": witness_path, "secret": secret, "count": count, "seed": seed}
    _emit("sample-shares", config, {"shares": rows}, out, fmt, (header, rows))


def symcheb_pw(n, big_k, w, check, trunc_k, eps, out, fmt):
    """Build the exact-weight test polynomial and optionally run a named check."""
    if check == "truncation":
        if trunc_k is None:
            raise InvalidInput("--check truncation needs --k")
        if big_k < 1 or trunc_k < 0:
            raise InvalidInput(f"--check truncation needs --K >= 1 and --k >= 0, "
                               f"got K={big_k}, k={trunc_k}")
    test = symcheb.exact_weight_test(n, big_k, w)
    expansion = test.cheb
    result = {
        "scale": serialize.rat_to_str(test.scale),
        "zeros": [serialize.rat_to_str(z) for z in test.zeros],
        "poly": serialize.poly_to_json(test.poly),
        "cheb_half_coeffs": [serialize.rat_to_str(c) for c in expansion.half_coeffs],
        "reflection_identity": symcheb.reflection_check(test),
    }
    if check == "bounded":
        result["grid_max_float"] = symcheb.bounded_check(test)
        result["bounded_by_2"] = True
    elif check == "truncation":
        q, bound, err = symcheb.truncated_approximant(test, trunc_k)
        result.update({
            "k": trunc_k,
            "q": serialize.poly_to_json(q),
            "error_bound_float": bound,
            "certified_error_float": err,
        })
    elif check == "circle":
        params = symcheb.AmplificationParams.with_grid(_parse_rational(eps))
        result["circle_max_rel_error_float"] = symcheb.circle_identity_check(test, params)
        if result["circle_max_rel_error_float"] >= 1e-8:
            raise PropertyViolation("circle-identity two-route discrepancy >= 1e-8")
    elif check == "product-cap":
        delta = _parse_rational(eps)
        grid = [Fraction(i, 500) for i in range(-500, 501)]
        ok = symcheb.shifted_product_check(test, delta, grid)
        result["product_cap_holds"] = ok
        if not ok:
            raise PropertyViolation("shifted-product cap failed on the grid")
    config = {"n": n, "K": big_k, "w": w, "check": check, "k": trunc_k,
              "eps": eps}
    _emit("symcheb-pw", config, result, out, fmt)


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
    checked against the weight grid's range before any work."""
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
        n, values = doc["n"], list(doc["values"])
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"predicate file needs n and values: {exc!r}") from exc
    for v in (n, *values):
        if type(v) is not int:  # bool is an int subclass, and 3.9 must not become 3
            raise InvalidInput(f"predicate file n and values must be integers, got {v!r}")
    _check_n(n)
    if len(values) != n + 1:
        raise InvalidInput(f"predicate file has {len(values)} values for n={n}")
    for v in values:
        if v not in (0, 1):
            raise InvalidInput(f"predicate file values must be 0 or 1, got {v!r}")
    return n, values


def approx_degree_cmd(f_name, n, eps, out, fmt):
    """Exact epsilon-approximate degree of a symmetric function via the LP."""
    n, values = _load_predicate(f_name, n)
    epsilon = _parse_rational(eps)
    sol, _ = approxlab.approx_degree(values, epsilon)
    config = {"f": f_name, "n": n, "eps": eps}
    result = {"approx_degree": sol.degree,
              "minimax_error_at_degree": serialize.rat_to_str(sol.epsilon)}
    _emit("approx-degree", config, result, out, fmt)


def ramp_cmd(k, big_k, n, finite, out, fmt):
    """The ramp reconstruction-advantage formulas, exact radicands included."""
    if finite and n is None:
        raise InvalidInput("--finite needs --n")
    params = approxlab.RampParams(k, big_k, n)
    radicand, value = approxlab.ramp_advantage(params)
    proof_radicand, proof_value = approxlab.ramp_advantage_proof_constant(params)
    result = {
        "radicand": serialize.rat_to_str(radicand),
        "value_float": value,
        "proof_radicand": serialize.rat_to_str(proof_radicand),
        "proof_value_float": proof_value,
        "l2_tail_bound": serialize.rat_to_str(approxlab.l2_tail_bound(big_k, k)),
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
    _emit("ramp", config, result, out, fmt)


def weight_bound_cmd(f_name, n, big_k, eps, construct, lower, out, fmt):
    """Constructive weight upper bound and dual lower bound, side by side."""
    n, values = _load_predicate(f_name, n)
    epsilon = _parse_rational(eps)
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
    _emit("weight-bound", config, result, out, fmt)


def consolidate_cmd(dist_path, t, out, fmt):
    """AND-consolidate blocks of t shares into single bits."""
    d = serialize.dist_from_json(serialize.load_json(dist_path))
    consolidated = approxlab.consolidate_and(d, t)
    config = {"dist": dist_path, "t": t}
    _emit("consolidate", config, {"consolidated": serialize.dist_to_json(consolidated)},
          out, fmt)


def indist_check_cmd(dist1, dist2, k, big_ks, out, fmt):
    """Verify perfect k-wise indistinguishability and the projected-distance bound."""
    d1 = serialize.dist_from_json(serialize.load_json(dist1))
    d2 = serialize.dist_from_json(serialize.load_json(dist2))
    if d1.n != d2.n:
        raise InvalidInput("distributions live on different n")
    n = d1.n
    perfect = boolcube.kwise_indistinguishable(d1, d2, k)
    if not perfect:
        raise PropertyViolation(f"distributions are not perfectly {k}-wise indistinguishable")
    if big_ks is not None:
        try:
            ks = [int(x) for x in big_ks.split(",")]
        except ValueError as exc:
            raise InvalidInput(f"--K needs comma-separated integers, got {big_ks!r}") from exc
    else:
        ks = [K for K in range(k + 1, n // 64 + 1)]
    rows = []
    for K in ks:
        if not k < K <= n:
            raise InvalidInput(f"projection size {K} out of range")
        dist = boolcube.stat_distance_symmetric(boolcube.project_symmetric(d1, K),
                                                boolcube.project_symmetric(d2, K))
        bound = symcheb.indistinguishability_bound(k, K)
        rows.append({
            "K": K,
            "projected_distance": serialize.rat_to_str(dist),
            "projected_distance_float": float(dist),
            "bound_float": bound,
            "within_bound": float(dist) <= bound,
        })
        if float(dist) > bound:
            raise PropertyViolation(
                f"projected distance {float(dist)} exceeds the bound {bound} at K={K}"
            )
    config = {"dist1": dist1, "dist2": dist2, "k": k, "K": big_ks}
    csv_rows = ([*rows[0].keys()], [[r[c] for c in rows[0].keys()] for r in rows]) if rows else None
    _emit("indist-check", config, {"perfectly_k_wise": perfect, "projections": rows},
          out, fmt, csv_rows)


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
    """A command: its handler, whose docstring is the help line, and its
    options, the common ``--out``/``--format`` last."""

    def __init__(self, name: str, callback, *options: Option):
        self.name, self.callback, self.help = name, callback, callback.__doc__
        self.options = (*options, *_COMMON)


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
    Command("dual-and", dual_and_cmd,
            Option("--n", "integer", required=True),
            Option("--weights",
                   help="Comma-separated rationals; default uniform weights 1."),
            Option("--d", "text", "d_str", required=True, help="Degree threshold (rational).")),
    Command("sample-shares", sample_shares_cmd,
            Option("--witness", "path", "witness_path", required=True,
                   help="Witness JSON produced by dual-and."),
            Option("--secret", "choice", required=True, choices=("+1", "-1")),
            Option("--count", "integer range", default=1),
            Option("--seed", "integer", default=0, help="RNG seed.")),
    Group("symcheb", "Symmetrised exact-weight test polynomials and their certified checks.",
          Command("pw", symcheb_pw,
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
    Command("approx-degree", approx_degree_cmd,
            Option("--f", "text", "f_name", required=True,
                   help="and|or|maj|parity|exact-half or a custom .json predicate."),
            Option("--n", "integer"),
            Option("--eps", default="1/3")),
    Command("ramp", ramp_cmd,
            Option("--k", "integer", required=True),
            Option("--K", "integer", "big_k", required=True),
            Option("--n", "integer"),
            Option("--finite", "boolean", default=False,
                   help="Also build the finite-n LP pair.")),
    Command("weight-bound", weight_bound_cmd,
            Option("--f", "text", "f_name", required=True),
            Option("--n", "integer"),
            Option("--K", "integer", "big_k", required=True),
            Option("--eps", default="1/3"),
            Option("--construct/--no-construct", "boolean", default=True),
            Option("--lower/--no-lower", "boolean", default=True)),
    Command("consolidate", consolidate_cmd,
            Option("--dist", "path", "dist_path", required=True),
            Option("--t", "integer", required=True, help="Block size.")),
    Command("indist-check", indist_check_cmd,
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
    exit 3.  A closed stdout ends quietly with exit 1.
    """
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
