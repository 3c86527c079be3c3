"""Command-line entry point for all experiment pipelines.

Every run is fully determined by (command, parameters), plus the seed for
``sample-shares``, the one command that draws random bits and so the only
one that takes ``--seed``; every command takes ``--out``/``--format``.  The
resolved configuration and tool version are echoed into every output file,
outputs are written atomically, and repeated runs are byte-identical.  Exit
codes: 0 success, 2 usage/validation error, 3 a certified mathematical
property failed on the instance (so CI can separate math regressions from
bad invocations).
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

import click

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


def common_options(fn):
    """Declare the options every command takes, in this order."""
    options = (
        click.option("--out", type=str, default=None, help="Output file (default: stdout)."),
        click.option(
            "--format",
            "fmt",
            type=click.Choice(["json", "csv"]),
            default="json",
            show_default=True,
        ),
    )
    for option in reversed(options):  # innermost first, as stacked decorators apply
        fn = option(fn)
    return fn


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
            click.echo(out)
        else:
            click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    header, rows = csv_table if csv_table else _flatten_csv(result)
    meta = ["# " + json.dumps({"command": command, "config": config,
                               "tool": "dualshare", "version": __version__},
                              sort_keys=True)]
    if out:
        serialize.write_csv(out, header, rows)
        click.echo(out)
    else:
        click.echo(meta[0])
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(str(v) for v in row))


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


class _OneLineErrors(click.Group):
    """The one place that maps exceptions to exit codes.

    Usage errors, click's own (a malformed value, a missing option, an
    unknown command) and a command's ValueError or InfeasibleBudget alike, end
    with one ``Error:`` line and exit 2 instead of click's usage block or a
    traceback; a PropertyViolation ends with one line and exit 3.
    """

    def main(self, *args, **kwargs):
        try:
            code = super().main(*args, standalone_mode=False, **kwargs)
        except click.exceptions.NoArgsIsHelpError as exc:
            exc.show()  # a bare group prints its help, as click does
            sys.exit(exc.exit_code)
        except click.ClickException as exc:
            click.echo(f"Error: {exc.format_message()}", err=True)
            sys.exit(exc.exit_code)
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)
        except (ValueError, InfeasibleBudget) as exc:
            click.echo(f"Error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except PropertyViolation as exc:
            click.echo(f"property violated: {exc}", err=True)
            sys.exit(EXIT_PROPERTY_VIOLATION)
        sys.exit(code)


@click.group(cls=_OneLineErrors, invoke_without_command=True)
@click.option("--list-commands", is_flag=True, help="Emit the command schema as JSON.")
@click.version_option(version=__version__, prog_name="dualshare")
@click.pass_context
def cli(ctx, list_commands):
    """Exact dual witnesses, symmetric secret sharing, and truncation bounds."""
    if list_commands:
        schema = {}
        groups = [("", cli)]
        while groups:  # a subcommand is listed by its full invocation, "symcheb pw"
            prefix, group = groups.pop()
            for name, cmd in group.commands.items():
                params = []
                for p in cmd.params:
                    default = p.to_info_dict()["default"]  # None where click holds none
                    params.append({
                        "name": p.name,
                        "required": bool(p.required),
                        "type": getattr(p.type, "name", str(p.type)),
                        "default": None if default is None or callable(default)
                        else str(default),
                    })
                schema[prefix + name] = {"help": cmd.help or "", "params": params}
                if isinstance(cmd, click.Group):
                    groups.append((f"{prefix}{name} ", cmd))
        click.echo(json.dumps(schema, indent=2, sort_keys=True))
        ctx.exit(0)
    if ctx.invoked_subcommand is None:
        click.echo(ctx.get_help())


@cli.command("dual-and")
@click.option("--n", type=int, required=True)
@click.option("--weights", type=str, default=None,
              help="Comma-separated rationals; default uniform weights 1.")
@click.option("--d", "d_str", type=str, required=True, help="Degree threshold (rational).")
@common_options
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
    report = dualand.verify_witness(wit.witness, d, w)
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
        "witness": serialize.witness_to_json(wit.witness, wit.classes.expand(
            [serialize.rat_to_str(v) for v in wit.class_values])),
    }
    _emit("dual-and", config, result, out, fmt)


@cli.command("sample-shares")
@click.option("--witness", "witness_path", type=click.Path(exists=True), required=True,
              help="Witness JSON produced by dual-and.")
@click.option("--secret", type=click.Choice(["+1", "-1"]), required=True)
@click.option("--count", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")
@common_options
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
    if fmt == "json":
        _emit("sample-shares", config, {"shares": rows}, out, fmt)
    else:
        _emit("sample-shares", config, {"shares": rows}, out, fmt, (header, rows))


@cli.group("symcheb")
def symcheb_group():
    """Symmetrised exact-weight test polynomials and their certified checks."""


@symcheb_group.command("pw")
@click.option("--n", type=int, required=True)
@click.option("--K", "big_k", type=int, required=True)
@click.option("--w", type=int, required=True)
@click.option("--check",
              type=click.Choice(["bounded", "truncation", "circle", "product-cap"]),
              default=None)
@click.option("--k", "trunc_k", type=int, default=None,
              help="Truncation index for --check truncation.")
@click.option("--eps", type=str, default="1/10", show_default=True,
              help="Amplification epsilon for --check circle, shift for product-cap.")
@common_options
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


@cli.command("approx-degree")
@click.option("--f", "f_name", type=str, required=True,
              help="and|or|maj|parity|exact-half or a custom .json predicate.")
@click.option("--n", type=int, default=None)
@click.option("--eps", type=str, default="1/3", show_default=True)
@common_options
def approx_degree_cmd(f_name, n, eps, out, fmt):
    """Exact epsilon-approximate degree of a symmetric function via the LP."""
    n, values = _load_predicate(f_name, n)
    epsilon = _parse_rational(eps)
    sol, _ = approxlab.approx_degree(values, epsilon)
    config = {"f": f_name, "n": n, "eps": eps}
    result = {"approx_degree": sol.degree,
              "minimax_error_at_degree": serialize.rat_to_str(sol.epsilon)}
    _emit("approx-degree", config, result, out, fmt)


@cli.command("ramp")
@click.option("--k", type=int, required=True)
@click.option("--K", "big_k", type=int, required=True)
@click.option("--n", type=int, default=None)
@click.option("--finite", is_flag=True, help="Also build the finite-n LP pair.")
@common_options
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
            "kwise_indistinguishable": boolcube.kwise_indistinguishable(mu, nu, k),
        })
    config = {"k": k, "K": big_k, "n": n, "finite": finite}
    _emit("ramp", config, result, out, fmt)


@cli.command("weight-bound")
@click.option("--f", "f_name", type=str, required=True)
@click.option("--n", type=int, default=None)
@click.option("--K", "big_k", type=int, required=True)
@click.option("--eps", type=str, default="1/3", show_default=True)
@click.option("--construct/--no-construct", default=True, show_default=True)
@click.option("--lower/--no-lower", default=True, show_default=True)
@common_options
def weight_bound_cmd(f_name, n, big_k, eps, construct, lower, out, fmt):
    """Constructive weight upper bound and dual lower bound, side by side."""
    n, values = _load_predicate(f_name, n)
    epsilon = _parse_rational(eps)
    result: dict = {}
    if construct:
        spec = weightdeg.SymmetricSpec(n, tuple(values))
        poly, report = weightdeg.low_weight_approximant(spec, big_k, epsilon)
        result["construct"] = {
            "degree": report.degree,
            "weight": serialize.rat_to_str(report.weight),
            "weight_float": float(report.weight),
            "certified_error": serialize.rat_to_str(report.error),
            "bound_exponent_float": report.bound_exponent,
            "k_f": spec.k_f,
        }
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
            bound = weightdeg.weight_lower_bound(cert, big_k, epsilon)
            result["lower"] = {
                "certificate_degree": cert.degree,
                "certificate_error": serialize.rat_to_str(cert.epsilon),
                "weight_lower_bound": ("inf" if bound == math.inf
                                       else serialize.rat_to_str(bound)),
                "weight_lower_bound_float": float(bound) if bound != math.inf else None,
            }
    if construct and lower:
        floor = result["lower"]["weight_lower_bound"]
        hi = Fraction(result["construct"]["weight"])
        if floor == "inf" or hi < Fraction(floor):
            raise PropertyViolation(
                f"constructive weight {hi} fell below the certified floor {floor}"
            )
    config = {"f": f_name, "n": n, "K": big_k, "eps": eps, "construct": construct,
              "lower": lower}
    _emit("weight-bound", config, result, out, fmt)


@cli.command("consolidate")
@click.option("--dist", "dist_path", type=click.Path(exists=True), required=True)
@click.option("--t", type=int, required=True, help="Block size.")
@common_options
def consolidate_cmd(dist_path, t, out, fmt):
    """AND-consolidate blocks of t shares into single bits."""
    d = serialize.dist_from_json(serialize.load_json(dist_path))
    consolidated = approxlab.consolidate_and(d, t)
    config = {"dist": dist_path, "t": t}
    _emit("consolidate", config, {"consolidated": serialize.dist_to_json(consolidated)},
          out, fmt)


@cli.command("indist-check")
@click.option("--dist1", type=click.Path(exists=True), required=True)
@click.option("--dist2", type=click.Path(exists=True), required=True)
@click.option("--k", type=int, required=True,
              help="Claimed perfect indistinguishability level.")
@click.option("--K", "big_ks", type=str, default=None,
              help="Comma-separated projection sizes; default all K <= n/64 with K > k.")
@common_options
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


def main():
    cli(prog_name="dualshare")


if __name__ == "__main__":
    main()
