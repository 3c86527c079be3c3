import errno
import gc
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import pytest

import dualshare.approxlab as approxlab
import dualshare.boolcube as boolcube
import dualshare.dualand as dualand
import dualshare.simplex as simplex
import dualshare.symcheb as symcheb
from dualshare.cli import cli, main
from dualshare.dualand import DualAndWitness
from dualshare.errors import PropertyViolation
from dualshare.boolcube import SymmetricDistribution, dist_to_json

from oracles import point_mass, uniform_distribution


class _Tee:
    def __init__(self, *streams):
        self.streams = streams

    def write(self, text: str) -> None:
        for stream in self.streams:
            stream.write(text)


class CliRunner:
    """Runs ``main`` in this process, as click's CliRunner ran a command:
    ``output`` holds stdout and stderr in the order written, and an uncaught
    exception gives exit code 1."""

    def invoke(self, table, args):
        assert table is cli  # main runs the one command table
        both, out = io.StringIO(), io.StringIO()
        code = 0
        with redirect_stdout(_Tee(out, both)), redirect_stderr(_Tee(both)):
            try:
                main(args)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = 1
        return SimpleNamespace(exit_code=code, output=both.getvalue(),
                               stdout_bytes=out.getvalue().encode())


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestRamp:
    def test_radicand(self, runner):
        doc = run_json(runner, ["ramp", "--k", "1", "--K", "2"])
        assert doc["result"]["radicand"] == "1/32"
        assert doc["command"] == "ramp"
        assert doc["version"]

    def test_finite_pair(self, runner):
        doc = run_json(runner, ["ramp", "--k", "1", "--K", "2", "--n", "32", "--finite"])
        assert doc["result"]["kwise_indistinguishable"] is True

    def test_bad_range(self, runner):
        result = runner.invoke(cli, ["ramp", "--k", "5", "--K", "2"])
        assert result.exit_code == 2

    def test_n_0_is_a_given_n(self, runner):
        # n = 0 is checked against K, not mistaken for a missing --n
        result = runner.invoke(cli, ["ramp", "--k", "2", "--K", "4", "--n", "0", "--finite"])
        assert result.exit_code == 2
        assert result.output.strip() == "Error: need K <= n"


class TestDualAnd:
    def test_witness_epsilon(self, runner):
        doc = run_json(runner, ["dual-and", "--n", "2", "--d", "1"])
        assert doc["result"]["epsilon"] == "1/4"
        assert doc["result"]["witness"]["representation"] == "cube"

    def test_unknown_flag(self, runner):
        result = runner.invoke(cli, ["dual-and", "--n", "2", "--d", "1", "--bogus"])
        assert result.exit_code == 2

    def test_oversized_d(self, runner):
        result = runner.invoke(cli, ["dual-and", "--n", "2", "--d", "5"])
        assert result.exit_code == 2

    def test_deterministic_outputs(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            res = runner.invoke(
                cli,
                ["dual-and", "--n", "3", "--d", "2", "--out", str(path)],
            )
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()


class TestSampleShares:
    def test_pipeline(self, runner, tmp_path):
        witness = tmp_path / "wit.json"
        res = runner.invoke(
            cli, ["dual-and", "--n", "3", "--d", "1", "--out", str(witness)]
        )
        assert res.exit_code == 0
        shares = tmp_path / "shares.csv"
        res = runner.invoke(
            cli,
            [
                "sample-shares", "--witness", str(witness), "--secret", "+1",
                "--count", "20", "--seed", "7", "--format", "csv",
                "--out", str(shares),
            ],
        )
        assert res.exit_code == 0, res.output
        lines = shares.read_text().strip().splitlines()
        assert lines[0] == "bit_1,bit_2,bit_3"
        assert len(lines) == 21
        for line in lines[1:]:
            row = [int(v) for v in line.split(",")]
            assert all(v in (1, -1) for v in row)
            prod = row[0] * row[1] * row[2]
            assert prod == 1  # secret +1 <-> product of shares +1

    def test_seed_determinism(self, runner, tmp_path):
        witness = tmp_path / "wit.json"
        runner.invoke(cli, ["dual-and", "--n", "2", "--d", "1", "--out", str(witness)])
        outs = []
        for name in ("s1.csv", "s2.csv"):
            path = tmp_path / name
            runner.invoke(
                cli,
                [
                    "sample-shares", "--witness", str(witness), "--secret", "-1",
                    "--count", "50", "--seed", "11", "--format", "csv",
                    "--out", str(path),
                ],
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


_WEIGHTS_10 = "1/2,3/4,1,5/4,3/2,1/2,3/4,1,5/4,3/2"
_WEIGHTS_12 = "1/2,1,3/2,1/2,1,3/2,1,1/2,3/2,1,1,1/2"  # three groups of repeated weights


class TestOutputBytesPinned:
    """SHA-256 of stdout, taken before the witness path, the LP behind
    ``weight-bound`` and the Sturm decisions and grid checks behind
    ``symcheb pw`` moved onto integers, and (the ``_WEIGHTS_12`` cases)
    before the AND witness moved onto per-group bit counts.  Both
    ``weight-bound`` inputs reach the aggregate LP on every block split.  The
    ``ramp --finite`` and ``weight-bound --f or`` digests were taken before
    ramp's indistinguishability field and the weight floor's character
    pairing were rewritten; ``or`` is the single-point construction.  The
    ``weight-bound --f and`` digest, the single-point branch without the
    complement, was taken before the construction stopped expanding its
    parity polynomial.  The three ``dual-and`` digests and the ``ramp
    --finite`` one were taken again when those payloads dropped the fields
    that restate another: ``H_size``, ``Z``, the purity flag and the
    witness's ``n`` and ``claimed_degree``; ``proof_radicand``,
    ``proof_value_float`` and ``l2_tail_bound``."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["dual-and", "--n", "10", "--d", "4"],
             "65a0cf8e7774748616ceaab5324f7bababb16198313e54c16a9bc2f3fc7702f2"),
            (["dual-and", "--n", "10", "--weights", _WEIGHTS_10, "--d", "17/4"],
             "f14dc21858ef73431a1c4eaebe117f3741ff289d72313ede9c29d81c6580a74e"),
            (["sample-shares", "--witness", "wit.json", "--secret", "-1",
              "--count", "200", "--seed", "12345"],
             "7dc9e5c025c0f04f695d24ddb57d0d9f26362bca11bc97d647e2bea8df8140f2"),
            (["sample-shares", "--witness", "wit.json", "--secret", "+1",
              "--count", "200", "--seed", "12345", "--format", "csv"],
             "ef05d8db285fa1c62649bdb382e9685448506098c5ee2465c41f7142797654b4"),
            (["weight-bound", "--f", "maj", "--n", "12", "--K", "6"],
             "a1c4b6cab2a1728120cac39c3bc22a2b94cb58b84d98d38aba3b9bb24bc8d206"),
            (["weight-bound", "--f", "maj", "--n", "12", "--K", "6", "--format", "csv"],
             "2fe4af653e571d8564b858e5cfca3063e05864b0f9fb1d34a5ca557b14758e3b"),
            (["weight-bound", "--f", "h11.json", "--K", "6"],
             "80917b31c09ec5fcb8e09b32191e9c81753297912f18989b966cd9474df014b6"),
            (["symcheb", "pw", "--n", "512", "--K", "8", "--w", "6",
              "--check", "truncation", "--k", "4"],
             "d7509d53e75fff8a78d1f05a9e5ce21ce54716598b10cdd7b80e67ae809961b9"),
            (["symcheb", "pw", "--n", "640", "--K", "10", "--w", "8",
              "--check", "truncation", "--k", "5"],
             "e89452fdcddaa99bf04bb72bf62dae4363b8079d5d3f486b14d9015f978dacc4"),
            (["symcheb", "pw", "--n", "1024", "--K", "8", "--w", "1", "--check", "bounded"],
             "93ae74abf67498a630ba2e4e6ff1433f01d6623b2c5ebdad582566606da21142"),
            (["symcheb", "pw", "--n", "1024", "--K", "8", "--w", "7", "--check", "circle"],
             "58475858d950acfeb98c3a38593307a169156facf389247854517dc26e4924dd"),
            (["symcheb", "pw", "--n", "512", "--K", "8", "--w", "2",
              "--check", "product-cap", "--eps", "1/100"],
             "c09a462aa79881f9a350a03cd91f49ca52b4a3016416d7e5218e0f93bcf21c17"),
            (["dual-and", "--n", "12", "--weights", _WEIGHTS_12, "--d", "7/2"],
             "a19868d95987190489ad755a1c0d7a4beaf04dd909389607807d8f4c464ec116"),
            (["sample-shares", "--witness", "wit12.json", "--secret", "-1",
              "--count", "200", "--seed", "12345"],
             "8d664a99616af3dad1d10d3c9090a076737fccda91baa64bf1320633f33eeafd"),
            (["sample-shares", "--witness", "wit12.json", "--secret", "+1",
              "--count", "200", "--seed", "12345", "--format", "csv"],
             "29806daef60cd43bcc20c40c86d69be62e327eaa8dfeefe29049340a8ab42ec7"),
            (["ramp", "--k", "2", "--K", "4", "--n", "64", "--finite"],
             "09adc5f4e61beb4133340554ed88e8d2361ce8b76a8ee6b90f0a4e013e4c32a5"),
            (["weight-bound", "--f", "or", "--n", "14", "--K", "5"],
             "27d3f2c60d7813ea960d372efafd46bd3ad2d03d534248c04b47e06478c18023"),
            (["weight-bound", "--f", "and", "--n", "14", "--K", "6"],
             "4501aca5f6fce121be6cbace0b98d1b8a575bbd680e1d134f66205498c63d019"),
        ],
    )
    def test_stdout_digest(self, runner, tmp_path, monkeypatch, args, digest):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h11.json").write_text(
            json.dumps({"n": 12, "values": [int(h == 11) for h in range(13)]})
        )
        for n, weights, d, path in (("10", _WEIGHTS_10, "17/4", "wit.json"),
                                    ("12", _WEIGHTS_12, "7/2", "wit12.json")):
            res = runner.invoke(cli, ["dual-and", "--n", n, "--weights", weights,
                                      "--d", d, "--out", path])
            assert res.exit_code == 0, res.output
        res = runner.invoke(cli, args)
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

    def test_sample_shares_builds_no_witness_values(self, runner, tmp_path, monkeypatch):
        # the sampler reads the integer character sums only
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(cli, ["dual-and", "--n", "10", "--weights", _WEIGHTS_10,
                                  "--d", "17/4", "--out", "wit.json"])
        assert res.exit_code == 0, res.output

        def unavailable(self):
            raise AssertionError("sample-shares built the witness values")

        monkeypatch.setattr(DualAndWitness, "class_values", property(unavailable))
        for fmt in ("json", "csv"):
            res = runner.invoke(cli, ["sample-shares", "--witness", "wit.json",
                                      "--secret", "+1", "--count", "50", "--format", fmt])
            assert res.exit_code == 0, res.output
        # the patch is live: dual-and, which emits the values, now fails
        assert runner.invoke(cli, ["dual-and", "--n", "3", "--d", "1"]).exit_code == 1

    def test_sample_shares_rebuilds_no_witness(self, runner, tmp_path, monkeypatch):
        # the draws come from the file's values: with the construction and the
        # exact epsilon unavailable, the pinned draws are unchanged
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(cli, ["dual-and", "--n", "12", "--weights", _WEIGHTS_12,
                                  "--d", "7/2", "--out", "wit12.json"])
        assert res.exit_code == 0, res.output

        def unavailable(*args):
            raise AssertionError("sample-shares rebuilt the witness")

        monkeypatch.setattr(dualand, "build_witness", unavailable)
        monkeypatch.setattr(dualand, "epsilon_of", unavailable)
        res = runner.invoke(cli, ["sample-shares", "--witness", "wit12.json", "--secret", "-1",
                                  "--count", "200", "--seed", "12345"])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == (
            "8d664a99616af3dad1d10d3c9090a076737fccda91baa64bf1320633f33eeafd")
        # the patch is live: dual-and, which builds the witness, now fails
        assert runner.invoke(cli, ["dual-and", "--n", "3", "--d", "1"]).exit_code == 1

    def test_sample_shares_reads_a_file_with_the_restating_fields(self, runner, tmp_path,
                                                                   monkeypatch):
        # files from before the payload diet also carry H_size = epsilon 2^n,
        # Z = 1/epsilon, a purity flag and the witness's n and claimed degree;
        # the reader ignores them, and the pinned draws are unchanged
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(cli, ["dual-and", "--n", "12", "--weights", _WEIGHTS_12,
                                  "--d", "7/2", "--out", "new.json"])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "new.json").read_text())
        eps = Fraction(doc["result"]["epsilon"])
        doc["result"].update({"H_size": int(eps * 4096),
                              "Z": f"{eps.denominator}/{eps.numerator}",
                              "pure_high_degree_strictly_below_d": True})
        doc["result"]["witness"].update({"n": 12, "claimed_degree": "7/2"})
        (tmp_path / "wit12.json").write_text(json.dumps(doc))
        for args, digest in (
                (["--secret", "-1"],
                 "8d664a99616af3dad1d10d3c9090a076737fccda91baa64bf1320633f33eeafd"),
                (["--secret", "+1", "--format", "csv"],
                 "29806daef60cd43bcc20c40c86d69be62e327eaa8dfeefe29049340a8ab42ec7")):
            res = runner.invoke(cli, ["sample-shares", "--witness", "wit12.json", *args,
                                      "--count", "200", "--seed", "12345"])
            assert res.exit_code == 0, res.output
            assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest


class TestSymcheb:
    def test_pw_report(self, runner):
        doc = run_json(runner, ["symcheb", "pw", "--n", "8", "--K", "2", "--w", "1"])
        assert doc["result"]["reflection_identity"] is True
        assert len(doc["result"]["zeros"]) == 2

    def test_truncation_check(self, runner):
        doc = run_json(
            runner,
            ["symcheb", "pw", "--n", "128", "--K", "2", "--w", "0",
             "--check", "truncation", "--k", "1"],
        )
        r = doc["result"]
        assert r["certified_error_float"] <= r["error_bound_float"]

    def test_circle_check(self, runner):
        doc = run_json(
            runner,
            ["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1",
             "--check", "circle", "--eps", "1/10"],
        )
        assert doc["result"]["circle_max_rel_error_float"] == 0.0

    def test_product_cap_check(self, runner):
        doc = run_json(
            runner,
            ["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1",
             "--check", "product-cap", "--eps", "1/100"],
        )
        assert doc["result"]["product_cap_holds"] is True


class TestApproxDegree:
    def test_negative_eps_exits_2_with_one_line(self, runner):
        result = runner.invoke(cli, ["approx-degree", "--f", "and", "--n", "8", "--eps", "-1"])
        assert result.exit_code == 2
        assert result.output.strip() == "Error: epsilon must be nonnegative, got -1"

    def test_and(self, runner):
        doc = run_json(runner, ["approx-degree", "--f", "and", "--n", "4"])
        assert doc["result"]["approx_degree"] == 2

    def test_parity(self, runner):
        doc = run_json(runner, ["approx-degree", "--f", "parity", "--n", "4"])
        assert doc["result"]["approx_degree"] == 4

    def test_custom_predicate(self, runner, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text(json.dumps({"n": 4, "values": [0, 1, 0, 1, 0]}))
        doc = run_json(runner, ["approx-degree", "--f", str(path)])
        assert doc["result"]["approx_degree"] == 4


def _count_grid_solves(monkeypatch) -> list[int]:
    """Record the degree of every minimax solve (approxlab reads
    ``simplex.solve_minimax`` at call time)."""
    degrees: list[int] = []
    solve = simplex.solve_minimax

    def counting(points, values, degree):
        degrees.append(degree)
        return solve(points, values, degree)

    monkeypatch.setattr(simplex, "solve_minimax", counting)
    return degrees


class TestMinimaxSolvedOnce:
    def test_approx_degree_solves_each_degree_up_to_the_answer(self, runner, monkeypatch):
        degrees = _count_grid_solves(monkeypatch)
        doc = run_json(runner, ["approx-degree", "--f", "maj", "--n", "40"])
        assert doc["result"]["approx_degree"] == 11
        assert degrees == list(range(12))

    def test_weight_bound_solves_no_degree_twice(self, runner, monkeypatch):
        degrees = _count_grid_solves(monkeypatch)
        doc = run_json(runner, ["weight-bound", "--f", "or", "--n", "12", "--K", "5",
                                "--no-construct"])
        assert doc["result"]["lower"]["certificate_degree"] == 2
        assert degrees == list(range(4))


class TestWeightBound:
    def test_infeasible_budget_exits_2_with_one_line(self, runner):
        result = runner.invoke(cli, ["weight-bound", "--f", "maj", "--n", "12", "--K", "3"])
        assert result.exit_code == 2
        assert len(result.output.strip().splitlines()) == 1
        assert "cannot reach error 1/3" in result.output

    def test_and8(self, runner):
        doc = run_json(
            runner, ["weight-bound", "--f", "and", "--n", "8", "--K", "4"]
        )
        assert "construct" in doc["result"] and "lower" in doc["result"]

    @pytest.mark.parametrize(
        "args",
        [
            ["--f", "const.json", "--K", "2"],
            ["--f", "maj", "--n", "8", "--K", "2", "--eps", "2"],
        ],
    )
    def test_degree_zero_reports_no_certificate(self, runner, tmp_path, monkeypatch, args):
        # a constant already meets eps, so no witness certifies a floor
        monkeypatch.chdir(tmp_path)
        (tmp_path / "const.json").write_text(json.dumps({"n": 6, "values": [1] * 7}))
        doc = run_json(runner, ["weight-bound", *args])
        assert doc["result"]["lower"] == {
            "certificate_degree": None,
            "certificate_error": None,
            "weight_lower_bound": "0/1",
            "weight_lower_bound_float": 0.0,
        }

    def test_maj24_reports_without_expanding_the_approximant(self, runner):
        # 9740686 parity terms: the report comes from the per-size coefficients
        doc = run_json(runner, ["weight-bound", "--f", "maj", "--n", "24", "--K", "12"])
        construct = doc["result"]["construct"]
        assert Fraction(construct["certified_error"]) <= Fraction(1, 3)
        assert construct["degree"] <= 12

    def test_infinite_floor_beside_a_construction_exits_3(self, runner, monkeypatch):
        # "no weight suffices" contradicts a constructed approximant
        monkeypatch.setattr("dualshare.weightdeg.weight_lower_bound", lambda *args: math.inf)
        result = runner.invoke(cli, ["weight-bound", "--f", "and", "--n", "8", "--K", "4"])
        assert result.exit_code == 3
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("property violated: ")
        assert lines[0].endswith("fell below the certified floor inf")


class TestConsolidate:
    def test_roundtrip(self, runner, tmp_path):
        import json as _json

        d = point_mass(4, 2)
        path = tmp_path / "d.json"
        path.write_text(_json.dumps(dist_to_json(d)))
        doc = run_json(runner, ["consolidate", "--dist", str(path), "--t", "2"])
        assert doc["result"]["consolidated"]["weight_probs"] == ["2/3", "1/3", "0/1"]

    def test_indivisible(self, runner, tmp_path):
        import json as _json

        d = uniform_distribution(5)
        path = tmp_path / "d.json"
        path.write_text(_json.dumps(dist_to_json(d)))
        result = runner.invoke(cli, ["consolidate", "--dist", str(path), "--t", "2"])
        assert result.exit_code == 2


class TestIndistCheck:
    def _pair_files(self, tmp_path):
        import json as _json
        from fractions import Fraction

        even = SymmetricDistribution.of(
            4, [Fraction(1, 8), 0, Fraction(6, 8), 0, Fraction(1, 8)]
        )
        odd = SymmetricDistribution.of(4, [0, Fraction(4, 8), 0, Fraction(4, 8), 0])
        p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
        p1.write_text(_json.dumps(dist_to_json(even)))
        p2.write_text(_json.dumps(dist_to_json(odd)))
        return p1, p2

    def test_true_claim(self, runner, tmp_path):
        p1, p2 = self._pair_files(tmp_path)
        doc = run_json(
            runner,
            ["indist-check", "--dist1", str(p1), "--dist2", str(p2),
             "--k", "3", "--K", "4"],
        )
        assert doc["result"]["perfectly_k_wise"] is True

    def test_false_claim_exits_3(self, runner, tmp_path):
        p1, p2 = self._pair_files(tmp_path)
        result = runner.invoke(
            cli, ["indist-check", "--dist1", str(p1), "--dist2", str(p2), "--k", "4"]
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("offset, code", [(1, 3), (-1, 0)])
    def test_distance_a_hair_from_the_bound(self, runner, tmp_path, monkeypatch, offset, code):
        # the bound at k = 3, K = 4 to 60 digits, moved by 1e-40: a double
        # reads both distances as the bound, the exact verdict does not
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = 60
            beta = 5 * 8 * Decimal(4).sqrt() * (-Decimal(9) / 4624).exp()
        dist = Fraction(beta) + Fraction(offset, 10**40)
        monkeypatch.setattr("dualshare.boolcube.stat_distance_symmetric", lambda a, b: dist)
        p1, p2 = self._pair_files(tmp_path)
        result = runner.invoke(cli, ["indist-check", "--dist1", str(p1), "--dist2", str(p2),
                                     "--k", "3", "--K", "4"])
        assert result.exit_code == code, result.output
        if code:
            assert "exceeds the bound" in result.output
        else:
            assert json.loads(result.output)["result"]["projections"][0]["within_bound"] is True


class TestIntrospection:
    def test_list_commands(self, runner):
        result = runner.invoke(cli, ["--list-commands"])
        assert result.exit_code == 0
        schema = json.loads(result.output)
        assert {"dual-and", "ramp", "approx-degree", "sample-shares",
                "weight-bound", "consolidate", "indist-check", "symcheb"} <= set(schema)
        params = {name: {p["name"] for p in cmd["params"]} for name, cmd in schema.items()}
        assert not any("threads" in names for names in params.values())
        assert [name for name, names in params.items() if "seed" in names] == ["sample-shares"]
        # a group's subcommands are listed by their full invocation
        assert params["symcheb"] == set()
        assert {"n", "big_k", "w", "check", "trunc_k", "eps"} <= params["symcheb pw"]
        assert schema["symcheb pw"]["help"].startswith("Build the exact-weight test polynomial")
        # a required option without a default reports none
        for cmd in schema.values():
            for p in cmd["params"]:
                if p["required"]:
                    assert p["default"] is None, p

    def test_out_dir_env(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALSHARE_OUT_DIR", str(tmp_path))
        res = runner.invoke(cli, ["ramp", "--k", "1", "--K", "2", "--out", "r.json"])
        assert res.exit_code == 0
        assert (tmp_path / "r.json").exists()

    def test_csv_format(self, runner):
        result = runner.invoke(cli, ["ramp", "--k", "1", "--K", "2", "--format", "csv"])
        assert result.exit_code == 0
        assert "radicand,1/32" in result.output.replace('"', "")


_LIST_COMMANDS_DIGEST = "eaa7295603e8ac580f47c6910ddc923e1983c435924469b13797995638dc4e86"
_COMMANDS = (["dual-and"], ["sample-shares"], ["symcheb"], ["symcheb", "pw"],
             ["approx-degree"], ["ramp"], ["weight-bound"], ["consolidate"],
             ["indist-check"])


class TestParsingPinned:
    """The schema bytes and the parsing rules the tests and workloads rely
    on, pinned while click still parsed the command line."""

    def test_list_commands_digest(self, runner):
        res = runner.invoke(cli, ["--list-commands"])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == _LIST_COMMANDS_DIGEST

    def test_a_value_may_start_with_a_dash(self, runner):
        result = runner.invoke(cli, ["approx-degree", "--f", "and", "--n", "4",
                                     "--eps", "-1/3"])
        assert result.exit_code == 2
        assert result.output.strip() == "Error: epsilon must be nonnegative, got -1/3"

    def test_equals_form_and_the_last_occurrence_wins(self, runner):
        doc = run_json(runner, ["ramp", "--k=1", "--K", "2", "--K", "3"])
        assert (doc["config"]["k"], doc["config"]["K"]) == (1, 3)

    def test_the_last_switch_wins(self, runner):
        doc = run_json(runner, ["weight-bound", "--f", "and", "--n", "4", "--K", "3",
                                "--no-lower", "--lower"])
        assert doc["config"]["lower"] is True and "lower" in doc["result"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["ramp", "--k", "1", "--K", "2", "--fin"], "No such option '--fin'"),
            (["ramp", "--k", "1", "--K", "2", "--n"], "Option '--n' requires an argument."),
            (["ramp", "--k", "1", "--K", "2", "--finite=1"],
             "Option '--finite' does not take a value."),
            (["ramp", "--k", "1", "--K", "2", "extra"], "Got unexpected extra argument (extra)"),
            (["dual-and", "--n", "2"], "Missing option '--d'."),
            (["dual-and", "--n", "2", "--d", "1", "--bogus"], "No such option '--bogus'."),
            (["dual-and", "--n", "x", "--d", "1"],
             "Invalid value for '--n': 'x' is not a valid integer."),
            (["sample-shares", "--witness", "nope.json", "--secret", "+1"],
             "Invalid value for '--witness': Path 'nope.json' does not exist."),
            (["sample-shares", "--witness", "nope.json", "--secret", "0"],
             "Invalid value for '--witness': Path 'nope.json' does not exist."),
            (["sample-shares", "--witness", "wit.json", "--secret", "+1", "--count", "0"],
             "Invalid value for '--count': 0 is not in the range x>=1."),
            (["symcheb", "pw", "--n", "16", "--K", "2", "--w", "1", "--check", "nope"],
             "Invalid value for '--check': 'nope' is not one of 'bounded', 'truncation', "
             "'circle', 'product-cap'."),
            (["ramp", "--k", "1", "--K", "2", "--format=xml"],
             "Invalid value for '--format': 'xml' is not one of 'json', 'csv'."),
            (["no-such-command"], "No such command 'no-such-command'."),
            (["symcheb", "nope"], "No such command 'nope'."),
        ],
    )
    def test_usage_error_is_one_line(self, runner, tmp_path, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "wit.json").write_text("{}")
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: {message}"), result.output

    def test_version(self, runner):
        result = runner.invoke(cli, ["--version"])
        assert result.exit_code == 0
        assert result.output == "dualshare, version 0.1.0\n"

    @pytest.mark.parametrize("args, digest", [
        ([], "8d8df97f4561543e20a56742881cddc585fabcbe065527df15256b9367d90f9a"),
        (["--help"], "8d8df97f4561543e20a56742881cddc585fabcbe065527df15256b9367d90f9a"),
        (["dual-and", "--help"],
         "a3b4d740b7b4080c626c376ee23d1d71550c05878f266d077912ec5a36ad7b7a"),
        (["sample-shares", "--help"],
         "a92454a81502ba9936c8b8e3c15434df5a6c5522bdcc510cd1151a1c571e76fb"),
        (["symcheb", "--help"],
         "4c68078253a31f22d3384c9e8e2759499a9c9c079690d28a42fba37f41616ea8"),
        (["symcheb", "pw", "--help"],
         "48e98e656f11a55ac01a83bb33d463cc30e32100e6e80237c6295f9266a160dd"),
        (["approx-degree", "--help"],
         "89c1e683562de39f54c5d00140c9691ae0e7d314a0c9a7786a831a54fcfec565"),
        (["ramp", "--help"],
         "6fdf79a91055522b1844436d9a144de18b040428bb151b51c98037f6afbed0d3"),
        (["weight-bound", "--help"],
         "3fa48a5d4c2259c32b3fe5cb61d68f7a466a354a6ba35d97d7f5efcd581c9ced"),
        (["consolidate", "--help"],
         "4f9ac261e859790a17a5aa4282c4f9a2617ef6acb4fd6a6b1b21b076b14c5cfe"),
        (["indist-check", "--help"],
         "c49d01a5df08d6402b6d5e6adbd848feea05cb96c0a85ca917aa94118dee880e"),
    ])
    def test_help_digest(self, runner, args, digest):
        res = runner.invoke(cli, args)
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

    @pytest.mark.parametrize("command", [[], *_COMMANDS])
    def test_help_exits_0(self, runner, command):
        result = runner.invoke(cli, [*command, "--help"])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("Usage: dualshare ")
        entry = cli
        for name in command:
            entry = entry.commands[name]
        assert f"\n  {entry.help}\n" in result.output


def test_a_bare_group_shows_its_help(runner):
    result = runner.invoke(cli, [])
    assert result.exit_code == 0 and result.output.startswith("Usage: dualshare [OPTIONS]")
    result = runner.invoke(cli, ["symcheb"])  # a group without its command is a usage error
    assert result.exit_code == 2 and result.output.startswith("Usage: dualshare symcheb")


def test_a_directory_is_not_an_input_file(runner, tmp_path):
    result = runner.invoke(cli, ["consolidate", "--dist", str(tmp_path), "--t", "2"])
    assert result.exit_code == 2
    assert result.output == (f"Error: Invalid value for '--dist': "
                             f"Path {str(tmp_path)!r} is a directory.\n")


def test_dispatch_reads_each_callback_at_call_time(runner, monkeypatch):
    # a tracer rebinds the leaf callbacks after import
    calls = []
    ramp = cli.commands["ramp"]
    monkeypatch.setattr(ramp, "callback", lambda **kwargs: calls.append(kwargs))
    assert runner.invoke(cli, ["ramp", "--k", "1", "--K", "2"]).exit_code == 0
    assert calls == [{"k": 1, "big_k": 2, "n": None, "finite": False,
                      "out": None, "fmt": "json"}]

_INPUT_FILES = {
    "pred-nokey.json": {"n": 3},
    "pred-short.json": {"n": 4, "values": [0, 0, 0, 1]},
    "dist-nokey.json": {"n": 4},
    "dist-short.json": {"n": 4, "weight_probs": ["1/2", "1/2"]},
    "dist-array.json": [1, 2],
    "dist-zero-den.json": {"n": 2, "weight_probs": ["1/0", "1/2", "1/4"]},
    "dist-ok.json": {"n": 2, "weight_probs": ["1/4", "1/2", "1/4"]},
    "dist-n3.json": {"n": 3, "weight_probs": ["1/8", "3/8", "3/8", "1/8"]},
    "dist-n-float.json": {"n": 2.0, "weight_probs": ["1/4", "1/2", "1/4"]},
    "dist-n-true.json": {"n": True, "weight_probs": ["1/2", "1/2"]},
    "dist-probs-float.json": {"n": 2, "weight_probs": [0.25, "1/2", "1/4"]},
    "wit-ok.json": {"config": {"n": 2, "weights": ["1", "1"], "d": "1"}},
    "wit-n-float.json": {"config": {"n": 2.7, "weights": ["1", "1"], "d": "1"}},
    "wit-n-true.json": {"config": {"n": True, "weights": ["1"], "d": "1"}},
    "wit-n-str.json": {"config": {"n": "2", "weights": ["1", "1"], "d": "1"}},
    "pred-n-float.json": {"n": 3.9, "values": [0, 0, 0, 1]},
    "pred-n-str.json": {"n": "3", "values": [0, 0, 0, 1]},
    "pred-n-true.json": {"n": True, "values": [0, 1]},
    "pred-values-mixed.json": {"n": 3, "values": [0, 1, True, 0.5]},
    "pred-values-str.json": {"n": 3, "values": "0001"},
    "pred-values-not-01.json": {"n": 3, "values": [0, 5, -2, 1]},
    "wit-float-bool.json": {"config": {"n": 2, "weights": [0.1, True], "d": 0.1}},
    "wit-weights-float.json": {"config": {"n": 2, "weights": [0.5, 1], "d": "1"}},
    "wit-weights-true.json": {"config": {"n": 2, "weights": ["1", True], "d": "1"}},
    "wit-weights-str.json": {"config": {"n": 2, "weights": "11", "d": "1"}},
    "wit-d-float.json": {"config": {"n": 2, "weights": ["1", "1"], "d": 0.5}},
    "wit-d-int.json": {"config": {"n": 2, "weights": ["1", "1"], "d": 1}},
}
# one valid run of each command that draws no random bits, and of the one that does
_DETERMINISTIC_RUNS = (
    ["dual-and", "--n", "2", "--d", "1"],
    ["symcheb", "pw", "--n", "16", "--K", "2", "--w", "1"],
    ["approx-degree", "--f", "and", "--n", "4"],
    ["ramp", "--k", "1", "--K", "2"],
    ["weight-bound", "--f", "and", "--n", "8", "--K", "4"],
    ["consolidate", "--dist", "dist-ok.json", "--t", "2"],
    ["indist-check", "--dist1", "dist-ok.json", "--dist2", "dist-ok.json", "--k", "1"],
)
_SAMPLE_RUN = ["sample-shares", "--witness", "wit-ok.json", "--secret", "+1"]


@pytest.mark.parametrize(
    "args",
    [
        ["approx-degree", "--f", "and", "--n", "2000"],
        ["approx-degree", "--f", "and", "--n", "-3"],
        ["ramp", "--k", "2", "--K", "9", "--n", "64", "--finite"],
        ["symcheb", "pw", "--n", "256", "--K", "4", "--w", "2",
         "--check", "truncation", "--k", "-1"],
        ["approx-degree", "--f", "pred-nokey.json"],
        ["approx-degree", "--f", "pred-short.json"],
        ["weight-bound", "--f", "pred-short.json", "--K", "2"],
        ["consolidate", "--dist", "dist-nokey.json", "--t", "2"],
        ["consolidate", "--dist", "dist-short.json", "--t", "2"],
        ["consolidate", "--dist", "dist-zero-den.json", "--t", "2"],
        ["indist-check", "--dist1", "dist-array.json", "--dist2", "dist-ok.json",
         "--k", "1"],
        ["indist-check", "--dist1", "dist-short.json", "--dist2", "dist-ok.json",
         "--k", "1"],
        ["sample-shares", "--witness", "dist-array.json", "--secret", "+1"],
        ["approx-degree", "--f", "and", "--n", "0"],
        ["symcheb", "pw", "--n", "0", "--K", "0", "--w", "0"],
        ["approx-degree", "--f", "nope.json", "--n", "4"],
        ["ramp", "--k", "1", "--K", "2", "--finite"],
        ["symcheb", "pw", "--n", "64", "--K", "2", "--w", "1", "--check", "truncation"],
        ["dual-and", "--n", "2", "--d", "x"],
        ["dual-and", "--n", "2", "--weights", "1,1,1", "--d", "1"],
        ["approx-degree", "--f", "exact-half", "--n", "3"],
        ["approx-degree", "--f", "nand", "--n", "3"],
        ["approx-degree", "--f", "and"],
        ["indist-check", "--dist1", "dist-ok.json", "--dist2", "dist-n3.json", "--k", "1"],
        ["indist-check", "--dist1", "dist-ok.json", "--dist2", "dist-ok.json", "--k", "1",
         "--K", "5"],
        ["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1", "--check", "product-cap",
         "--eps", "-1"],
        ["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1", "--check", "product-cap",
         "--eps", "-1000"],
        # malformed invocations that the parser itself rejects
        ["dual-and", "--n", "abc", "--d", "1"],
        ["ramp", "--k", "1"],
        ["indist-check", "--dist1", "nope.json", "--dist2", "dist-ok.json", "--k", "1"],
        ["no-such-command"],
        ["dual-and", "--n", "2", "--d", "1", "--bogus"],
        ["symcheb", "pw", "--n", "16", "--K", "2", "--w", "1", "--check", "nope"],
        ["symcheb", "nope"],
        # options that changed no output are gone
        *[[*base, "--threads", "1"] for base in (*_DETERMINISTIC_RUNS, _SAMPLE_RUN)],
        *[[*base, "--seed", "3"] for base in _DETERMINISTIC_RUNS],
        # a witness config n that is not a JSON integer
        ["sample-shares", "--witness", "wit-n-float.json", "--secret", "+1"],
        ["sample-shares", "--witness", "wit-n-true.json", "--secret", "+1"],
        ["sample-shares", "--witness", "wit-n-str.json", "--secret", "+1"],
        # predicate-file n and values that are not JSON integers
        ["approx-degree", "--f", "pred-n-float.json"],
        ["approx-degree", "--f", "pred-n-str.json"],
        ["approx-degree", "--f", "pred-n-true.json"],
        ["approx-degree", "--f", "pred-values-mixed.json"],
        ["approx-degree", "--f", "pred-values-str.json"],
        ["weight-bound", "--f", "pred-n-float.json", "--K", "2"],
        ["weight-bound", "--f", "pred-values-mixed.json", "--K", "2"],
        # distribution-file n that is not a JSON integer, probabilities that
        # are not rational strings
        *[cmd for name in ("n-float", "n-true", "probs-float") for cmd in (
            ["consolidate", "--dist", f"dist-{name}.json", "--t", "1"],
            ["indist-check", "--dist1", f"dist-{name}.json", "--dist2", f"dist-{name}.json",
             "--k", "1"])],
        # witness config weights and d that are not rational strings
        *[["sample-shares", "--witness", f"wit-{name}.json", "--secret", "+1"]
          for name in ("float-bool", "weights-float", "weights-true", "weights-str",
                       "d-float", "d-int")],
        # predicate-file values other than 0 and 1
        ["approx-degree", "--f", "pred-values-not-01.json"],
        # an empty or non-integer --K is not the default projection set
        *[["indist-check", "--dist1", "dist-ok.json", "--dist2", "dist-ok.json", "--k", "1",
           "--K", big_ks] for big_ks in ("", "2,", "x")],
        # the truncation bound divides by K, and n = 16 < 64K would warn first
        ["symcheb", "pw", "--n", "16", "--K", "0", "--w", "0", "--check", "truncation",
         "--k", "1"],
        ["symcheb", "pw", "--n", "16", "--K", "2", "--w", "1", "--check", "truncation",
         "--k", "-1"],
        # n outside 1..1000 is rejected before any work, on either half of weight-bound
        ["weight-bound", "--f", "and", "--n", "2000", "--K", "3"],
        ["weight-bound", "--f", "and", "--n", "2000", "--K", "3", "--no-lower"],
        ["weight-bound", "--f", "and", "--n", "0", "--K", "3"],
        ["approx-degree", "--f", "maj", "--n", "-2"],
        ["ramp", "--k", "2", "--K", "4", "--n", "0", "--finite"],
    ],
)
def test_invalid_input_exits_2_with_one_line(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    for name, doc in _INPUT_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    result = runner.invoke(cli, args)
    assert result.exit_code == 2, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output


def test_predicate_file_length_must_be_n_plus_1(runner, tmp_path):
    path = tmp_path / "pred.json"
    path.write_text(json.dumps({"n": 4, "values": [0, 0, 0, 1]}))
    result = runner.invoke(cli, ["approx-degree", "--f", str(path)])
    assert result.exit_code == 2
    assert result.output.strip() == "Error: predicate file has 4 values for n=4"


def test_missing_predicate_file_names_the_file(runner, tmp_path):
    path = tmp_path / "absent.json"
    result = runner.invoke(cli, ["weight-bound", "--f", str(path), "--K", "2"])
    assert result.exit_code == 2
    assert result.output.strip() == (
        f"Error: cannot read predicate file {str(path)!r}: No such file or directory"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["dual-and", "--n", "2", "--d", "1", "--emit", "wit.json"],
        ["symcheb", "pw", "--n", "16", "--K", "2", "--w", "1", "--json", "pw.json"],
    ],
)
def test_removed_out_aliases_are_unknown_options(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert f"No such option '{args[-2]}'" in result.output
    assert not os.listdir(tmp_path)


def _subprocess_env() -> dict:
    """This environment, with the package's source first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH")) if p))


def test_a_closed_stdout_ends_quietly_with_exit_1(tmp_path):
    # the reader of a pipe may stop early, as ``| head`` does
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "dualshare.cli", "ramp", "--k", "1",
                               "--K", "2"], stdout=write_end, stderr=subprocess.PIPE,
                              cwd=tmp_path, env=_subprocess_env())
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def _run_capturing(args):
    """(exit code, stdout, stderr) of ``main`` run in this process; an uncaught
    exception is exit 1 with its traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def _zeroed(doc):
    doc["result"]["witness"]["values"] = ["0/1"] * len(doc["result"]["witness"]["values"])
    doc["result"]["epsilon"] = "9/1"


def _respelled(doc):
    # every value written over a doubled denominator: the same witness
    doc["result"]["witness"]["values"] = [
        f"{2 * Fraction(v).numerator}/{2 * Fraction(v).denominator}"
        for v in doc["result"]["witness"]["values"]]


def _off_parity(doc):
    # per Hamming-weight class of n = 4, numerators [25, -10, 1, 2, 1] over
    # 2^4 |H| = 80: pure below degree 2 (sum C(4,j) v_j = 0, and the same with
    # 4 - 2j), unit L1 norm, phi(0) = epsilon = 5/16, but positive on the odd
    # class j = 3, so a share of secret -1 could be drawn where phi > 0
    by_weight = ["5/16", "-1/8", "1/80", "1/40", "1/80"]
    doc["result"]["witness"]["values"] = [by_weight[x.bit_count()] for x in range(16)]


def _false_claims(doc, representation):
    # a valid file with every claim of its result rewritten
    result = doc["result"]
    result.update({"l1_norm": "7/1", "correlation": "-3/1"})
    result["witness"]["representation"] = representation


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return edit


# (edit of a valid dual-and --n 4 --d 2 file, exit code of sample-shares on it),
# or (edit, exit code, d) for a file that dual-and wrote with another d
_WITNESS_FILES = {
    "valid": (lambda doc: None, 0),
    "respelled": (_respelled, 0),
    "zeroed": (_zeroed, 3),
    "config-only": (lambda doc: doc.pop("result"), 2),
    "no-witness": (lambda doc: doc["result"].pop("witness"), 2),
    "one-value-moved": (_set("result", "witness", "values", 5, "1/7"), 3),
    "one-value-not-rational": (_set("result", "witness", "values", 5, "x"), 2),
    "values-short": (_set("result", "witness", "values", lambda v: v[:-1]), 2),
    "values-not-a-list": (_set("result", "witness", "values", "0/1"), 2),
    "epsilon-wrong": (_set("result", "epsilon", "1/2"), 3),
    "epsilon-malformed": (_set("result", "epsilon", "1/0"), 2),
    # a d = 3 witness is pure below 3, so it certifies the weaker claim d = 2
    "d-3-claimed-as-2": (_set("config", "d", "2"), 0, "3"),
    "d-2-claimed-as-3": (_set("config", "d", "3"), 3),
    # |H| = epsilon * 2^n must be an integer >= 1
    "epsilon-zero": (_set("result", "epsilon", "0/1"), 3),
    "epsilon-times-2^n-not-an-integer": (_set("result", "epsilon", "1/3"), 3),
    "signs-off-parity": (_off_parity, 3),
    # 1/40 = 2/80 scales to an integer, but mask 5's class holds 1/80
    "one-value-off-its-class": (_set("result", "witness", "values", 5, "1/40"), 3),
    # mask 15 alone holds 9/80; 9/560 scales to 9/7, whose numerator is 9
    "value-off-the-lattice": (_set("result", "witness", "values", 15, "9/560"), 3),
    # the result's own claims must be what the check finds
    "representation-other": (_set("result", "witness", "representation", "banana"), 2),
    "l1_norm-wrong": (_set("result", "l1_norm", "7/1"), 3),
    "l1_norm-malformed": (_set("result", "l1_norm", "one"), 2),
    "correlation-wrong": (_set("result", "correlation", "-3/1"), 3),
    "every-claim-false": (lambda doc: _false_claims(doc, "banana"), 2),
    "every-claim-false-but-the-representation": (lambda doc: _false_claims(doc, "cube"), 3),
    # the reader parses one value per class (the last of its masks, here 8 and
    # 12 for weights 1 and 2) and compares the rest as text: a value that is no
    # rational string exits 2 wherever it sits
    "an-int-inside-a-class": (_set("result", "witness", "values", 5, 5), 2),
    "a-list-inside-a-class": (_set("result", "witness", "values", 6, ["1/80"]), 2),
    "null-inside-a-class": (_set("result", "witness", "values", 9, None), 2),
    "an-int-at-a-class's-last-mask": (_set("result", "witness", "values", 12, 5), 2),
    "a-list-at-a-class's-last-mask": (_set("result", "witness", "values", 8, []), 2),
    "off-its-class-at-the-last-mask": (_set("result", "witness", "values", 12, "1/40"), 3),
    "off-its-class-at-the-first-mask": (_set("result", "witness", "values", 3, "1/40"), 3),
    "off-its-class-then-not-rational": (
        lambda doc: [_set("result", "witness", "values", mask, text)(doc)
                     for mask, text in ((5, "1/40"), (6, "x"))], 2),
    # one class spelled two ways is still constant on it
    "respelled-at-one-mask": (_set("result", "witness", "values", 5, "2/160"), 0),
    # keys that restate another are not read: a wrong one changes no draw,
    # and |H| comes from epsilon alone
    "witness-n-wrong": (_set("result", "witness", "n", 5), 0),
    "claimed-degree-too-high": (_set("result", "witness", "claimed_degree", "9/1"), 0),
    "H_size-wrong": (_set("result", "H_size", 7), 0),
    "Z-wrong": (_set("result", "Z", "0/1"), 0),
    "purity-false": (_set("result", "pure_high_degree_strictly_below_d", False), 0),
    "H_size-and-epsilon-zero": (lambda doc: [_set("result", key, value)(doc) for key, value
                                             in (("H_size", 0), ("epsilon", "0/1"))], 3),
}


class TestExitContract:
    """Inputs that once ended in a traceback or a wrong exit 0, run in process:
    each ends with its exit code, with one line on stderr when it fails."""

    @pytest.mark.parametrize("args, code", [
        (["weight-bound", "--f", "maj", "--n", "8", "--K", "2", "--eps", "0"], 2),
        (["weight-bound", "--f", "maj", "--n", "8", "--K", "8", "--eps", "0"], 0),
        # supp/eps beyond the range of a double: no trend exponent, and the
        # construction decides as for any eps
        (["weight-bound", "--f", "and", "--n", "8", "--K", "4", "--eps", "1e-400"], 2),
        (["weight-bound", "--f", "and", "--n", "8", "--K", "4", "--eps", "1e400"], 0),
        *[(["symcheb", "pw", "--n", "256", "--K", "4", "--w", "1", "--check", "circle",
            "--eps", eps], 0) for eps in ("1e-9", "1e-20", "1/10000", "1e-7")],
        (["symcheb", "pw", "--n", "1024", "--K", "8", "--w", "1", "--check", "circle",
          "--eps", "1e9"], 0),
        # 997 bits below the bar: inside the product-cap check's domain
        (["symcheb", "pw", "--n", "128", "--K", "2", "--w", "1", "--check", "product-cap",
          "--eps", "1e-300"], 0),
        (["ramp", "--k", "1", "--K", "5000"], 2),
    ], ids=["eps0-K2", "eps0-K8", "wb-1e-400", "wb-1e400", "circle-1e-9", "circle-1e-20",
            "circle-1e-4", "circle-1e-7", "circle-1e9-K8", "product-cap-1e-300",
            "ramp-K5000-unprintable"])
    def test_command_lines(self, args, code):
        got, out, err = _run_capturing(args)
        assert (got, "Traceback" in err) == (code, False), err
        assert len(err.splitlines()) == (1 if code else 0), err
        if args[0] == "ramp":
            assert "--K" in err

    # K = 3574 is the first K (at k = 1) whose exact radicand has more than
    # 4300 digits, the interpreter's default limit on printing an integer
    @pytest.mark.parametrize("big_k, code", [("3573", 0), ("3574", 2)])
    def test_ramp_radicand_too_long_to_print_is_refused_naming_K(self, big_k, code):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            got, out, err = _run_capturing(["ramp", "--k", "1", "--K", big_k])
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == code, err
        if code:
            assert (out, err) == ("", f"Error: --K={big_k} gives an exact radicand of more "
                                      "than 4300 digits, too long to print\n")

    # (1+eps)^2K (1+delta)^2K >= 2^1024, or eps of more than 1024 bits above or
    # below the fraction bar: refused before route A evaluates any point
    @pytest.mark.parametrize("n, big_k, eps", [("1024", "8", "1e10"), ("1024", "8", "7e9"),
                                               ("64", "1", "1e200"), ("256", "4", "1e9999"),
                                               ("256", "4", "1e-400"), ("256", "4", "1e-9999")])
    def test_circle_eps_outside_the_domain_is_refused_before_any_point(self, monkeypatch, n,
                                                                       big_k, eps):
        monkeypatch.setattr(symcheb, "_eval_abs_squared_exact",
                            lambda *a: pytest.fail("a point was evaluated"))
        got, out, err = _run_capturing(["symcheb", "pw", "--n", n, "--K", big_k, "--w", "1",
                                        "--check", "circle", "--eps", eps])
        assert (got, out, len(err.splitlines())) == (2, "", 1), err
        assert err.startswith("Error: --eps ") and "double" not in err

    # eps of more than 1024 bits above or below the fraction bar: refused
    # before the product is formed at any grid point
    @pytest.mark.parametrize("eps", ["1e-400", "1e-9999", "1e9999"])
    def test_product_cap_eps_outside_the_domain_is_refused_before_any_point(self, monkeypatch,
                                                                            eps):
        monkeypatch.setattr(symcheb, "shifted_square",
                            lambda *a: pytest.fail("a grid point was evaluated"))
        got, out, err = _run_capturing(["symcheb", "pw", "--n", "512", "--K", "8", "--w", "1",
                                        "--check", "product-cap", "--eps", eps])
        assert (got, out, len(err.splitlines())) == (2, "", 1), err
        assert err.startswith("Error: --eps ") and "product-cap" in err

    # a distribution file's n is capped at 1000, the largest n ramp --finite
    # writes: a larger n exits 2 before any consolidation or k-wise check
    @pytest.mark.parametrize("n, code", [(1000, 0), (1001, 2), (10**5, 2)])
    @pytest.mark.parametrize("args", [
        ["consolidate", "--dist", "d.json", "--t", "2"],
        ["indist-check", "--dist1", "d.json", "--dist2", "d.json", "--k", "1", "--K", "2"],
    ], ids=["consolidate", "indist-check"])
    def test_distribution_n_is_capped_before_any_work(self, tmp_path, monkeypatch, n, code,
                                                      args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.json").write_text(json.dumps(
            {"n": n, "weight_probs": ["1/2", *["0"] * (n - 1), "1/2"]}))
        calls = []
        for module, name in ((approxlab, "consolidate_and"),
                             (boolcube, "kwise_indistinguishable")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, real=real: calls.append(a) or real(*a))
        got, out, err = _run_capturing(args)
        assert (got, len(err.splitlines()), bool(calls)) == (code, bool(code), not code), err
        if code:
            assert (out, err) == ("", f"Error: distribution n={n} exceeds the cap n <= 1000\n")

    @pytest.mark.parametrize("big_ks", ["x", "0", "-1", "5", "2,5", "3,x"])
    @pytest.mark.parametrize("pair", ["indistinguishable", "distinguishable"])
    def test_indist_check_sizes_are_parsed_before_the_kwise_check(self, tmp_path, monkeypatch,
                                                                 big_ks, pair):
        # n = 4: a --K outside k < K <= n exits 2 and the k-wise check never
        # runs, also for a pair that would fail it with exit 3
        monkeypatch.chdir(tmp_path)
        odd = ["0", "1/2", "0", "1/2", "0"] if pair == "indistinguishable" else ["1"] + ["0"] * 4
        (tmp_path / "even.json").write_text(json.dumps(
            {"n": 4, "weight_probs": ["1/8", "0", "3/4", "0", "1/8"]}))
        (tmp_path / "odd.json").write_text(json.dumps({"n": 4, "weight_probs": odd}))
        calls, check = [], boolcube.kwise_indistinguishable
        monkeypatch.setattr(boolcube, "kwise_indistinguishable",
                            lambda *args: calls.append(args) or check(*args))
        got, out, err = _run_capturing(["indist-check", "--dist1", "even.json",
                                        "--dist2", "odd.json", "--k", "1", "--K", big_ks])
        assert (got, out, len(err.splitlines()), calls) == (2, "", 1, []), err
        assert err.startswith("Error: ")

    # a --n given with a .json predicate must be the file's n
    @pytest.mark.parametrize("n, code", [("99", 2), ("6", 0)])
    @pytest.mark.parametrize("command", [["approx-degree"], ["weight-bound", "--K", "3"]],
                             ids=["approx-degree", "weight-bound"])
    def test_n_given_with_a_predicate_file_must_be_its_n(self, tmp_path, monkeypatch, command,
                                                         n, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.json").write_text(json.dumps({"n": 6, "values": [0, 0, 0, 1, 1, 1, 1]}))
        got, out, err = _run_capturing([*command, "--f", "p.json", "--n", n])
        assert (got, len(err.splitlines())) == (code, int(bool(code))), err
        if code:
            assert (out, err) == ("", "Error: --n=99 differs from the predicate file's n=6\n")
        else:
            assert json.loads(out)["config"]["n"] == 6

    # a warning is one stderr line on every run, a property-violated line
    # still comes last, and the warning settings are restored on return
    @pytest.mark.parametrize("args, code", [
        (["--n", "100", "--K", "4", "--w", "1", "--check", "bounded"], 0),
        (["--n", "1000", "--K", "64", "--w", "2", "--check", "product-cap"], 3),
    ], ids=["bounded", "product-cap"])
    def test_a_warning_is_one_stderr_line(self, args, code):
        filters, show = list(warnings.filters), warnings.showwarning
        for _ in range(2):
            got, out, err = _run_capturing(["symcheb", "pw", *args])
            lines = err.splitlines()
            assert (got, len(lines), lines[0][:11]) == (code, 1 + bool(code), "Warning: n="), err
            assert not any("UserWarning" in line or ".py" in line for line in lines), err
            if code:
                assert lines[-1].startswith("property violated: ")
        assert (warnings.filters, warnings.showwarning) == (filters, show)
        with pytest.warns(UserWarning):
            symcheb.bounded_check(symcheb.exact_weight_test(100, 4, 1))

    def test_a_warning_is_one_stderr_line_on_the_command_line(self, tmp_path):
        proc = subprocess.run([sys.executable, "-m", "dualshare.cli", "symcheb", "pw", "--n",
                               "100", "--K", "4", "--w", "1", "--check", "bounded"],
                              capture_output=True, text=True, cwd=tmp_path, env=_subprocess_env())
        assert (proc.returncode, proc.stderr) == (0, "Warning: n=100 < 64K=256: outside the "
                                                     "guaranteed range, running the check anyway\n")

    # from eps = 1/2 up the lightest constant within eps, max(0, 1 - eps),
    # competes with the constructions: 1/2 at eps = 1/2, 1/4 at 3/4, and the
    # zero polynomial from eps = 1
    @pytest.mark.parametrize("f, big_k, eps, weight, error", [
        ("maj", "8", "1", "0/1", "1/1"), ("maj", "4", "1e400", "0/1", "1/1"),
        ("and", "8", "1/2", "1/2", "1/2"), ("and", "4", "1/2", "1/2", "1/2"),
        ("maj", "8", "3/4", "1/4", "3/4"), ("and", "3", "3/4", "1/4", "3/4"),
        ("or", "3", "3/4", "1/4", "3/4"),
    ], ids=["maj-8-1", "maj-4-1e400", "and-8-1/2", "and-4-1/2", "maj-8-3/4", "and-3-3/4",
            "or-3-3/4"])
    def test_the_constant_one_half_from_eps_one_half_up(self, f, big_k, eps, weight, error):
        got, out, err = _run_capturing(["weight-bound", "--f", f, "--n", "8", "--K", big_k,
                                        "--eps", eps])
        construct = json.loads(out)["result"]["construct"]
        assert (got, construct["degree"], construct["weight"],
                construct["certified_error"]) == (0, 0, weight, error), err

    def test_zero_eps_reports_the_exact_fit_without_a_trend(self):
        _, out, _ = _run_capturing(["weight-bound", "--f", "maj", "--n", "8", "--K", "8",
                                    "--eps", "0"])
        construct = json.loads(out)["result"]["construct"]
        assert (construct["degree"], construct["weight"], construct["certified_error"],
                construct["bound_exponent_float"]) == (8, "693/128", "0/1", None)

    @pytest.mark.parametrize("name", list(_WITNESS_FILES))
    def test_sample_shares_checks_the_file_it_reads(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        edit, code, *d = _WITNESS_FILES[name]
        assert _run_capturing(["dual-and", "--n", "4", "--d", *(d or ["2"]),
                               "--out", "wit.json"])[0] == 0
        doc = json.loads((tmp_path / "wit.json").read_text())
        edit(doc)
        (tmp_path / "edited.json").write_text(json.dumps(doc))
        draw = ["sample-shares", "--secret", "-1", "--count", "20", "--seed", "3"]
        got, out, err = _run_capturing([*draw, "--witness", "edited.json"])
        assert (got, "Traceback" in err) == (code, False), err
        assert len(err.splitlines()) == (1 if code else 0), err
        if code == 0:  # the same draws as from the file dual-and wrote
            expect = _run_capturing([*draw, "--witness", "wit.json"])[1]
            assert out.replace("edited", "wit") == expect

    @pytest.mark.parametrize("args, out, message", [
        (["ramp", "--k", "1", "--K", "2"], "absent/x.json", "Directory 'absent' does not exist."),
        (["ramp", "--k", "1", "--K", "2"], "absent/", "Directory 'absent' does not exist."),
        (["dual-and", "--n", "4", "--d", "2"], "somedir", "Path 'somedir' is a directory."),
        (["dual-and", "--n", "4", "--d", "2"], ".", "Path '.' is a directory."),
        (["dual-and", "--n", "4", "--d", "2"], "fifo", "Path 'fifo' is not a regular file."),
        (["dual-and", "--n", "4", "--d", "2", "--format", "csv"], "fifo",
         "Path 'fifo' is not a regular file."),
        (["ramp", "--k", "1", "--K", "2"], "plain.txt/x.json",
         "Path 'plain.txt/x.json': Not a directory."),
        (["ramp", "--k", "1", "--K", "2"], "", "Path '' is empty."),
        (["dual-and", "--n", "4", "--d", "2", "--format", "csv"], "", "Path '' is empty."),
    ], ids=["missing-directory", "missing-directory-slash", "a-directory", "dot", "fifo",
            "fifo-csv", "file-as-directory", "empty", "empty-csv"])
    def test_an_out_that_cannot_be_a_regular_file(self, tmp_path, monkeypatch, args, out,
                                                  message):
        # exit 2 with one line before the command runs, and nothing replaced
        monkeypatch.chdir(tmp_path)
        (tmp_path / "somedir").mkdir()
        os.mkfifo(tmp_path / "fifo")
        (tmp_path / "plain.txt").write_text("kept\n")
        command = cli.commands[args[0]]
        handler, calls = command.callback, []
        monkeypatch.setattr(command, "callback",
                            lambda **kwargs: calls.append(kwargs) or handler(**kwargs))
        got, stdout, err = _run_capturing([*args, "--out", out])
        assert (got, stdout, err, calls) == (
            2, "", f"Error: Invalid value for '--out': {message}\n", [])
        assert sorted(os.listdir(tmp_path)) == ["fifo", "plain.txt", "somedir"]
        assert not os.listdir(tmp_path / "somedir")
        assert stat.S_ISFIFO(os.stat(tmp_path / "fifo").st_mode)
        assert (tmp_path / "plain.txt").read_text() == "kept\n"

    def test_an_out_under_a_missing_out_dir(self, tmp_path, monkeypatch):
        base = tmp_path / "absent"
        monkeypatch.setenv("DUALSHARE_OUT_DIR", str(base))
        got, _, err = _run_capturing(["ramp", "--k", "1", "--K", "2", "--out", "r.json"])
        assert (got, err) == (2, f"Error: Invalid value for '--out': "
                                 f"Directory {str(base)!r} does not exist.\n")

    def test_an_empty_out_under_an_out_dir(self, tmp_path, monkeypatch):
        # the empty path does not become the directory itself
        monkeypatch.setenv("DUALSHARE_OUT_DIR", str(tmp_path))
        got, out, err = _run_capturing(["ramp", "--k", "1", "--K", "2", "--out", ""])
        assert (got, out, err) == (2, "", "Error: Invalid value for '--out': Path '' is empty.\n")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("count, n, code", [
        (1_000_000_000, 4, 2), ((1 << 20) + 1, 4, 2), (1 << 20, 4, 3),
        ((1 << 22) // 10 + 1, 10, 2), ((1 << 22) // 10, 10, 3),
    ], ids=["a-billion", "one-over", "at-the-cap", "one-over-n10", "at-the-cap-n10"])
    def test_share_count_is_capped_before_the_sampler(self, tmp_path, monkeypatch, count, n,
                                                      code):
        # count * n <= 2^22 share bits; a count within the cap reaches the
        # sampler, here a stand-in that stops the run with exit 3
        monkeypatch.chdir(tmp_path)
        assert _run_capturing(["dual-and", "--n", str(n), "--d", "2", "--out", "wit.json"])[0] == 0
        built = []

        def sampler(*args):
            built.append(args)
            raise PropertyViolation("the sampler was reached")

        monkeypatch.setattr(dualand, "ShareSampler", sampler)
        got, out, err = _run_capturing(["sample-shares", "--witness", "wit.json", "--secret", "+1",
                                        "--count", str(count)])
        assert (got, out, len(err.splitlines()), "Traceback" in err) == (code, "", 1, False), err
        assert len(built) == (code == 3)
        if code == 2:
            assert err == (f"Error: Invalid value for '--count': {count} shares of {n} bits "
                           f"exceed count * n <= 2^22.\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_failed_write_exits_2_with_one_line(self, tmp_path, monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.out").write_text("kept\n")

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", disk_full)
        got, out, err = _run_capturing(["ramp", "--k", "1", "--K", "2", "--format", fmt,
                                        "--out", "r.out"])
        assert (got, out, err) == (2, "", "Error: cannot write 'r.out': "
                                          "No space left on device\n")
        assert os.listdir(tmp_path) == ["r.out"]  # no temporary file is left
        assert (tmp_path / "r.out").read_text() == "kept\n"


class TestCollectorFreeze:
    """``main()`` on the process's own command line freezes the start-up heap;
    ``main(argv)`` in a caller's process leaves the collector as it was."""

    def test_the_command_line_path_freezes(self, tmp_path):
        script = ("import gc, sys\n"
                  "from dualshare import cli\n"
                  "before = gc.get_freeze_count()\n"
                  "sys.argv = ['dualshare', 'ramp', '--k', '1', '--K', '2', '--out', 'r.json']\n"
                  "cli.main()\n"
                  "print(before, gc.get_freeze_count(), gc.isenabled())\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=tmp_path, env=_subprocess_env(), check=True)
        before, after, enabled = proc.stdout.splitlines()[-1].split()
        assert int(before) == 0 < int(after) and enabled == "True"

    @pytest.mark.parametrize("args", [["ramp", "--k", "1", "--K", "2"],
                                      ["ramp", "--k", "0", "--K", "2"], ["--help"]])
    def test_an_in_process_call_leaves_the_collector_as_it_was(self, runner, args):
        before = gc.get_freeze_count()
        runner.invoke(cli, args)
        assert (gc.get_freeze_count(), gc.isenabled()) == (before, True)


# one command per benchmark workload; the inputs are made in the directory
# above the one each command runs in
_ONE_COMMAND_PER_WORKLOAD = {
    "approx-degree": ["approx-degree", "--f", "maj", "--n", "14", "--eps", "1/3"],
    "ramp-finite": ["ramp", "--k", "2", "--K", "4", "--n", "64", "--finite"],
    "indist-check": ["indist-check", "--dist1", "../mu.json", "--dist2", "../nu.json",
                     "--k", "2", "--K", "3,5"],
    "consolidate": ["consolidate", "--dist", "../nu.json", "--t", "4"],
    "symcheb-truncation": ["symcheb", "pw", "--n", "512", "--K", "8", "--w", "2",
                           "--check", "truncation", "--k", "4"],
    "dual-and": ["dual-and", "--n", "10", "--weights", _WEIGHTS_10, "--d", "17/4"],
    "sample-shares-json": ["sample-shares", "--witness", "../wit.json", "--secret", "-1",
                           "--count", "50", "--seed", "7"],
    "sample-shares-csv": ["sample-shares", "--witness", "../wit.json", "--secret", "+1",
                          "--count", "50", "--seed", "7", "--format", "csv"],
    "weight-bound": ["weight-bound", "--f", "maj", "--n", "12", "--K", "6"],
}


@pytest.fixture(scope="module")
def workload_inputs(tmp_path_factory):
    """A directory holding a ramp pair's mu.json and nu.json and an n = 10
    witness, wit.json."""
    base = tmp_path_factory.mktemp("inputs")
    code, out, err = _run_capturing(["ramp", "--k", "2", "--K", "4", "--n", "64", "--finite"])
    assert code == 0, err
    result = json.loads(out)["result"]
    for name in ("mu", "nu"):
        (base / f"{name}.json").write_text(json.dumps(result[name]))
    code, _, err = _run_capturing(["dual-and", "--n", "10", "--weights", _WEIGHTS_10,
                                   "--d", "17/4", "--out", str(base / "wit.json")])
    assert code == 0, err
    return base


@pytest.mark.parametrize("name", list(_ONE_COMMAND_PER_WORKLOAD))
def test_the_command_line_path_writes_the_in_process_bytes(workload_inputs, monkeypatch,
                                                           name):
    # the program path freezes its heap and an in-process call does not; the
    # bytes on stdout and in --out are the same either way
    args = [*_ONE_COMMAND_PER_WORKLOAD[name], "--out", "out.data"]
    program, in_process = (workload_inputs / f"{name}-{side}" for side in ("cli", "main"))
    program.mkdir()
    in_process.mkdir()
    proc = subprocess.run([sys.executable, "-m", "dualshare.cli", *args], capture_output=True,
                          cwd=program, env=_subprocess_env())
    monkeypatch.chdir(in_process)
    code, out, err = _run_capturing(args)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (code, err) == (0, "")
    assert proc.stdout == out.encode() == b"out.data\n"
    assert (program / "out.data").read_bytes() == (in_process / "out.data").read_bytes()


@pytest.mark.parametrize("name", [name for name in _ONE_COMMAND_PER_WORKLOAD
                                  if not name.endswith("-csv")])
def test_json_on_stdout_is_the_bytes_of_the_out_file(workload_inputs, monkeypatch, name):
    # both go out piece by piece through one writer
    work = workload_inputs / f"{name}-stdout"
    work.mkdir()
    monkeypatch.chdir(work)
    args = _ONE_COMMAND_PER_WORKLOAD[name]
    code, out, err = _run_capturing(args)
    assert (code, err) == (0, "")
    assert _run_capturing([*args, "--out", "out.json"]) == (0, "out.json\n", "")
    assert (work / "out.json").read_bytes() == out.encode()
