import hashlib
import json
import math
import os

import pytest
from click.testing import CliRunner

import dualshare.simplex as simplex
from dualshare.cli import cli
from dualshare.dualand import DualAndWitness
from dualshare.serialize import dist_to_json
from dualshare.boolcube import SymmetricDistribution


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


class TestOutputBytesPinned:
    """SHA-256 of stdout, taken before the witness path, the LP behind
    ``weight-bound`` and the Sturm decisions and grid checks behind
    ``symcheb pw`` moved onto integers.  Both ``weight-bound`` inputs reach
    the aggregate LP on every block split."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["dual-and", "--n", "10", "--d", "4"],
             "7a1e46d52b28d2205e292548f47a883d6147d996310eef7e845e59912689a796"),
            (["dual-and", "--n", "10", "--weights", _WEIGHTS_10, "--d", "17/4"],
             "40273075f66f3aa97d210235675edf14f93d59bf8dedeb6d5bccf4f3fb0421c0"),
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
             "9b5de19b7cdcabf6d674d57bb170b0ccba265eeb3a8fbaf7fb3e4f5f6ba864f8"),
            (["symcheb", "pw", "--n", "512", "--K", "8", "--w", "2",
              "--check", "product-cap", "--eps", "1/100"],
             "c09a462aa79881f9a350a03cd91f49ca52b4a3016416d7e5218e0f93bcf21c17"),
        ],
    )
    def test_stdout_digest(self, runner, tmp_path, monkeypatch, args, digest):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "h11.json").write_text(
            json.dumps({"n": 12, "values": [int(h == 11) for h in range(13)]})
        )
        res = runner.invoke(cli, ["dual-and", "--n", "10", "--weights", _WEIGHTS_10,
                                  "--d", "17/4", "--out", "wit.json"])
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
            raise AssertionError("sample-shares built the 2^n witness values")

        monkeypatch.setattr(DualAndWitness, "witness", property(unavailable))
        for fmt in ("json", "csv"):
            res = runner.invoke(cli, ["sample-shares", "--witness", "wit.json",
                                      "--secret", "+1", "--count", "50", "--format", fmt])
            assert res.exit_code == 0, res.output
        # the patch is live: dual-and, which emits the values, now fails
        assert runner.invoke(cli, ["dual-and", "--n", "3", "--d", "1"]).exit_code == 1


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
        assert doc["result"]["circle_max_rel_error_float"] < 1e-8

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

        d = SymmetricDistribution.point_mass(4, 2)
        path = tmp_path / "d.json"
        path.write_text(_json.dumps(dist_to_json(d)))
        doc = run_json(runner, ["consolidate", "--dist", str(path), "--t", "2"])
        assert doc["result"]["consolidated"]["weight_probs"] == ["2/3", "1/3", "0/1"]

    def test_indivisible(self, runner, tmp_path):
        import json as _json

        d = SymmetricDistribution.uniform(5)
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


_INPUT_FILES = {
    "pred-nokey.json": {"n": 3},
    "pred-short.json": {"n": 4, "values": [0, 0, 0, 1]},
    "dist-nokey.json": {"n": 4},
    "dist-short.json": {"n": 4, "weight_probs": ["1/2", "1/2"]},
    "dist-array.json": [1, 2],
    "dist-zero-den.json": {"n": 2, "weight_probs": ["1/0", "1/2", "1/4"]},
    "dist-ok.json": {"n": 2, "weight_probs": ["1/4", "1/2", "1/4"]},
    "dist-n3.json": {"n": 3, "weight_probs": ["1/8", "3/8", "3/8", "1/8"]},
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
        # malformed invocations that click itself rejects
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
