"""Tests of the benchmark itself: generators, metric definitions, checks, tracer."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
LAYERS = json.loads((Path(__file__).resolve().parent / "layers.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
        for index in range(6):
            assert workloads.cycle(workload, seed, index) == workloads.cycle(workload, seed, index)
    streams = {seed: [workloads.cycle(workload, seed, i) for i in range(6)]
               for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED)}
    assert streams[workloads.DEFAULT_SEED] != streams[workloads.HELDOUT_SEED]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_jobs_read_only_files_of_their_own_cycle(workload):
    for index in range(6):
        jobs = workloads.cycle(workload, 7, index)
        made = {name for job in jobs for name, _ in job.inputs}
        for job in jobs:
            assert job.id.startswith(f"c{index}.")
            assert set(job.needs) <= made
            made |= {job.out} | {name for name, _ in job.exports}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(LAYERS["workloads"]) == set(workloads.WORKLOADS)


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_end_to_end_metrics_have_unit_and_bound():
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["unit"] and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_mapped_layer_metric_is_reported():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS["layers"].values():
        assert set(layer["metrics"]) <= per_layer


def test_tail_percentile_keeps_ten_samples_beyond():
    times = [float(i) for i in range(40)]
    value, pct = run.tail_percentile(times)
    assert sum(t > value for t in times) == 10
    assert pct == 75.0


def test_exhaustive_epsilon_counts_sign_vectors():
    # uniform n=4: <w,X> >= 2 needs at most one -1 among four signs
    assert checks.exhaustive_epsilon([Fraction(1)] * 4, Fraction(2)) == Fraction(5, 16)
    assert checks.exhaustive_epsilon([Fraction(1, 2), Fraction(3, 2)], Fraction(1)) == Fraction(1, 2)


def test_share_parity_check_rejects_a_wrong_share():
    job = workloads.Job("c0.j1", ("sample-shares", "--count", "2"), "c0.j1.csv",
                        expect={"secret": "-1", "format": "csv", "n": 3})
    good = "bit_1,bit_2,bit_3\n-1,1,1\n-1,-1,-1\n"
    assert checks.check(job, good) is None
    assert "parity" in checks.check(job, good.replace("-1,-1,-1", "1,1,1"))


def test_recorder_self_time_excludes_children():
    rec = tracer.Recorder()
    inner = rec.wrap("m.inner", lambda: sum(range(20000)))

    def outer_body():
        return inner() + inner()

    outer = rec.wrap("m.outer", outer_body)
    outer()
    assert rec.stats["m.inner"]["calls"] == 2
    assert rec.stats["m.outer"]["calls"] == 1
    assert 0 <= rec.stats["m.outer"]["self_s"] < rec.stats["m.inner"]["self_s"]


def test_counter_sees_parent_span():
    rec = tracer.Recorder()
    seen = []
    leaf = rec.wrap("m.leaf", lambda: 1,
                    counter=lambda stat, parent, args, result: seen.append(parent))
    root = rec.wrap("m.root", lambda: leaf())
    leaf()
    root()
    assert seen == [None, "m.root"]
