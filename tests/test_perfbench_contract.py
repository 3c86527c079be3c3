"""The traced benchmark's contract, checked on one cycle of every workload.

``perfbench/run.py --trace 1`` exits 2 when a layer that ``perfbench/layers.json``
lists under a workload's ``work`` records no call, or when tracing changes a
payload.  A change that moves a traced function out of its module, or a
method out of the class body where the tracer finds it, breaks that run
without failing any other test.  This one drives the first cycle of each
workload through the benchmark's own runner, untraced and then traced, and
checks both conditions.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``run`` and ``workloads`` modules, which import their
    siblings by name."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import run
        import workloads
        yield run, workloads


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_cycle_records_every_working_layer_and_keeps_payloads(
        tmp_path, perfbench, workload):
    run, workloads = perfbench
    jobs = workloads.cycle(workload, workloads.DEFAULT_SEED, 0)
    runner = run.Runner(tmp_path)
    plain = runner.run_cycle(jobs)
    traced = runner.run_cycle(jobs, traced=True)
    failed = [(r.job.id, r.reason) for r in plain + traced if not r.ok]
    assert not failed, failed
    assert [r.digest for r in traced] == [r.digest for r in plain]
    stats = run.merge_traces(traced)
    work = json.loads(run.LAYERS.read_text())["workloads"][workload]["work"]
    idle = [layer for layer in work if run.layer_calls(stats, layer) == 0]
    assert not idle, f"layers listed to work on {workload} recorded no calls: {idle}"
