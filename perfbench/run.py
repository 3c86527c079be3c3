"""dualshare CLI benchmark: closed loop, one client, one process per job.

Usage (from the repository root):

    python3 perfbench/run.py --workload ramp-lp --seed 1 --seconds 15 --trace 0

Both modes start with one untimed cycle.  ``--trace 0`` then runs whole
cycles until ``--seconds`` of job time (in reference seconds, below) have
passed, and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the first TRACE_CYCLES cycles three times: once
untraced, then twice with the span recorder installed in every job, and
reports the per-layer metrics.  The deterministic counters of the
two traced passes must agree exactly, every layer predicted to work on the
workload must record calls, and tracing must not change any payload.
``--workload all`` runs every workload in turn.

Reference seconds.  A shared host can change the speed it gives one process
by a factor of two within a minute, which no run length averages away.  So
before every job the benchmark times a calibration process (a bare
interpreter running fixed exact arithmetic, no dualshare code), and every
end-to-end time is scaled by CALIBRATION_REF_S / (median calibration time of
the run): a job that takes four calibrations reports 0.2 s however fast the
host was that minute.  The unscaled figures are printed on the ``info`` line.

Each job's output is checked (see checks.py).  Human-readable lines come
first; the last line of stdout is the JSON result.  The exit code is 0 when
every job passed its checks, 1 when some job failed (the result line is
still printed), and 2 when the benchmark cannot run or a trace invariant
breaks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_SCRIPT = HERE / "job.py"
GOLDEN = HERE / "golden.json"
LAYERS = HERE / "layers.json"
TRACE_CYCLES = 4
# The calibration process: a bare interpreter running fixed exact arithmetic,
# independent of dualshare.  Its wall time tracks the speed the machine gives
# the job processes at that moment.
CALIBRATION = ("from fractions import Fraction\n"
               "acc = Fraction(0)\n"
               "for i in range(1, 900):\n"
               "    acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3 + i % 7)\n")
CALIBRATION_REF_S = 0.05
# a run stops after this many times --seconds of wall time whatever the host speed
MAX_STRETCH = 2.0
JOB_TIMEOUT_S = 60.0
DETERMINISTIC_FIELDS = ("calls", "cells", "points", "cube_points", "terms",
                        "direct_calls", "degree_max", "coeff_bits_max")


class BenchError(Exception):
    pass


@dataclass
class JobResult:
    job: workloads.Job
    ran: bool
    ok: bool
    reason: str | None = None
    wall_s: float = 0.0
    setup_s: float = 0.0
    rss_kib: int = 0
    cpu_s: float = 0.0
    bytes_out: int = 0
    digest: str | None = None
    trace: dict | None = None
    calibration_s: float = 0.0  # the calibration run just before this job
    busy_s: float = 0.0  # job plus its output check, without the calibration


class Runner:
    """Runs jobs in one work directory, one child process at a time."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "DUALSHARE_OUT_DIR"}
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env.pop("PERFBENCH_TRACE", None)

    def spawn(self, argv, trace_path: str | None):
        """Run ``job.py argv``; returns (exit code, wall s, setup s, peak KiB, rusage)."""
        rfd, wfd = os.pipe()
        env = dict(self.env, PERFBENCH_READY_FD=str(wfd))
        if trace_path:
            env["PERFBENCH_TRACE"] = trace_path
        with open(self.work / "stdout", "wb") as out, open(self.work / "stderr", "wb") as err:
            try:
                t0 = time.monotonic()
                proc = subprocess.Popen([sys.executable, str(JOB_SCRIPT), *argv],
                                        cwd=self.work, env=env, stdin=subprocess.DEVNULL,
                                        stdout=out, stderr=err, pass_fds=(wfd,))
            finally:
                os.close(wfd)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.monotonic()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with os.fdopen(rfd, "rb") as pipe:
            lines = pipe.read().split()
        # a job that died early reports neither line; fall back to rusage,
        # which also counts this process's own peak
        setup = float(lines[0]) - t0 if lines else t1 - t0
        rss_kib = int(lines[1]) if len(lines) > 1 else usage.ru_maxrss
        return proc.returncode, t1 - t0, setup, rss_kib, usage

    def calibrate(self) -> float:
        """Wall time of one calibration process."""
        t0 = time.monotonic()
        subprocess.run([sys.executable, "-c", CALIBRATION], cwd=self.work, env=self.env,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
        return time.monotonic() - t0

    def run(self, job: workloads.Job, traced: bool = False) -> JobResult:
        missing = [p for p in job.needs if not (self.work / p).exists()]
        if missing:
            return JobResult(job, ran=False, ok=False, reason=f"missing input {missing[0]}")
        for name, text in job.inputs:
            (self.work / name).write_text(text)
        out, trace = self.work / job.out, self.work / "trace.json"
        for stale in (out, trace):
            stale.unlink(missing_ok=True)
        trace_path = str(trace) if traced else None
        code, wall, setup, rss_kib, usage = self.spawn(job.argv, trace_path)
        res = JobResult(job, ran=True, ok=False, wall_s=wall, setup_s=setup,
                        rss_kib=rss_kib, cpu_s=usage.ru_utime + usage.ru_stime)
        res.bytes_out = (self.work / "stdout").stat().st_size
        if code != 0:
            tail = (self.work / "stderr").read_text(errors="replace").strip().splitlines()
            res.reason = f"exit {code}: {tail[-1] if tail else ''}"
            return res
        if not out.exists():
            res.reason = "no output file"
            return res
        payload = out.read_bytes()
        res.bytes_out += len(payload)
        res.digest = hashlib.sha256(payload).hexdigest()
        text = payload.decode()
        res.reason = checks.check(job, text)
        res.ok = res.reason is None
        if res.ok and job.exports:
            result = json.loads(text)["result"]
            for name, key in job.exports:
                (self.work / name).write_text(json.dumps(result[key]))
        if traced:
            res.trace = json.loads(trace.read_text())
        return res

    def run_cycle(self, jobs, traced: bool = False) -> list[JobResult]:
        results = []
        for job in jobs:
            cal = self.calibrate()
            t0 = time.monotonic()
            res = self.run(job, traced)
            res.calibration_s, res.busy_s = cal, time.monotonic() - t0
            results.append(res)
        for path in self.work.iterdir():
            if path.name.startswith(jobs[0].id.split(".")[0] + "."):
                path.unlink()
        return results


# ------------------------------------------------------------------ metrics

def tail_percentile(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(results: list[JobResult]) -> tuple[dict, dict]:
    """The end-to-end metrics in this machine's seconds, plus run facts."""
    ran = [r for r in results if r.ran]
    passed = sum(r.ok for r in results)
    wall = sum(r.busy_s for r in results)
    times = [r.wall_s for r in ran]
    tail, pct = tail_percentile(times)
    metrics = {
        "jobs_per_s": passed / wall,
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "setup_s": statistics.median(r.setup_s for r in ran),
        "peak_rss_mb": max(r.rss_kib for r in ran) / 1024.0,
        "pass_rate": passed / len(results),
    }
    info = {"tail_percentile": round(pct, 2), "jobs": len(results),
            "fail_rate": 1 - metrics["pass_rate"], "wall_s": wall}
    return metrics, info


def merge_traces(results: list[JobResult]) -> dict:
    total: dict[str, dict] = {}
    for r in results:
        for name, stat in (r.trace or {}).items():
            acc = total.setdefault(name, {})
            for key, value in stat.items():
                if key.endswith("_max"):
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
    return total


def deterministic_view(stats: dict) -> dict:
    return {name: {k: v for k, v in stat.items() if k in DETERMINISTIC_FIELDS}
            for name, stat in stats.items()}


def layer_self(stats: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, stat in stats.items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + stat["self_s"]
    return out


def layer_calls(stats: dict, layer: str) -> int:
    return sum(s["calls"] for n, s in stats.items() if n.split(".")[0] == layer)


def per_layer_value(name: str, a: dict, b: dict, extra: dict) -> float:
    """Metric ``name`` from traced passes a, b (self times averaged)."""
    if name in extra:
        return extra[name]
    if name.startswith("layer."):
        layer = name.split(".")[1]
        return (layer_self(a).get(layer, 0.0) + layer_self(b).get(layer, 0.0)) / 2
    func, field = name.rsplit(".", 1)
    if field == "self_s":
        return (a.get(func, {}).get("self_s", 0.0) + b.get(func, {}).get("self_s", 0.0)) / 2
    return a.get(func, {}).get(field, 0)


# ------------------------------------------------------------------ runs

def golden_digests(workload: str, seed: int) -> dict[str, str]:
    if seed != workloads.DEFAULT_SEED or not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text())["digests"].get(workload, {})


def drift(results: list[JobResult], golden: dict[str, str]) -> int:
    return sum(1 for r in results
               if r.job.id in golden and r.digest != golden[r.job.id])


def reference_scale(results: list[JobResult]) -> float:
    """Factor taking this run's seconds to reference seconds."""
    return CALIBRATION_REF_S / statistics.median(r.calibration_s for r in results)


def reference_rate(results: list[JobResult]) -> float:
    """Jobs per reference second over ``results``."""
    return len(results) / (sum(r.busy_s for r in results) * reference_scale(results))


def run_cycles(runner: Runner, cycles, traced: bool) -> list[JobResult]:
    return [r for jobs in cycles for r in runner.run_cycle(jobs, traced)]


def run_untraced(runner, workload, seed, seconds, spec):
    # whole cycles until `seconds` of job time in reference seconds, so a
    # slow spell on the host changes the run's length, not its job count
    results, index, t0 = [], 0, time.monotonic()
    while True:
        results += runner.run_cycle(workloads.cycle(workload, seed, index))
        index += 1
        done = sum(r.busy_s for r in results) * reference_scale(results)
        if done >= seconds or time.monotonic() - t0 >= MAX_STRETCH * seconds:
            break
    raw, info = end_to_end(results)
    scale = reference_scale(results)
    metrics = dict(raw, jobs_per_s=raw["jobs_per_s"] / scale,
                   **{k: raw[k] * scale for k in ("job_p50_s", "job_tail_s", "setup_s")})
    info.update(cycles=index, payload_drift=drift(results, golden_digests(workload, seed)),
                calibration_s=CALIBRATION_REF_S / scale, raw=raw)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return results, {k: metrics[k] for k in units}, units, info


def run_traced(runner, workload, seed, spec, layers):
    cycles = [workloads.cycle(workload, seed, i) for i in range(TRACE_CYCLES)]
    plain = run_cycles(runner, cycles, traced=False)
    pass_a = run_cycles(runner, cycles, traced=True)
    pass_b = run_cycles(runner, cycles, traced=True)
    results = plain + pass_a + pass_b
    for label, res in (("first", pass_a), ("second", pass_b)):
        changed = [t.job.id for p, t in zip(plain, res) if p.ok and p.digest != t.digest]
        if changed:
            raise BenchError(f"tracing changed payloads in the {label} traced pass: {changed}")
    a, b = merge_traces(pass_a), merge_traces(pass_b)
    if deterministic_view(a) != deterministic_view(b):
        diff = sorted(n for n in set(a) | set(b)
                      if deterministic_view(a).get(n) != deterministic_view(b).get(n))
        raise BenchError(f"deterministic counters differ between traced passes: {diff}")
    if sum(r.bytes_out for r in pass_a) != sum(r.bytes_out for r in pass_b):
        raise BenchError("bytes written differ between traced passes")
    prediction = layers["workloads"][workload]
    idle = [layer for layer in prediction["work"] if layer_calls(a, layer) == 0]
    if idle:
        raise BenchError(f"layers predicted to work on {workload} recorded no calls: {idle}")
    n = len(plain)
    minimax = a.get("approxlab.minimax_lp", {}).get("calls", 0)
    degrees = a.get("approxlab.approx_degree", {}).get("calls", 0)
    extra = {
        "approxlab.lps_per_degree": minimax / degrees if degrees else 0.0,
        "certify.decision_degree_max": a.get("certify.poly_nonneg_on", {}).get("degree_max", 0),
        "certify.decision_coeff_bits_max":
            a.get("certify.poly_nonneg_on", {}).get("coeff_bits_max", 0),
        "cli.bytes_out": sum(r.bytes_out for r in plain),
        "cli.job_cpu_s": sum(r.cpu_s for r in plain),
        "cli.payload_drift": drift(plain, golden_digests(workload, seed)),
        "trace.overhead_ratio": reference_rate(pass_a + pass_b) / reference_rate(plain),
    }
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {name: per_layer_value(name, a, b, extra) for name in units}
    selfs = (layer_self(a), layer_self(b))
    by_layer = {k: (selfs[0].get(k, 0.0) + selfs[1].get(k, 0.0)) / 2
                for k in set(selfs[0]) | set(selfs[1])}
    largest = max(by_layer, key=by_layer.get)
    info = {
        "cycles": TRACE_CYCLES,
        "jobs_per_pass": n,
        "largest_self_layer": largest,
        "predicted_largest": prediction["largest"],
        "prediction_holds": largest in prediction["largest"],
        "self_s_by_layer": {k: round(v, 4) for k, v in
                            sorted(by_layer.items(), key=lambda kv: -kv[1])},
        "untraced_jobs_per_s": reference_rate(plain),
        "traced_jobs_per_s": reference_rate(pass_a + pass_b),
    }
    return results, metrics, units, info, pass_a


def environment(seed: int, workload: str) -> dict:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha or "unknown",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "default_seed": workloads.DEFAULT_SEED,
        "heldout_seed": workloads.HELDOUT_SEED,
        "workload": workload,
    }


def update_golden(workload: str, traced_pass: list[JobResult]) -> None:
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    doc.update(seed=workloads.DEFAULT_SEED, cycles=TRACE_CYCLES)
    doc.setdefault("digests", {})[workload] = {r.job.id: r.digest for r in traced_pass}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def bench(workload: str, args, spec: dict, layers: dict) -> dict:
    """Run one workload, print its report lines, and return the result object."""
    env = environment(args.seed, workload)
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=HERE / ".work"))
    try:
        runner = Runner(work)
        # compile bytecode once, as an installed package would have it, and
        # run one untimed cycle: the first seconds of work after an idle
        # spell run slower on a shared host
        runner.spawn(["--version"], None)
        runner.run_cycle(workloads.cycle(workload, args.seed, 0))
        if args.trace:
            results, metrics, units, info, pass_a = run_traced(
                runner, workload, args.seed, spec, layers)
            if args.update_golden and args.seed == workloads.DEFAULT_SEED:
                update_golden(workload, pass_a)
        else:
            results, metrics, units, info = run_untraced(
                runner, workload, args.seed, args.seconds, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env["jobs"] = len(results)
    failed = [r for r in results if not r.ok]
    for r in failed:
        print(f"FAILED {r.job.id} {' '.join(r.job.argv)}: {r.reason}")
    for name, value in metrics.items():
        print(f"{workload:16s} {name:40s} {value:14.6g} {units[name]}")
    print("info " + json.dumps(info, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                    help="'all' runs every workload and prefixes metric names with it")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true",
                    help="with --trace 1 and the default seed, record payload digests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dualshare" / "cli.py").is_file():
        print(f"perfbench: no dualshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads(LAYERS.read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    # jobs inherit the pin, so calibration and jobs run on the same processor
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        results = {w: bench(w, args, spec, layers) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
