"""Seeded job generators for the four benchmark workloads.

A workload is an endless stream of *cycles*.  A cycle is a short list of
``dualshare`` CLI jobs run one after another; later jobs of a cycle may read
files that earlier jobs wrote (a witness, or the ramp distributions).  Cycle
``c`` of workload ``w`` under seed ``s`` is drawn from its own RNG, seeded by
``(w, s, c)``, so any cycle can be regenerated on its own.

Every cycle holds the same ladder of job shapes; the seed draws the
parameters of each rung from a small set of comparable cost (mirror-image
predicates, reflected weights, a short list of eps or K values).  That keeps
the cost of a run nearly independent of the seed while every seed still
sends the program different inputs.  All parameters lie in the domains the
acceptance suite exercises, and every drawn job is expected to succeed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 1
HELDOUT_SEED = 20261017

WORKLOADS = ("ramp-lp", "trunc-cert", "and-cube", "weight-sandwich")


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  Paths are relative to the run's work directory."""

    id: str
    argv: tuple[str, ...]
    out: str
    # files this job reads that earlier jobs of the cycle produce
    needs: tuple[str, ...] = ()
    # (file name, text) written into the work directory before the job runs
    inputs: tuple[tuple[str, str], ...] = ()
    # (file name, result key): JSON written from this job's payload for later jobs
    exports: tuple[tuple[str, str], ...] = ()
    # parameters the output check needs, as plain strings and ints
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return "symcheb-pw" if self.argv[0] == "symcheb" else self.argv[0]


def _job(cid: str, j: int, argv, ext: str = "json", **kw) -> Job:
    jid = f"{cid}.j{j}"
    return Job(jid, tuple(str(a) for a in argv) + ("--out", f"{jid}.{ext}"),
               f"{jid}.{ext}", **kw)


# --------------------------------------------------------------- ramp-lp

def _ramp_lp(rng: random.Random, cid: str) -> list[Job]:
    f, n = rng.choice([("and", 20), ("or", 20), ("maj", 14), ("exact-half", 12)])
    eps = rng.choice(["1/3", "1/4"])
    k, big_k, rn = 2, 4, 64
    mu, nu = f"{cid}.mu.json", f"{cid}.nu.json"
    ks = sorted(rng.sample(range(k + 1, k + 6), 3))
    jobs = [
        _job(cid, 0, ["approx-degree", "--f", f, "--n", n, "--eps", eps],
             expect={"eps": eps, "n": n}),
        _job(cid, 1, ["ramp", "--k", k, "--K", big_k, "--n", rn, "--finite"],
             exports=((mu, "mu"), (nu, "nu")), expect={"k": k, "n": rn}),
        _job(cid, 2, ["indist-check", "--dist1", mu, "--dist2", nu, "--k", k,
                      "--K", ",".join(map(str, ks))],
             needs=(mu, nu), expect={"projections": len(ks)}),
    ]
    for j, dist in enumerate((mu, nu), start=3):
        t = rng.choice([2, 4])
        jobs.append(_job(cid, j, ["consolidate", "--dist", dist, "--t", t],
                         needs=(dist,), expect={"n": rn // t}))
    return jobs


# ------------------------------------------------------------ trunc-cert

def _trunc_cert(rng: random.Random, cid: str) -> list[Job]:
    jobs = []
    # (K, w, k choices): n = 64K, w drawn with its reflection K - w
    for j, (big_k, w, ks) in enumerate([(10, 2, (5, 6)), (8, 2, (4,))]):
        w = rng.choice([w, big_k - w])
        jobs.append(_job(cid, j, ["symcheb", "pw", "--n", 64 * big_k, "--K", big_k,
                                  "--w", w, "--check", "truncation",
                                  "--k", rng.choice(ks)],
                         expect={"check": "truncation"}))
    check = rng.choice(["bounded", "circle"])
    big_k = rng.choice([4, 8])
    jobs.append(_job(cid, 2, ["symcheb", "pw", "--n", 1024, "--K", big_k,
                              "--w", rng.choice([1, big_k - 1]), "--check", check],
                     expect={"check": check}))
    return jobs


# -------------------------------------------------------------- and-cube

_WEIGHT_CHOICES = ("1/2", "3/4", "1", "5/4", "3/2")


def _and_cube(rng: random.Random, cid: str) -> list[Job]:
    n = 14
    wit = f"{cid}.j0.json"
    if rng.random() < 0.5:
        weights = None
        d = str(rng.randint(2, n - 2))
        argv = ["dual-and", "--n", n, "--d", d]
    else:
        weights = [rng.choice(_WEIGHT_CHOICES) for _ in range(n)]
        l1 = sum(Fraction(x) for x in weights)
        d = str(Fraction(rng.randint(1, 3), 4) * l1)
        argv = ["dual-and", "--n", n, "--weights", ",".join(weights), "--d", d]
    jobs = [_job(cid, 0, argv, expect={"n": n, "d": d,
                                       "weights": weights or ["1"] * n})]
    secrets = ["+1", "-1"]
    rng.shuffle(secrets)
    for j, secret in enumerate(secrets, start=1):
        fmt = rng.choice(["csv", "json"])
        jobs.append(_job(cid, j, ["sample-shares", "--witness", wit, "--secret", secret,
                                  "--count", rng.randint(100, 1000),
                                  "--seed", rng.randrange(1 << 30), "--format", fmt],
                         ext=fmt, needs=(wit,),
                         expect={"secret": secret, "format": fmt, "n": n}))
    return jobs


# ------------------------------------------------------- weight-sandwich

# K from approx_deg_{1/3}(f) + 1 up to n/2, as in the acceptance sandwich test
_AND_OR_K = {10: (3, 4, 5), 12: (4, 5, 6), 14: (4, 5, 6, 7)}


def _weight_sandwich(rng: random.Random, cid: str) -> list[Job]:
    jobs = [_job(cid, j, ["weight-bound", "--f", rng.choice(["and", "or"]), "--n", n,
                          "--K", rng.choice(_AND_OR_K[n])], expect={"eps": "1/3"})
            for j, n in enumerate(sorted(_AND_OR_K))]
    jobs.append(_job(cid, 3, ["weight-bound", "--f", "maj", "--n", 12,
                              "--K", rng.choice([5, 6])], expect={"eps": "1/3"}))
    # exact-threshold predicate [h == n-1], or its reflection [h == 1]
    n = 12
    at = rng.choice([n - 1, 1])
    pred = f"{cid}.pred.json"
    body = json.dumps({"n": n, "values": [int(h == at) for h in range(n + 1)]})
    jobs.append(_job(cid, 4, ["weight-bound", "--f", pred, "--K", n // 2],
                     inputs=((pred, body),), expect={"eps": "1/3"}))
    return jobs


_GENERATORS = {
    "ramp-lp": _ramp_lp,
    "trunc-cert": _trunc_cert,
    "and-cube": _and_cube,
    "weight-sandwich": _weight_sandwich,
}


def cycle(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of cycle ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _GENERATORS[workload](rng, f"c{index}")
