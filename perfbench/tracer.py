"""Span recorder installed into one dualshare job process from outside.

``install()`` wraps the public functions of every dualshare module (and a
few named methods and the CLI command callbacks).  Each wrapped call opens
a span whose parent is the innermost open span; when the span closes its
duration, minus the time its child spans cover, is added to the function's
self time.  Spans are folded into per-function totals as they close, since
a job can make millions of small calls; the totals and a handful of work
counters are written as JSON when the job ends.

Because modules import functions by name (``from .simplex import
solve_minimax``), every module attribute bound to a wrapped function is
rebound to the wrapper, not only the one in the defining module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYER_MODULES = ("ratpoly", "simplex", "certify", "boolcube", "dualand",
                 "symcheb", "approxlab", "weightdeg", "serialize")
METHODS = (("ratpoly", "RationalPoly", "__mul__"),
           ("ratpoly", "RationalPoly", "__call__"),
           ("dualand", "ShareSampler", "__init__"),
           ("dualand", "ShareSampler", "sample_mask"))


def _coeff_bits(p) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.coeffs), default=0)


class Recorder:
    """Per-function totals: name -> {"calls", "self_s", extra counters}."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[list] = []  # open spans: [name, child seconds]

    def wrap(self, name: str, fn, counter=None):
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            if counter is not None:
                # counting is tracer work: keep it out of the parent's self time
                c0 = clock()
                counter(stat, parent[0] if parent else None, args, result)
                if parent is not None:
                    parent[1] += clock() - c0
            return result

        return span

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.stats, fh, sort_keys=True)


def _add(stat: dict, key: str, amount) -> None:
    stat[key] = stat.get(key, 0) + amount


def _count_cells(stat, parent, args, result):
    a = args[0]
    _add(stat, "cells", len(a) * len(a[0]))


def _count_direct(stat, parent, args, result):
    if parent != "simplex.solve_minimax":
        _add(stat, "direct_calls", 1)


def _count_decision(stat, parent, args, result):
    p = args[0]
    stat["degree_max"] = max(stat.get("degree_max", 0), p.degree)
    stat["coeff_bits_max"] = max(stat.get("coeff_bits_max", 0), _coeff_bits(p))


def _count_points(stat, parent, args, result):
    _add(stat, "points", len(args[0]))


def _count_cube_points(stat, parent, args, result):
    _add(stat, "cube_points", 1 << args[0].n)


def _count_terms(stat, parent, args, result):
    _add(stat, "terms", len(result[0].coeffs))


COUNTERS = {
    "simplex.solve_lp": _count_cells,
    "simplex.solve_linf_fit": _count_direct,
    "certify.poly_nonneg_on": _count_decision,
    "boolcube.walsh_hadamard": _count_points,
    "dualand.build_witness": _count_cube_points,
    "weightdeg.low_weight_approximant": _count_terms,
}


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install() -> Recorder:
    """Wrap every layer boundary of the already-imported dualshare package."""
    rec = Recorder()
    cli = importlib.import_module("dualshare.cli")
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "dualshare" or name.startswith("dualshare."))]
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"dualshare.{short}")
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            _rebind(modules, fn, rec.wrap(name, fn, COUNTERS.get(name)))
    for short, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"dualshare.{short}"), cls_name)
        setattr(cls, meth, rec.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
    groups = [cli.cli]
    while groups:
        for cmd in groups.pop().commands.values():
            if hasattr(cmd, "commands"):
                groups.append(cmd)
            elif cmd.callback is not None:
                cmd.callback = rec.wrap(f"cli.{cmd.name}", cmd.callback)
    return rec
