#!/usr/bin/env python
"""Fastpath wall-clock harness: filter build and fig11-style grid probes.

Two measurement groups, sharing one JSON report (``BENCH_PR10.json``)
and one exit status CI can gate on:

* **hot_path** — the filter build: the vectorised kernel
  (:func:`~repro.sim.fastpath.build_l1_filter`) against its scalar
  reference (:func:`~repro.sim.fastpath.build_l1_filter_scalar`).  The
  two filters must be equal, and the scalar/vectorised wall ratio is
  gated by ``--min-hotpath-speedup``.
* **shm** — one fig11-style grid (workloads × paper prefetchers trace
  cells, plus one opportunity cell per workload) pooled (traces handed
  to workers through shared memory) vs. serial: identical payloads, and
  zero leaked ``/dev/shm`` segments from this process afterwards.

A final probe attaches an uncancelled
:class:`~repro.cancel.CancelToken` to a serial, cache-free pass and
gates its checkpoint overhead (default <= 2%) and payload equivalence,
so lifecycle instrumentation can never quietly tax or perturb the
engine's replay loop.

The filter replay is the engine's only loop, so there is no
unfiltered pass to time the grid against; its bit-identity to the
per-access reference is pinned by ``tests/sim/test_engine_reference.py``
and the experiment digests.

Usage::

    PYTHONPATH=src python benchmarks/bench_fastpath.py \
        --jobs 2 --n 30000 --out BENCH_PR10.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.cancel import CancelToken
from repro.config import SystemConfig
from repro.experiments.common import ExperimentOptions
from repro.experiments.fig11_degree1 import build_cells
from repro.runner import ExecutionPolicy, run_cells, shm
from repro.runner import execute as execute_mod
from repro.sim import fastpath
from repro.workloads.suite import WorkloadSuite


def _reset_process_caches() -> None:
    """Forget every in-process memo so a pass starts cold.

    Worker processes are forked from this one, so anything memoised
    here (generated traces, decoded filters) would leak into both
    passes and blur the comparison.
    """
    execute_mod._SUITES.clear()
    execute_mod._FILTERS.clear()
    execute_mod.set_fastpath_root(None)
    execute_mod.set_trace_share(None)


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _measure_hot_path(options: ExperimentOptions, repeats: int = 3) -> dict:
    """Vectorised filter build vs. its scalar reference, best of N."""
    config = SystemConfig()
    workload = options.workloads[0]
    trace = WorkloadSuite(seed=options.seed).trace(workload,
                                                  options.n_accesses)
    scalar_s = _best_of(
        repeats, lambda: fastpath.build_l1_filter_scalar(trace, config))
    vectorised_s = _best_of(
        repeats, lambda: fastpath.build_l1_filter(trace, config))
    filt = fastpath.build_l1_filter(trace, config)
    reference = fastpath.build_l1_filter_scalar(trace, config)
    builds_equal = all(
        np.array_equal(getattr(filt, f), getattr(reference, f))
        for f in ("indices", "pcs", "blocks", "evicted"))
    return {
        "workload": workload,
        "n_accesses": options.n_accesses,
        "n_misses": filt.n_misses,
        "build_scalar_s": round(scalar_s, 4),
        "build_vectorised_s": round(vectorised_s, 4),
        "builds_equal": builds_equal,
        "speedup": round(scalar_s / vectorised_s, 4)
        if vectorised_s else float("inf"),
    }


def _measure_shm(cells, options: ExperimentOptions, jobs: int) -> dict:
    """Pooled grid (shared-memory trace handoff) vs. serial."""
    prefix = f"{shm.SEGMENT_PREFIX}{os.getpid()}x"
    walls, payloads = {}, {}
    for label, width in (("serial", 1), ("pooled", jobs)):
        _reset_process_caches()
        started = time.perf_counter()
        payloads[label], manifest = run_cells(
            cells, options, ExecutionPolicy(jobs=width, use_cache=False))
        walls[label] = round(time.perf_counter() - started, 4)
        if manifest.failed:
            raise RuntimeError(f"{label} pass cell failed")
    remaining = [n for n in shm.active_segments() if n.startswith(prefix)]
    return {
        "jobs": jobs,
        "wall_s": walls,
        "equivalent": payloads["pooled"] == payloads["serial"],
        "leaked_segments": remaining,
        "leak_free": not remaining,
    }


def _measure_cancel_overhead(options: ExperimentOptions,
                             repeats: int = 2) -> dict:
    """Wall-clock cost of cancellation checkpoints in the replay loop.

    Cancel tokens are only consulted on the serial path (the pool
    polls the token between results instead of shipping it), so the
    probe is a serial, cache-free pass over one workload's trace cells:
    one filter build, then one replay per cell, each metering every
    access of the trace.  Each variant runs ``repeats`` times and keeps
    its best wall so a single scheduler hiccup cannot fake a regression.
    """
    probe = ExperimentOptions(
        n_accesses=options.n_accesses, seed=options.seed,
        workloads=options.workloads[:1])
    cells = [c for c in build_cells(probe, degree=1) if c.kind == "trace"]
    policy = ExecutionPolicy(jobs=1, use_cache=False)

    def best_of(make_token):
        wall, payloads, token = float("inf"), None, None
        for _ in range(repeats):
            _reset_process_caches()
            token = make_token()
            started = time.perf_counter()
            payloads, manifest = run_cells(cells, probe, policy, cancel=token)
            wall = min(wall, time.perf_counter() - started)
            if manifest.failed:
                raise RuntimeError("cancel-overhead probe cell failed")
        return wall, payloads, token

    plain_s, plain_payloads, _ = best_of(lambda: None)
    metered_s, metered_payloads, token = best_of(CancelToken)
    expected = len(cells) * probe.n_accesses
    if token.progress != expected:
        raise RuntimeError(
            f"metered pass published {token.progress} accesses, "
            f"expected {expected}")
    overhead_pct = (metered_s / plain_s - 1.0) * 100.0 if plain_s else 0.0
    return {
        "cells": len(cells),
        "plain_s": round(plain_s, 4),
        "metered_s": round(metered_s, 4),
        "overhead_pct": round(overhead_pct, 4),
        "equivalent": plain_payloads == metered_payloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="oltp,web_apache,media_streaming",
                        help="comma-separated workload names")
    parser.add_argument("--n", type=int, default=60_000,
                        help="accesses per trace")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes per pass")
    parser.add_argument("--degree", type=int, default=1,
                        help="prefetch degree of the trace cells")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--out", default="BENCH_PR10.json",
                        help="JSON report path")
    parser.add_argument("--min-hotpath-speedup", type=float, default=2.0,
                        help="fail below this scalar/vectorised filter "
                             "build ratio")
    parser.add_argument("--max-cancel-overhead", type=float, default=2.0,
                        help="fail if an uncancelled token slows the "
                             "serial replay loop by more than this "
                             "percentage")
    args = parser.parse_args(argv)

    options = ExperimentOptions(
        n_accesses=args.n, seed=args.seed,
        workloads=tuple(w.strip() for w in args.workloads.split(",")
                        if w.strip()))
    cells = build_cells(options, args.degree)
    print(f"grid: {len(cells)} cells "
          f"({len(options.workloads)} workloads, degree {args.degree}, "
          f"n={args.n:,}, jobs={args.jobs})")

    hot_path = _measure_hot_path(options)
    print(f"hot path: scalar build {hot_path['build_scalar_s']:.3f}s, "
          f"vectorised {hot_path['build_vectorised_s']:.3f}s "
          f"-> {hot_path['speedup']:.2f}x")

    shm_report = _measure_shm(cells, options, args.jobs)
    print(f"shm handoff: serial {shm_report['wall_s']['serial']:.2f}s, "
          f"pooled {shm_report['wall_s']['pooled']:.2f}s, "
          f"equivalent={shm_report['equivalent']}, "
          f"leak_free={shm_report['leak_free']}")

    cancel = _measure_cancel_overhead(options)
    print(f"cancel checkpoints: plain {cancel['plain_s']:.2f}s, "
          f"metered {cancel['metered_s']:.2f}s "
          f"({cancel['overhead_pct']:+.2f}%)")

    cancel_ok = (cancel["equivalent"]
                 and cancel["overhead_pct"] <= args.max_cancel_overhead)
    hotpath_ok = (hot_path["builds_equal"]
                  and hot_path["speedup"] >= args.min_hotpath_speedup)
    ok = (hotpath_ok and shm_report["equivalent"]
          and shm_report["leak_free"] and cancel_ok)

    report = {
        "benchmark": "fastpath_fig11_grid",
        "workloads": list(options.workloads),
        "n_accesses": args.n,
        "degree": args.degree,
        "seed": args.seed,
        "jobs": args.jobs,
        "cells": len(cells),
        "hot_path": hot_path,
        "min_hotpath_speedup": args.min_hotpath_speedup,
        "shm": shm_report,
        "cancel_overhead": cancel,
        "max_cancel_overhead_pct": args.max_cancel_overhead,
        "pass": ok,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
    print(f"hot path {hot_path['speedup']:.2f}x "
          f"(min {args.min_hotpath_speedup:g}x) -> {args.out}")
    if not hot_path["builds_equal"]:
        print("FAIL: vectorised filter differs from scalar reference",
              file=sys.stderr)
    elif hot_path["speedup"] < args.min_hotpath_speedup:
        print(f"FAIL: filter build speedup {hot_path['speedup']:.2f}x below "
              f"{args.min_hotpath_speedup:g}x", file=sys.stderr)
    elif not shm_report["equivalent"]:
        print("FAIL: pooled payloads differ from serial", file=sys.stderr)
    elif not shm_report["leak_free"]:
        print(f"FAIL: leaked shm segments {shm_report['leaked_segments']}",
              file=sys.stderr)
    elif not cancel["equivalent"]:
        print("FAIL: metered payloads differ from unmetered",
              file=sys.stderr)
    elif cancel["overhead_pct"] > args.max_cancel_overhead:
        print(f"FAIL: cancel-checkpoint overhead "
              f"{cancel['overhead_pct']:.2f}% above "
              f"{args.max_cancel_overhead:g}%", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
