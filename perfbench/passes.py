"""One benchmark process: set up, then a cold pass and warm passes.

``run.py`` starts this script once per sample, so every cold pass
begins in a fresh interpreter: no trace, filter or suite memo survives
from an earlier pass, and pool workers fork from a clean parent.  The
script prints one JSON object on its last line.

Modes:

``setup``
    Only the set-up: import ``repro`` and the experiment modules and
    create the temporary artifact store.
``measure``
    Set-up, a cold pass into the empty store, then warm passes against
    the filled store until ``--warm-min-s`` seconds have been spent
    (none when 0).  With ``--probe-shm`` the one call that publishes
    traces to shared memory is timed; nothing else is wrapped.
``traced``
    Set-up, then every layer wrapped (see ``tracer.py``), a cold pass
    and one warm pass; run it serial (``--jobs 1``) so every wrapped
    call stays in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def digest(result: Any) -> str:
    """SHA-256 of everything an experiment reports (rows, headers, series)."""
    blob = json.dumps({"headers": result.headers, "rows": result.rows,
                       "series": result.series},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    digests: dict[str, str | None] = field(default_factory=dict)
    #: Experiment id -> why it failed (raised, or a cell failed).
    errors: dict[str, str] = field(default_factory=dict)
    #: Cell-runner accounting summed over the pass's manifests.
    cells: int = 0
    hits: int = 0
    executed_s: float = 0.0
    run_wall_s: float = 0.0


def run_pass(registry: Any, experiments: tuple[str, ...], options: Any) -> Pass:
    results: dict[str, Any] = {}
    errors: dict[str, str] = {}
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for exp in experiments:
        try:
            results[exp] = registry.run_experiment(exp, options)
        except Exception as exc:  # counted as a failed experiment
            errors[exp] = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    done = Pass(wall_s=wall, cpu_s=_cpu_s() - cpu0, errors=errors)
    for exp in experiments:
        result = results.get(exp)
        done.digests[exp] = digest(result) if result is not None else None
        manifest = getattr(result, "manifest", None)
        if manifest is None:
            continue
        if manifest.failed:
            errors[exp] = f"{manifest.failed} failed cell(s)"
        done.cells += manifest.n_cells
        done.hits += manifest.hits
        done.executed_s += manifest.executed_s
        done.run_wall_s += manifest.wall_s
    return done


def _tree_bytes(path: str) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _trace_state(tracer: Tracer) -> dict[str, Any]:
    return {"self_s": dict(tracer.self_s), "incl_s": dict(tracer.incl_s),
            "calls": dict(tracer.calls), "counts": dict(tracer.counts)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "traced"))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--warm-min-s", type=float, default=0.0)
    parser.add_argument("--probe-shm", action="store_true")
    parser.add_argument("--tmp", required=True,
                        help="directory for the temporary artifact store")
    parser.add_argument("--spans-out", default=None,
                        help="traced mode: file to write the span records to")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import numpy

    import repro
    import repro.experiments.registry  # noqa: F401  (every experiment module)
    from repro.runner import ResultStore, shm
    store_dir = tempfile.mkdtemp(prefix="store-", dir=args.tmp)
    ResultStore(store_dir)
    out: dict[str, Any] = {"setup_s": time.perf_counter() - t0,
                           "repro_file": repro.__file__,
                           "numpy": numpy.__version__}
    try:
        if args.mode != "setup":
            out.update(_passes(args, store_dir))
        own = f"{shm.SEGMENT_PREFIX}{os.getpid()}x"
        out["leaked_segments"] = [s for s in shm.active_segments()
                                  if s.startswith(own)]
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kid_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (own_rss + kid_rss) / 1024.0  # Linux reports KiB
    print(json.dumps(out))
    return 0


def _passes(args: argparse.Namespace, store_dir: str) -> dict[str, Any]:
    from repro.experiments import registry
    from repro.experiments.common import ExperimentOptions
    from repro.runner import ExecutionPolicy, set_policy

    spec = WORKLOADS[args.workload]
    options = ExperimentOptions.quick(n_accesses=spec.n_accesses, seed=args.seed)
    set_policy(ExecutionPolicy(jobs=args.jobs, use_cache=True, cache_dir=store_dir))
    tracer: Tracer | None = None
    missing: list[str] = []
    if args.mode == "traced":
        tracer = Tracer()
        missing = install(tracer)
    elif args.probe_shm:
        tracer = Tracer()
        missing = install(tracer, layers={"runner.shm_publish"})

    cold = run_pass(registry, spec.experiments, options)
    out: dict[str, Any] = {"cold": asdict(cold),
                           "store_bytes": _tree_bytes(store_dir)}
    if tracer is not None:
        out["trace"] = _trace_state(tracer)
        out["trace"]["missing"] = missing
        cold_spans = len(tracer.spans)

    warm: list[Pass] = []
    if args.mode == "traced":
        warm.append(run_pass(registry, spec.experiments, options))
    while sum(p.wall_s for p in warm) < args.warm_min_s:
        warm.append(run_pass(registry, spec.experiments, options))
    out["warm"] = [asdict(p) for p in warm]
    if args.mode == "traced":
        out["trace_warm"] = _trace_state(tracer)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": spec.name, "seed": args.seed,
                           "fields": ["id", "parent", "name", "start_s", "end_s"],
                           "cold_spans": cold_spans,
                           "spans": tracer.spans}, fh)
    return out


if __name__ == "__main__":
    sys.exit(main())
