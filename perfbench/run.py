"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload coverage_grid --seed 1234 \\
        --seconds 30 --trace 0

Run from the repository root.  Each sample runs in a fresh interpreter
(``passes.py``) with its own temporary artifact store under
``.perfbench-run/``, ``repro.obs`` off and every ``DOMINO_*`` variable
unset, so the program's defaults apply.

``--trace 0`` takes about ``--seconds`` worth of samples, each a cold
pass into an empty store, and prints the end-to-end metrics as medians
over the samples.  ``--trace 1`` makes an untraced cold pass at the
workload's pool width followed by warm passes against the store it
filled (runner accounting, warm wall), an untraced serial cold pass
(the overhead base), and a serial cold and warm pass with every layer
wrapped.  It prints the per-layer metrics.

Every pass is checked: experiment outputs must hash the same in every
pass of the run and, for a seed in ``references.json``, equal the
recorded digest.  A raised error, a failed cell, a differing digest,
a ``/dev/shm`` segment left behind or a file created outside the run
directory is a failed operation.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Wall-time budget of one invocation; a pass still running at the end
#: of it is killed and the run fails.
BUDGET_S = 170.0
#: Fresh-interpreter set-up samples taken before the measured passes.
SETUP_PROBES = 8
#: In the traced run, warm passes repeat until this much warm wall time
#: is spent, because a warm pass of a runner workload takes milliseconds.
WARM_MIN_S = 1.0
#: Scratch directory of a run, inside the checkout.
RUN_DIR = ".perfbench-run"
#: Directories the stray-file check ignores.
IGNORED_DIRS = {RUN_DIR, "__pycache__", ".git"}

#: name -> (unit, host|simulated, description)
END_TO_END: dict[str, tuple[str, str, str]] = {
    "setup_s": ("s", "host", "import repro and the experiment modules, create the store"),
    "cold_wall_s": ("s", "host", "wall of the workload's experiments into an empty store"),
    "cold_cpu_s": ("s", "host", "CPU of the process and its pool workers in the cold pass"),
    "sim_accesses_per_s": ("1/s", "host", "simulated accesses requested per cold-pass second"),
    "peak_rss_mb": ("MB", "host", "peak RSS of the process plus its largest pool worker"),
}

#: name -> (unit, host|simulated, description).  A ``*_s`` entry with
#: kind "self" is a layer self time; these plus ``trace.unattributed_s``
#: sum to ``trace.cold_wall_s``.
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "trace.cold_wall_s": ("s", "host", "wall of the traced serial cold pass"),
    "trace.untraced_cold_wall_s": ("s", "host", "wall of the untraced serial cold pass"),
    "trace.overhead": ("ratio", "host", "traced / untraced serial cold wall"),
    "trace.unattributed_s": ("s", "host", "traced cold wall not inside any wrapped layer"),
    "error_rate": ("ratio", "host", "failed / attempted operations of this run"),
    "warm_wall_s": ("s", "host", "wall of one untraced rerun against the filled store"),
    "experiments.driver_self_s": ("s", "self", "drivers, table assembly, ExperimentContext glue"),
    "experiments.direct_sim_s": ("s", "host", "inclusive time in ExperimentContext direct calls"),
    "runner.scheduler_s": ("s", "self", "run_cells / execute_timed / execute_cell"),
    "runner.store_get_s": ("s", "self", "ResultStore.get in the cold pass"),
    "runner.store_put_s": ("s", "self", "ResultStore.put in the cold pass"),
    "runner.warm_store_get_s": ("s", "host", "ResultStore.get self time in the warm pass"),
    "runner.store_bytes": ("bytes", "host", "artifact store size after the cold pass"),
    "runner.shm_publish_s": ("s", "host", "shm.publish_traces in the pool-width cold pass"),
    "runner.pool_busy_frac": ("ratio", "host", "sum of cell walls / (jobs x run wall), pool-width pass"),
    "runner.cells_executed": ("count", "host", "cells executed in the pool-width cold pass"),
    "runner.cells_cached": ("count", "host", "cells served from the store in that cold pass"),
    "runner.cache_hit_ratio": ("ratio", "host", "cells served from the store in the warm pass"),
    "workloads.generate_s": ("s", "self", "trace generation and document libraries"),
    "workloads.accesses_generated": ("count", "host", "accesses of the generated traces"),
    "fastpath.build_s": ("s", "self", "build_l1_filter"),
    "fastpath.codec_s": ("s", "self", "L1-filter store encode / decode"),
    "fastpath.filters_built": ("count", "host", "L1 filters built"),
    "fastpath.filter_reuse_ratio": ("ratio", "host", "filters reused / requested"),
    "engine.replay_s": ("s", "self", "TraceSimulator.run / run_filtered, hooks excluded"),
    "engine.accesses": ("count", "simulated", "trace accesses replayed"),
    "engine.ns_per_access": ("ns", "host", "engine.replay_s per replayed access"),
    "prefetchers.hook_s": ("s", "self", "on_miss / on_prefetch_hit / on_buffer_eviction"),
    "prefetchers.make_s": ("s", "self", "make_prefetcher (table allocation)"),
    "prefetchers.hook_calls": ("count", "host", "prefetcher hook calls"),
    "prefetchers.accuracy": ("ratio", "simulated", "prefetch hits / prefetches issued"),
    "timing.simulate_s": ("s", "self", "simulate_multicore incl. TimingSimulator.step"),
    "timing.steps": ("count", "simulated", "per-core accesses stepped by the timing model"),
    "timing.ns_per_step": ("ns", "host", "timing.simulate_s per step"),
    "memory.cache_s": ("s", "self", "Cache access/probe/fill and MemoryHierarchy"),
    "memory.dram_s": ("s", "self", "DramModel and BandwidthLedger"),
    "memory.buffer_s": ("s", "self", "PrefetchBuffer"),
    "memory.llc_hits": ("count", "simulated", "LLC hits in the measured windows"),
    "memory.dram_accesses": ("count", "simulated", "demand DRAM accesses in the measured windows"),
    "memory.prefetches_dropped": ("count", "simulated", "prefetches shed on a saturated channel"),
    "memory.bandwidth_utilization": ("ratio", "simulated", "mean channel utilisation per multicore run"),
    "sequitur.analyze_s": ("s", "self", "analyze_sequence / analyze_grammar"),
    "sequitur.symbols": ("count", "host", "symbols fed to Sequitur"),
}

#: Self-time metric -> the tracer layers it sums.
SELF_LAYERS: dict[str, tuple[str, ...]] = {
    "experiments.driver_self_s": ("experiments.driver", "experiments.direct"),
    "runner.scheduler_s": ("runner.scheduler",),
    "runner.store_get_s": ("runner.store_get",),
    "runner.store_put_s": ("runner.store_put",),
    "workloads.generate_s": ("workloads",),
    "fastpath.build_s": ("sim.fastpath",),
    "fastpath.codec_s": ("sim.fastpath.codec",),
    "engine.replay_s": ("sim.engine",),
    "prefetchers.hook_s": ("prefetchers.hook",),
    "prefetchers.make_s": ("prefetchers.make",),
    "timing.simulate_s": ("sim.timing",),
    "memory.cache_s": ("memory.cache",),
    "memory.dram_s": ("memory.dram",),
    "memory.buffer_s": ("memory.buffer",),
    "sequitur.analyze_s": ("sequitur",),
}


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def _snapshot(root: Path) -> set[str]:
    seen = set()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in IGNORED_DIRS]
        rel = Path(dirpath).relative_to(root)
        seen.update(str(rel / name) for name in dirnames + filenames)
    return seen


def _stop_group(pgid: int) -> None:
    """Kill and outwait whatever is left in a child's process group."""
    deadline = time.monotonic() + 5.0
    sig = signal.SIGTERM
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        time.sleep(0.05)
        sig = signal.SIGKILL


class Runner:
    """Starts ``passes.py`` children and checks what they leave behind."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.run_dir = root / RUN_DIR
        self.tmp = self.run_dir / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("DOMINO_")}
        self.env.update(PYTHONPATH=str(root / "src"), TMPDIR=str(self.tmp),
                        PYTHONHASHSEED="0")
        self.tally = Tally()
        self.numpy = "?"
        self.verdict = "not checked"
        #: Comment lines printed before the metrics.
        self.notes: list[str] = []

    def child(self, mode: str, *extra: str) -> dict[str, Any] | None:
        argv = [sys.executable, str(HERE / "passes.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--mode", mode, "--tmp", str(self.tmp), *extra]
        before = _snapshot(self.root)
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _stop_group(proc.pid)
            proc.communicate()
            raise SystemExit(f"perfbench: {mode} pass overran the "
                             f"{BUDGET_S:g}s budget") from None
        _stop_group(proc.pid)
        stray = sorted(_snapshot(self.root) - before)
        result = None
        if proc.returncode == 0:
            result = json.loads(out.strip().splitlines()[-1])
            src = (self.root / "src").resolve()
            if not Path(result["repro_file"]).resolve().is_relative_to(src):
                raise SystemExit(f"perfbench: imported repro from "
                                 f"{result['repro_file']}, not {src}")
            self.numpy = result["numpy"]
        else:
            sys.stderr.write(err[-4000:])
        leaked = result["leaked_segments"] if result else []
        self.tally.record(result is not None and not leaked and not stray,
                          f"{mode} pass: exit={proc.returncode} "
                          f"leaked={leaked} stray={stray[:5]}")
        return result


def _references() -> dict[str, Any]:
    with open(HERE / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_digests(runner: Runner, children: list[dict[str, Any] | None]) -> str:
    """Count every experiment of every pass; returns the digest verdict."""
    spec = WORKLOADS[runner.workload]
    ref = _references()["workloads"].get(spec.name, {})
    if ref and ref["n_accesses"] != spec.n_accesses:
        raise SystemExit("perfbench: references.json was recorded at "
                         f"n_accesses={ref['n_accesses']}; re-record it")
    expected = ref.get("seeds", {}).get(str(runner.seed))
    passes = [p for c in children if c for p in [c["cold"], *c["warm"]]]
    verdict = "verified"
    if expected is None:
        # Unverified seed: every pass must still agree with the first.
        expected = next((p["digests"] for p in passes), {})
        verdict = "unverified (no reference for this seed)"
    for child in children:
        if child is None:  # a crashed process: all its experiments failed
            for exp in spec.experiments:
                runner.tally.record(False, f"{exp}: pass process failed")
    for p in passes:
        for exp in spec.experiments:
            got = p["digests"].get(exp)
            error = p["errors"].get(exp)
            ok = error is None and got is not None and got == expected.get(exp)
            runner.tally.record(ok, f"{exp}: {error or 'digest ' + str(got)[:12]}")
            if not ok:
                verdict = "MISMATCH"
    return verdict


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    spec = WORKLOADS[runner.workload]
    setups = [c["setup_s"] for c in
              (runner.child("setup") for _ in range(SETUP_PROBES)) if c]
    samples = [runner.child("measure", "--jobs", str(spec.jobs))
               for _ in range(spec.samples(seconds))]
    runner.verdict = check_digests(runner, samples)
    good = [s for s in samples if s]
    if not good:
        raise SystemExit("perfbench: no pass completed")
    setups += [s["setup_s"] for s in good]
    samples_of = {
        "setup_s": setups,
        "cold_wall_s": [s["cold"]["wall_s"] for s in good],
        "cold_cpu_s": [s["cold"]["cpu_s"] for s in good],
        "sim_accesses_per_s": [spec.nominal_accesses() / s["cold"]["wall_s"]
                               for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in good],
    }
    for name, values in samples_of.items():
        runner.notes.append(f"samples {name} n={len(values)} {json.dumps(values)}")
    return {name: statistics.median(values) for name, values in samples_of.items()}


def per_layer(runner: Runner) -> dict[str, float]:
    spec = WORKLOADS[runner.workload]
    pool = runner.child("measure", "--jobs", str(spec.jobs), "--probe-shm",
                        "--warm-min-s", str(WARM_MIN_S))
    base = (runner.child("measure", "--jobs", "1") if spec.jobs > 1 else pool)
    spans = runner.run_dir / f"spans-{spec.name}-{runner.seed}.json"
    traced = runner.child("traced", "--spans-out", str(spans))
    children = [pool, traced] + ([base] if base is not pool else [])
    runner.verdict = check_digests(runner, children)
    if not (pool and base and traced):
        raise SystemExit("perfbench: a traced-run pass failed")

    cold, trace = traced["cold"], traced["trace"]
    self_s, counts = trace["self_s"], trace["counts"]
    # shm publish is timed in the pool-width pass: a serial pass never
    # publishes, so it is the one layer without a self-time metric here.
    mapped = {layer for layers in SELF_LAYERS.values() for layer in layers}
    if set(self_s) - mapped - {"runner.shm_publish"}:
        raise SystemExit(f"perfbench: unmapped layers {sorted(set(self_s) - mapped)}")
    m: dict[str, float] = {
        name: sum(self_s.get(layer, 0.0) for layer in layers)
        for name, layers in SELF_LAYERS.items()}
    m["trace.cold_wall_s"] = cold["wall_s"]
    m["trace.untraced_cold_wall_s"] = base["cold"]["wall_s"]
    m["trace.overhead"] = cold["wall_s"] / base["cold"]["wall_s"]
    m["trace.unattributed_s"] = cold["wall_s"] - sum(self_s.values())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    warm = traced["warm"][0]
    warm_self = traced["trace_warm"]["self_s"]
    pool_cold = pool["cold"]
    m.update({
        "warm_wall_s": statistics.median(p["wall_s"] for p in pool["warm"]),
        "experiments.direct_sim_s": trace["incl_s"].get("experiments.direct", 0.0),
        "runner.warm_store_get_s": (warm_self.get("runner.store_get", 0.0)
                                    - self_s.get("runner.store_get", 0.0)),
        "runner.store_bytes": traced["store_bytes"],
        "runner.shm_publish_s": pool["trace"]["self_s"].get("runner.shm_publish", 0.0),
        "runner.pool_busy_frac": ratio(pool_cold["executed_s"],
                                       spec.jobs * pool_cold["run_wall_s"]),
        "runner.cells_executed": pool_cold["cells"] - pool_cold["hits"],
        "runner.cells_cached": pool_cold["hits"],
        "runner.cache_hit_ratio": ratio(warm["hits"], warm["cells"]),
        "workloads.accesses_generated": counts.get("workloads.accesses_generated", 0),
        "fastpath.filters_built": trace["calls"].get("sim.fastpath", 0),
        "fastpath.filter_reuse_ratio": ratio(
            counts.get("fastpath.filter_requests", 0)
            - trace["calls"].get("sim.fastpath", 0),
            counts.get("fastpath.filter_requests", 0)),
        "engine.accesses": counts.get("engine.accesses", 0),
        "engine.ns_per_access": 1e9 * ratio(m["engine.replay_s"],
                                            counts.get("engine.accesses", 0)),
        "prefetchers.hook_calls": trace["calls"].get("prefetchers.hook", 0),
        "prefetchers.accuracy": ratio(counts.get("prefetchers.prefetch_hits", 0),
                                      counts.get("prefetchers.prefetches_issued", 0)),
        "timing.steps": counts.get("timing.steps", 0),
        "timing.ns_per_step": 1e9 * ratio(m["timing.simulate_s"],
                                          counts.get("timing.steps", 0)),
        "memory.llc_hits": counts.get("memory.llc_hits", 0),
        "memory.dram_accesses": counts.get("memory.dram_accesses", 0),
        "memory.prefetches_dropped": counts.get("memory.prefetches_dropped", 0),
        "memory.bandwidth_utilization": ratio(
            counts.get("memory.bandwidth_utilization_sum", 0.0),
            counts.get("timing.runs", 0)),
        "sequitur.symbols": counts.get("sequitur.symbols", 0),
    })
    if trace["missing"]:
        runner.notes.append(f"wrap targets missing (their metrics read 0): "
                            f"{trace['missing']}")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Compile once up front so no sample pays for bytecode compilation.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL, timeout=600)
    runner = Runner(root, args.workload, args.seed,
                    deadline=time.monotonic() + BUDGET_S)
    if args.trace:
        metrics, table = per_layer(runner), PER_LAYER
    else:
        metrics, table = end_to_end(runner, args.seconds), END_TO_END
    tally = runner.tally
    if args.trace:
        metrics["error_rate"] = tally.failed / tally.attempted

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={runner.numpy}")
    print(f"# digest check: {runner.verdict}")
    for note in runner.notes:
        print(f"# {note}")
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    for name, (unit, kind, text) in table.items():
        print(f"{name:30s} {metrics[name]:>16.6g} {unit:6s} {kind:9s} {text}")
    shutil.rmtree(runner.tmp, ignore_errors=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
