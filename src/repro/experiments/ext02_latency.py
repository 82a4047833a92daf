"""Extension experiment: speedup sensitivity to memory latency.

The paper's timeliness argument — Domino issues a stream's first
prefetch after one serialised metadata round trip where STMS needs two
— should matter *more* as memory latency grows (each saved round trip
is worth more cycles).  This experiment sweeps the memory latency on
one workload and reports STMS vs Domino speedup at each point; the gap
widening with latency is the predicted signature.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import ExperimentOptions, ExperimentResult, payload_field

LATENCIES_NS = (30.0, 45.0, 60.0, 90.0)
PREFETCHERS = ("stms", "domino")


def build_cells(options: ExperimentOptions) -> list[Cell]:
    """latencies × (baseline + prefetchers) on the first workload; the
    default 45 ns point is fig14's cells."""
    return [Cell(kind="multicore", workload=options.workloads[0],
                 prefetcher=name, config_name="timing",
                 overrides=(("memory_latency_ns", latency),))
            for latency in LATENCIES_NS
            for name in ("baseline",) + PREFETCHERS]


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    workload = options.workloads[0]
    payloads, manifest = run_cells(build_cells(options), options)
    payload_iter = iter(payloads)
    rows: list[list] = []
    for latency in LATENCIES_NS:
        baseline_ipc = payload_field(next(payload_iter), "ipc")
        cells: list = [f"{latency:g} ns", round(baseline_ipc, 3)]
        for _ in PREFETCHERS:
            ipc = payload_field(next(payload_iter), "ipc")
            cells.append(round(ipc / baseline_ipc, 3) if baseline_ipc else 0.0)
        rows.append(cells)
    return ExperimentResult(
        experiment_id="ext02",
        title=f"Extension: speedup vs memory latency ({workload})",
        headers=["memory_latency", "baseline_ipc"] + list(PREFETCHERS),
        rows=rows,
        notes=("Predicted signature: both prefetchers gain more at higher "
               "latency, and Domino's one-round-trip first prefetch widens "
               "its edge over STMS as the round trip gets more expensive."),
        manifest=manifest,
    )
