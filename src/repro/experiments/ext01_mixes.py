"""Extension experiment (beyond the paper): heterogeneous mixes.

The paper evaluates homogeneous quad-core workloads.  Consolidated
servers co-schedule different applications per core, which stresses the
shared LLC and the shared off-chip channel differently: a
bandwidth-hungry neighbour (Web Apache) eats into the headroom a
metadata-heavy temporal prefetcher needs.  This experiment runs the
standard mixes and reports per-prefetcher speedup over the
no-prefetcher baseline — the Fig. 14 methodology on mixed cores.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from ..workloads.mixes import STANDARD_MIXES
from .common import ExperimentOptions, ExperimentResult, gmean_speedup, payload_field

PREFETCHERS = ("stms", "digram", "domino")


def build_cells(options: ExperimentOptions) -> list[Cell]:
    """The sweep: mixes × (baseline + prefetchers), timing config."""
    return [Cell(kind="multicore", workload=mix_name, prefetcher=name,
                 config_name="timing")
            for mix_name in STANDARD_MIXES
            for name in ("baseline",) + PREFETCHERS]


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    payloads, manifest = run_cells(build_cells(options), options)
    payload_iter = iter(payloads)
    rows: list[list] = []
    speedups: dict[str, list[float]] = {p: [] for p in PREFETCHERS}
    for mix_name in STANDARD_MIXES:
        baseline_ipc = payload_field(next(payload_iter), "ipc")
        cells: list = [mix_name, round(baseline_ipc, 3)]
        for name in PREFETCHERS:
            ipc = payload_field(next(payload_iter), "ipc")
            speedup = ipc / baseline_ipc if baseline_ipc else 0.0
            speedups[name].append(speedup)
            cells.append(round(speedup, 3))
        rows.append(cells)
    rows.append(["gmean", ""] + [round(gmean_speedup(speedups[p]), 3)
                                 for p in PREFETCHERS])
    return ExperimentResult(
        experiment_id="ext01",
        title="Extension: speedup on heterogeneous quad-core mixes",
        headers=["mix", "baseline_ipc"] + list(PREFETCHERS),
        rows=rows,
        notes=("Beyond the paper: per-core mixed workloads.  Expected "
               "shape: the Domino-over-STMS ordering survives consolidation."),
        series={"speedups": speedups},
        manifest=manifest,
    )
