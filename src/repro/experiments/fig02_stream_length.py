"""Figure 2 — average temporal stream length: STMS vs Digram vs Sequitur.

A *stream* is a run of consecutive correct prefetches.  Two-address
lookup (Digram) locks onto longer streams than single-address lookup
(STMS); the Sequitur decomposition gives the streams an oracle would
pick.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import ExperimentOptions, ExperimentResult, mean, payload_field


def build_cells(options: ExperimentOptions) -> list[Cell]:
    """Per workload: STMS and Digram trace cells, then the opportunity cell."""
    cells: list[Cell] = []
    for workload in options.workloads:
        cells.append(Cell(kind="trace", workload=workload, prefetcher="stms"))
        cells.append(Cell(kind="trace", workload=workload, prefetcher="digram"))
        cells.append(Cell(kind="opportunity", workload=workload))
    return cells


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    payloads, manifest = run_cells(build_cells(options), options)
    payload_iter = iter(payloads)
    rows: list[list] = []
    per_prefetcher: dict[str, list[float]] = {"stms": [], "digram": [], "sequitur": []}
    for workload in options.workloads:
        lengths = [payload_field(next(payload_iter), "mean_stream_length")
                   for _ in per_prefetcher]
        for key, value in zip(per_prefetcher, lengths, strict=True):
            per_prefetcher[key].append(value)
        rows.append([workload] + [round(v, 2) for v in lengths])
    rows.append(["average"] + [round(mean(per_prefetcher[k]), 2)
                               for k in per_prefetcher])
    return ExperimentResult(
        experiment_id="fig02",
        title="Average stream length with STMS, Digram, and Sequitur",
        headers=["workload", "stms", "digram", "sequitur"],
        rows=rows,
        notes=("Paper shape: Sequitur streams longest (7.6 avg in the "
               "paper), Digram longer than STMS (1.4 avg in the paper)."),
        manifest=manifest,
    )
