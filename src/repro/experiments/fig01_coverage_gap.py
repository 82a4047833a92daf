"""Figure 1 — the motivating gap: STMS/ISB coverage vs the opportunity.

The paper's opening observation: with unlimited metadata, the
best-performing temporal prefetcher (STMS) captures less than half of
the data misses while Sequitur shows much more repetition is there to
exploit, and PC-localised ISB does worse than global-history STMS.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import ExperimentOptions, ExperimentResult, mean, payload_field


def build_cells(options: ExperimentOptions) -> list[Cell]:
    """Per workload: ISB and STMS trace cells, then the opportunity cell."""
    cells: list[Cell] = []
    for workload in options.workloads:
        cells.append(Cell(kind="trace", workload=workload, prefetcher="isb"))
        cells.append(Cell(kind="trace", workload=workload, prefetcher="stms"))
        cells.append(Cell(kind="opportunity", workload=workload))
    return cells


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    payloads, manifest = run_cells(build_cells(options), options)
    payload_iter = iter(payloads)
    rows: list[list] = []
    isb_covs: list[float] = []
    stms_covs: list[float] = []
    opps: list[float] = []
    for workload in options.workloads:
        isb = payload_field(next(payload_iter), "coverage")
        stms = payload_field(next(payload_iter), "coverage")
        opportunity = payload_field(next(payload_iter), "opportunity")
        isb_covs.append(isb)
        stms_covs.append(stms)
        opps.append(opportunity)
        rows.append([workload, round(isb, 3), round(stms, 3),
                     round(opportunity, 3)])
    rows.append(["average", round(mean(isb_covs), 3), round(mean(stms_covs), 3),
                 round(mean(opps), 3)])
    return ExperimentResult(
        experiment_id="fig01",
        title="Read-miss coverage of ISB and STMS vs Sequitur opportunity",
        headers=["workload", "isb_coverage", "stms_coverage", "opportunity"],
        rows=rows,
        notes=("Paper shape: STMS < 47% of misses on average, ISB below "
               "STMS, both far below the Sequitur opportunity."),
        manifest=manifest,
    )
