"""Figure 10 — Domino coverage vs Enhanced Index Table rows.

Sweeping the EIT row count with the HT fixed at its deployed size; the
paper's coverage saturates at 2 M rows (128 MB).  As with Fig. 9, our
shorter traces saturate at proportionally smaller tables — the plateau
shape is the result.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import ExperimentOptions, ExperimentResult, payload_field

#: EIT row counts swept.
EIT_ROWS = (1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 21)


def build_cells(options: ExperimentOptions) -> list[Cell]:
    """Per workload: Domino at every EIT size (the deployed 2^21 rows is
    fig13's Domino cell)."""
    return [Cell(kind="trace", workload=workload, prefetcher="domino",
                 overrides=(("eit_rows", eit_rows),))
            for workload in options.workloads
            for eit_rows in EIT_ROWS]


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    payloads, manifest = run_cells(build_cells(options), options)
    payload_iter = iter(payloads)
    rows: list[list] = []
    for workload in options.workloads:
        rows.append([workload] + [
            round(payload_field(next(payload_iter), "coverage"), 3)
            for _ in EIT_ROWS])
    return ExperimentResult(
        experiment_id="fig10",
        title="Domino coverage vs EIT rows (HT at deployed size)",
        headers=["workload"] + [f"rows={n}" for n in EIT_ROWS],
        rows=rows,
        notes=("Paper shape: coverage grows with EIT rows and saturates; "
               "the paper deploys 2 M rows (128 MB)."),
        manifest=manifest,
    )
