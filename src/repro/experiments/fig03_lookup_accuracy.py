"""Figure 3 — P(correct next-miss | match) vs number of matched addresses.

Lookups that match more trailing addresses predict the next miss more
accurately; beyond two or three the improvement is marginal — the
paper's justification for stopping at two.
"""

from __future__ import annotations

from ..runner import Cell, run_cells
from .common import ExperimentOptions, ExperimentResult, mean, payload_field

MAX_DEPTH = 5


def build_cells(options: ExperimentOptions) -> list[Cell]:
    """One lookup-depth cell per workload; fig04 reads the same cells."""
    return [Cell(kind="lookup_depth", workload=workload,
                 params=(("max_depth", MAX_DEPTH),))
            for workload in options.workloads]


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    payloads, manifest = run_cells(build_cells(options), options)
    rows: list[list] = []
    per_depth: list[list[float]] = [[] for _ in range(MAX_DEPTH)]
    for workload, payload in zip(options.workloads, payloads, strict=True):
        values = payload_field(payload, "accuracy_given_match",
                               [float("nan")] * MAX_DEPTH)
        for depth, value in enumerate(values):
            per_depth[depth].append(value)
        rows.append([workload] + [round(v, 3) for v in values])
    rows.append(["average"] + [round(mean(vals), 3) for vals in per_depth])
    return ExperimentResult(
        experiment_id="fig03",
        title="Fraction of matching lookups that predict the next miss "
              "correctly, by lookup depth",
        headers=["workload"] + [f"depth{d}" for d in range(1, MAX_DEPTH + 1)],
        rows=rows,
        notes=("Paper shape: accuracy rises steeply from one to two "
               "addresses, then flattens beyond three."),
        manifest=manifest,
    )
