"""Figure 4 — fraction of lookups that find a match, by lookup depth.

The flip side of Fig. 3: deeper lookups are more accurate but match
less often, which is why a pure pair-lookup (Digram) forfeits
opportunity and Domino falls back to a single address.
"""

from __future__ import annotations

from ..runner import run_cells
from .common import ExperimentOptions, ExperimentResult, mean, payload_field
from .fig03_lookup_accuracy import MAX_DEPTH, build_cells


def run(options: ExperimentOptions | None = None) -> ExperimentResult:
    options = options or ExperimentOptions()
    payloads, manifest = run_cells(build_cells(options), options)
    rows: list[list] = []
    per_depth: list[list[float]] = [[] for _ in range(MAX_DEPTH)]
    for workload, payload in zip(options.workloads, payloads, strict=True):
        values = payload_field(payload, "match_rate",
                               [float("nan")] * MAX_DEPTH)
        for depth, value in enumerate(values):
            per_depth[depth].append(value)
        rows.append([workload] + [round(v, 3) for v in values])
    rows.append(["average"] + [round(mean(vals), 3) for vals in per_depth])
    return ExperimentResult(
        experiment_id="fig04",
        title="Fraction of lookups that find a match in the history, "
              "by lookup depth",
        headers=["workload"] + [f"depth{d}" for d in range(1, MAX_DEPTH + 1)],
        rows=rows,
        notes="Paper shape: match rate decreases monotonically with depth.",
        manifest=manifest,
    )
