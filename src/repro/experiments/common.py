"""Shared experiment plumbing: options, results, and table helpers.

All experiments follow the same measurement protocol:

* traces of ``n_accesses`` accesses per workload (deterministic seed);
* the leading ``warmup_frac`` of every run trains caches and the
  sampled metadata tables but is excluded from the reported counters —
  the trace-scale analogue of SimFlex checkpoint warming;
* trace-driven experiments use the Table I :class:`SystemConfig`;
  cycle-accounting experiments use :func:`repro.config.timing_config`
  (scaled LLC; see DESIGN.md §2).

Every driver expresses its sweep as a list of :class:`repro.runner.Cell`
objects, runs it with one :func:`repro.runner.run_cells` call (artifact
cache, ``--jobs``, L1-filter fastpath, retries and spans come with it)
and assembles rows from the returned payloads.

``ExperimentOptions.quick()`` shrinks everything for benchmarks/tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from collections.abc import Sequence
from typing import Any

from ..stats.tables import format_table
from ..workloads.server import workload_names


@dataclass(frozen=True)
class ExperimentOptions:
    """Knobs shared by every experiment driver."""

    n_accesses: int = 200_000
    warmup_frac: float = 0.5
    degree: int = 4
    workloads: tuple[str, ...] = field(default_factory=lambda: tuple(workload_names()))
    seed: int = 1234

    def scaled(self, **overrides: Any) -> "ExperimentOptions":
        return replace(self, **overrides)

    @classmethod
    def quick(cls, **overrides: Any) -> "ExperimentOptions":
        """Small sizes for CI/benchmark runs."""
        base = cls(n_accesses=60_000,
                   workloads=("oltp", "web_apache", "media_streaming"))
        return base.scaled(**overrides) if overrides else base

    @property
    def warmup(self) -> int:
        return int(self.n_accesses * self.warmup_frac)


@dataclass
class ExperimentResult:
    """Rows of one regenerated figure/table."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    notes: str = ""
    #: Free-form machine-readable extras (per-workload series etc).
    series: dict = field(default_factory=dict)
    #: :class:`repro.runner.manifest.RunManifest` of the experiment's
    #: cell sweep (cache/parallelism accounting); ``None`` for table2,
    #: which renders static catalogue data without running cells.
    manifest: Any = None

    def render(self) -> str:
        out = format_table(self.headers, self.rows,
                           title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            out += f"\n{self.notes}"
        return out

    def column(self, header: str) -> list:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def payload_field(payload: Any, name: str, default: Any = float("nan")) -> Any:
    """A field from a cell payload, tolerating failed cells.

    Under a degradable execution policy (``keep_going``), cells that
    exhausted their retry budget come back as ``None`` payloads.
    Drivers read fields through this helper so a partially failed sweep
    still renders — missing values surface as ``nan`` in the table
    instead of a ``TypeError`` that would discard the surviving cells.
    """
    if not isinstance(payload, dict):
        return default
    return payload.get(name, default)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 on empty input."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def gmean_speedup(speedups: Sequence[float]) -> float:
    """Geometric mean of speedup ratios (the paper's summary metric)."""
    speedups = list(speedups)
    if not speedups:
        return 1.0
    return math.exp(sum(math.log(max(s, 1e-9)) for s in speedups) / len(speedups))
