"""The benchmark's workloads: which experiments run, at what size and width.

Every workload drives ``repro.experiments.registry.run_experiment`` over
the three quick-suite traces (oltp: pointer chasing, web_apache: short
streams, media_streaming: long streams).  Sizes are cut from the quick
suite's 60 000 accesses so that a 20-second run takes several samples
of coverage_grid and direct_sweep (3-6 s each on the 2-core reference
host).  fig14 cannot go below 20 000 accesses per core, so a
timing_grid sample takes 13-25 s and a run takes one.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seeds whose experiment digests are recorded in ``references.json``.
#: ``HELD_OUT_SEED`` exists to check a change on inputs it was not tuned
#: on: do not tune against it.
REFERENCE_SEED = 1234
HELD_OUT_SEED = 271828

#: The quick suite's traces, shared by every workload.
TRACES = ("oltp", "web_apache", "media_streaming")


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]
    #: Pool width of the untraced passes (the host has 2 cores).
    jobs: int
    n_accesses: int
    #: Rough seconds of one sample (a cold pass in a fresh interpreter)
    #: on the 2-core reference host.  A run takes ``seconds / sample_s``
    #: samples, a count that does not depend on how busy the host is.
    sample_s: float

    def samples(self, seconds: float) -> int:
        return max(1, round(seconds / self.sample_s))

    def nominal_accesses(self) -> int:
        """Simulated memory accesses one pass asks for.

        Counted from the experiments' definitions, not from what the
        program ends up executing, so caching or skipping work shows as
        a higher ``sim_accesses_per_s`` instead of a smaller numerator.
        """
        n = self.n_accesses
        n_traces = len(TRACES)
        if self.name == "coverage_grid":
            # fig11 + fig13: 5 prefetchers per trace, each over n accesses.
            return 2 * n_traces * 5 * n
        if self.name == "timing_grid":
            # fig14: baseline + 5 prefetchers, 4 cores each; the runner
            # gives every core max(n // 2, 20_000) accesses.
            return n_traces * 6 * 4 * max(n // 2, 20_000)
        # direct_sweep: fig02 runs 2 prefetchers plus one baseline miss
        # stream over the measured window (after the 0.5 warm-up); fig05
        # and fig09 run 5 each.
        window = n - n // 2
        return n_traces * (12 * n + window)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="coverage_grid",
        experiments=("fig11", "fig13"),
        jobs=2,
        n_accesses=40_000,
        sample_s=4.5,
    ),
    Workload(
        name="timing_grid",
        experiments=("fig14",),
        jobs=1,
        n_accesses=40_000,
        sample_s=15.0,
    ),
    Workload(
        name="direct_sweep",
        experiments=("fig02", "fig05", "fig09"),
        jobs=1,
        n_accesses=10_000,
        sample_s=3.5,
    ),
)}
