"""Record the reference digests that ``run.py`` checks outputs against.

    python3 perfbench/record.py

Runs one cold pass per workload for the reference seed and the held-out
seed and writes their experiment digests to ``references.json``.  Only
re-record when a change is meant to alter simulated results, or when a
workload's size changes; a speed-up must leave the digests unchanged.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from run import HERE, Runner
from workloads import HELD_OUT_SEED, REFERENCE_SEED, WORKLOADS


def main() -> int:
    refs: dict[str, dict] = {}
    numpy = "?"
    for spec in WORKLOADS.values():
        seeds = {}
        for seed in (REFERENCE_SEED, HELD_OUT_SEED):
            runner = Runner(HERE.parent, spec.name, seed,
                            deadline=time.monotonic() + 600)
            result = runner.child("measure", "--jobs", str(spec.jobs))
            if result is None or result["cold"]["errors"] or runner.tally.failed:
                print(f"record: {spec.name} seed {seed} failed: "
                      f"{runner.tally.problems}", file=sys.stderr)
                return 1
            seeds[str(seed)] = result["cold"]["digests"]
            numpy = runner.numpy
            print(f"{spec.name} seed {seed}: {seeds[str(seed)]}")
        refs[spec.name] = {"n_accesses": spec.n_accesses, "seeds": seeds}
    document = {
        "about": (f"Experiment digests at seed {REFERENCE_SEED} and at the "
                  f"held-out seed {HELD_OUT_SEED}; do not tune on the "
                  "held-out seed."),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy},
        "workloads": refs,
    }
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
