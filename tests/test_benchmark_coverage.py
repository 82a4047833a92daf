"""Every registered experiment id has a benchmark regenerating it."""

from pathlib import Path

from benchmarks import test_experiments as experiment_bench
from repro.experiments import experiment_ids

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


def test_bench_parametrised_over_every_experiment():
    marks = [mark for mark in experiment_bench.test_experiment.pytestmark
             if mark.name == "parametrize"]
    assert len(marks) == 1
    argname, values = marks[0].args
    assert argname == "experiment_id"
    assert list(values) == list(experiment_ids())
    assert set(experiment_bench.SHAPE_CHECKS) <= set(experiment_ids())


def test_ablation_benches_exist():
    text = (BENCH_DIR / "test_ablations.py").read_text()
    for knob in ("eit_entries_per_super", "sampling_probability",
                 "active_streams", "stream_end_detection", "prefetch_degree"):
        assert knob in text, f"missing ablation for {knob}"
