"""Benchmark: regenerate every registered experiment at quick scale.

One benchmark per id in :func:`repro.experiments.experiment_ids`; each
must produce rows, and the experiments with a cheap shape invariant
also check it (``SHAPE_CHECKS``).
"""

import pytest

from repro.experiments import experiment_ids


def _fig01(result):
    # On average, STMS must sit at or below the Sequitur opportunity
    # (per-workload slack: at reduced trace sizes the engine can exceed
    # the conservative grammar-based estimate on spatial workloads).
    average = result.rows[-1]
    assert average[2] <= average[3] + 0.12


def _fig03(result):
    for row in result.rows:
        assert row[2] >= row[1] - 0.05  # depth 2 at least as accurate


def _fig04(result):
    for row in result.rows:
        assert row[1] >= row[-1] - 1e-9  # shallower matches more often


def _fig06(result):
    by_name = {row[0]: row for row in result.rows}
    assert by_name["stms"][1] == 2
    assert by_name["domino"][1] == 1


#: Extra assertions on top of "the experiment produced rows".
SHAPE_CHECKS = {"fig01": _fig01, "fig03": _fig03, "fig04": _fig04,
                "fig06": _fig06}


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment(run_quick, experiment_id):
    result = run_quick(experiment_id)
    assert result.rows
    check = SHAPE_CHECKS.get(experiment_id)
    if check is not None:
        check(result)
