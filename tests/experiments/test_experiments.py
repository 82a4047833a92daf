"""Experiment drivers: every registered experiment runs and produces a
well-formed table at tiny sizes, with pinned outputs; a few shape
assertions on the cheap ones."""

import hashlib
import json

import pytest

from repro.errors import UnknownExperimentError
from repro.experiments import (ExperimentOptions, ExperimentResult,
                               experiment_ids, run_experiment)
from repro.runner import execute as execute_mod
from repro.sim import fastpath

TINY = ExperimentOptions(n_accesses=12_000, workloads=("oltp",), seed=7)

#: Experiments cheap enough to run on every test invocation.
CHEAP = ["table1", "table2", "fig01", "fig02", "fig03", "fig04", "fig06",
         "fig12", "fig15", "fig16"]
#: Heavier sweeps, still run but on a single tiny workload.
HEAVY = ["fig05", "fig09", "fig10", "fig11", "fig13", "fig14",
         "ext01", "ext02"]

#: SHA-256 of each experiment's headers/rows/series at ``TINY``.  A
#: refactoring leaves every digest unchanged; editing one means a
#: regenerated figure changed.
PINNED_DIGESTS = {
    "table1": "cac49592f855826ceb3b5f732b6a0b9453330703f83635e3a33da59b759b4a64",
    "table2": "d28249ec9a6262975fc6eb442750c2ff860b2070fc8ddd014b75e542bb0aaae6",
    "fig01": "df6b86d5a26cdf97fed860e1994a0a65e36932687c43e7cd2454b77ce0983649",
    "fig02": "4201c60e5cfe81fa7ebebcae2ea01f4ae943316b5274274f19ff2753a65f2a90",
    "fig03": "073e4eb9f45c30ede03c37ca9b5dd6c91b1c6e1b1d627406a9ace4217da0d7b7",
    "fig04": "377bcd944a9798b5cba512008eb716725d03f3910ff382289e31fe71be7fdc09",
    "fig05": "fcc1e319055ff2f4f53ec8d4d051fe720515c0c4a5c69d1881ac8a5eb4cfd5de",
    "fig06": "23a795e3f7495f5dc162ca4d4e37bb83c683097a36d191c5fb859db1ea4411fc",
    "fig09": "aac00be94450f4a40c817b6e18e728bbd8683845ce692509aab7cf8e5ad5bf4e",
    "fig10": "9b3310d6153942b5d4a111ba7771e9cfa4f4d83c946066a62f0cc8d4ed44b93b",
    "fig11": "61aa0aef68d7e258d8cb22e8b911eefc902d87bbd2689fa49c2881520b836a4a",
    "fig12": "103a6dab23e931ff86ea45744e821797baf681deee4371983a4d3f6e2bed3f44",
    "fig13": "abf59f807b0be733140aa34152414f643d833c07ced459824721f52c3337ee76",
    "fig14": "1c073d5377eb1371181ea0b7dd1ea7bde054d193221e084a484d482d033cbd6d",
    "fig15": "83794402be0751485497872853c0f6672a662d3ea6965e7ffcd7051f3572bd74",
    "fig16": "139419eb18769fe7af2fb1b33a87bb89105cd9b760e7ea59609e99673939565f",
    "ext01": "189c8f0b4e2386cd9fe8dd0390042936302672cd266b8cc8667193e7649f8a96",
    "ext02": "3d6ad5a13b7aa5f88d2bfd912a5c7a2659b81d942d01ed15a28de5756780e65f",
}

#: Experiments with trace, opportunity or lookup-depth cells: the ones
#: whose executors read an L1 filter.  The cycle-model and static
#: experiments never do.
FASTPATH_IDS = ["fig01", "fig02", "fig03", "fig04", "fig05", "fig09",
                "fig10", "fig11", "fig12", "fig13", "fig15", "fig16"]


def digest(result):
    """SHA-256 of everything an experiment reports (perfbench's recipe)."""
    blob = json.dumps({"headers": result.headers, "rows": result.rows,
                       "series": result.series},
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("experiment_id", CHEAP + HEAVY)
def test_experiment_runs_and_renders(experiment_id):
    result = run_experiment(experiment_id, TINY)
    assert digest(result) == PINNED_DIGESTS[experiment_id]
    assert isinstance(result, ExperimentResult)
    assert result.rows, f"{experiment_id} produced no rows"
    text = result.render()
    assert result.title in text
    for header in result.headers:
        assert header in text
    widths = {len(row) for row in result.rows}
    assert widths == {len(result.headers)}


@pytest.mark.parametrize("experiment_id", FASTPATH_IDS)
def test_pinned_digest_with_scalar_build(experiment_id, monkeypatch):
    """Same digests when every filter comes from the scalar ``Cache``
    pass instead of the vectorised kernel."""
    builds = []

    def scalar_build(trace, config):
        builds.append(trace.name)
        return fastpath.build_l1_filter_scalar(trace, config)

    monkeypatch.setattr(fastpath, "build_l1_filter", scalar_build)
    # Filters memoized by earlier tests in this process were built by
    # the vectorised kernel; start from an empty memo.
    monkeypatch.setattr(execute_mod, "_FILTERS", {})
    result = run_experiment(experiment_id, TINY)
    assert builds
    assert digest(result) == PINNED_DIGESTS[experiment_id]


def test_registry_complete():
    ids = experiment_ids()
    assert "fig11" in ids and "table1" in ids
    assert len(ids) == 18
    assert "ext01" in ids and "ext02" in ids
    assert sorted(ids) == sorted(CHEAP + HEAVY) == sorted(PINNED_DIGESTS)


def test_unknown_experiment():
    with pytest.raises(UnknownExperimentError):
        run_experiment("fig99")


def test_fig03_accuracy_improves_with_depth():
    result = run_experiment("fig03", TINY)
    row = result.rows[0]
    assert row[2] >= row[1]  # depth2 >= depth1 accuracy


def test_fig04_match_rate_decreases_with_depth():
    result = run_experiment("fig04", TINY)
    row = result.rows[0]
    assert row[1] >= row[-1]


def test_fig09_monotone_coverage_with_ht_size():
    result = run_experiment("fig09", TINY)
    row = result.rows[0][1:]
    assert row[-1] >= row[0] - 0.02


def test_table1_reflects_paper_parameters():
    result = run_experiment("table1", None)
    text = result.render()
    assert "4 cores" in text
    assert "45 ns" in text
    assert "37.5 GB/s" in text


def test_column_extraction():
    result = run_experiment("fig01", TINY)
    coverages = result.column("stms_coverage")
    assert len(coverages) == len(result.rows)


def test_options_quick_profile():
    quick = ExperimentOptions.quick()
    assert quick.n_accesses < ExperimentOptions().n_accesses
    assert len(quick.workloads) == 3


def test_options_scaled():
    options = ExperimentOptions().scaled(degree=2)
    assert options.degree == 2
    assert options.warmup == options.n_accesses // 2
