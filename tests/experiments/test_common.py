"""Experiment plumbing: table helpers."""

import pytest

from repro.experiments.common import gmean_speedup, mean


def test_mean_and_gmean():
    assert mean([1.0, 3.0]) == 2.0
    assert mean([]) == 0.0
    assert gmean_speedup([2.0, 0.5]) == pytest.approx(1.0)
    assert gmean_speedup([]) == 1.0
