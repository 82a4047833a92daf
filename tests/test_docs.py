"""Documentation consistency: the docs must track the code."""

import re
from pathlib import Path

import pytest

from repro.experiments import experiment_ids
from repro.workloads import workload_names

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def design_md():
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def readme_md():
    return (ROOT / "README.md").read_text()


@pytest.fixture(scope="module")
def experiments_md():
    return (ROOT / "EXPERIMENTS.md").read_text()


def test_core_docs_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (ROOT / name).exists(), f"{name} missing"


def test_design_confirms_paper_identity(design_md):
    assert "Domino Temporal Data Prefetcher" in design_md
    assert "HPCA 2018" in design_md
    assert "10.1109/HPCA.2018.00021" in design_md


def test_design_indexes_every_paper_experiment(design_md):
    for fig in ("Fig 1", "Fig 2", "Fig 3", "Fig 4", "Fig 5", "Fig 6",
                "Fig 9", "Fig 10", "Fig 11", "Fig 12", "Fig 13",
                "Fig 14", "Fig 15", "Fig 16", "Table I", "Table II"):
        assert fig in design_md, f"DESIGN.md missing {fig}"


def test_experiments_md_covers_all_registered_ids(experiments_md):
    for experiment_id in experiment_ids():
        assert experiment_id in experiments_md, (
            f"EXPERIMENTS.md missing row for {experiment_id}")


def test_experiments_md_documents_deviations(experiments_md):
    assert "deviation" in experiments_md.lower()


def test_readme_names_the_paper_and_quickstart(readme_md):
    assert "HPCA 2018" in readme_md
    assert "pip install -e ." in readme_md
    assert "simulate_trace" in readme_md


def test_design_lists_every_workload(design_md, readme_md):
    # The workload catalogue lives in code; the docs reference the suite.
    assert "nine" in design_md.lower() or "nine" in readme_md.lower()
    corpus = (design_md + readme_md).lower()
    for workload in workload_names():
        variants = (workload, workload.replace("_", " "),
                    workload.replace("_", "-"))
        assert any(v in corpus for v in variants), f"docs missing {workload}"


def test_documented_env_knobs_exist_in_code():
    # A switch deleted from the code must not linger in the docs.
    docs = [ROOT / "README.md", ROOT / "DESIGN.md",
            *sorted((ROOT / "docs").glob("*.md"))]
    named = set()
    for doc in docs:
        named |= set(re.findall(r"DOMINO_[A-Z_]+", doc.read_text()))
    assert named, "expected the docs to name at least one DOMINO_ knob"
    source = "\n".join(p.read_text() for p in (ROOT / "src").rglob("*.py"))
    read = set(re.findall(r"[\"'](DOMINO_[A-Z_]+)[\"']", source))
    stale = sorted(named - read)
    assert not stale, f"docs name knobs the code never reads: {stale}"
