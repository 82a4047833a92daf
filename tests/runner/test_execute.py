"""Cell executors against their direct library equivalents, and
cross-experiment reuse through one shared store."""

from repro.config import timing_config
from repro.experiments import run_experiment
from repro.runner import Cell, ExecutionPolicy, run_cells, set_policy
from repro.sim.multicore import simulate_multicore
from repro.workloads.mixes import mix_traces
from repro.workloads.suite import WorkloadSuite


def test_mix_multicore_cell_matches_direct_simulation(tiny_options):
    cell = Cell(kind="multicore", workload="data_tier", prefetcher="domino",
                config_name="timing")
    (payload,), _ = run_cells([cell], tiny_options,
                              ExecutionPolicy(use_cache=False))
    per_core = max(tiny_options.n_accesses // 2, 20_000)
    traces = mix_traces("data_tier", per_core,
                        suite=WorkloadSuite(seed=tiny_options.seed),
                        seed=tiny_options.seed)
    direct = simulate_multicore(traces, timing_config(), "domino",
                                warmup_frac=tiny_options.warmup_frac)
    assert payload == {
        "ipc": direct.ipc,
        "coverage": direct.coverage,
        "cycles": direct.cycles,
        "instructions": direct.instructions,
        "bandwidth_utilization": direct.bandwidth_utilization,
    }


def test_experiments_reuse_each_others_cells(tmp_path, tiny_options):
    """fig15 and fig01 are built from fig13's cells, and fig04 from
    fig03's: after the first figure, the second executes nothing."""
    set_policy(ExecutionPolicy(use_cache=True, cache_dir=tmp_path / "c"))
    run_experiment("fig13", tiny_options)
    for experiment_id in ("fig15", "fig01"):
        manifest = run_experiment(experiment_id, tiny_options).manifest
        assert manifest.misses == 0 and manifest.hits == manifest.n_cells > 0
    assert run_experiment("fig03", tiny_options).manifest.misses > 0
    manifest = run_experiment("fig04", tiny_options).manifest
    assert manifest.misses == 0 and manifest.hits == manifest.n_cells > 0
