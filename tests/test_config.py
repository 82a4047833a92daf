"""System configuration (Table I) tests."""

import pytest

from repro.config import (BLOCK_SIZE, CacheConfig, SystemConfig,
                          small_test_config, timing_config)
from repro.errors import ConfigError


class TestTable1Defaults:
    def test_paper_values(self):
        config = SystemConfig()
        assert config.n_cores == 4
        assert config.clock_ghz == 4.0
        assert config.l1d.size_bytes == 64 * 1024
        assert config.l1d.ways == 2
        assert config.llc.size_bytes == 4 * 1024 * 1024
        assert config.llc.ways == 16
        assert config.memory_latency_ns == 45.0
        assert config.peak_bandwidth_gbps == 37.5
        assert config.prefetch_buffer_blocks == 32
        assert config.prefetch_degree == 4
        assert config.active_streams == 4
        assert config.sampling_probability == 0.125
        assert config.ht_entries == 16 * 1024 * 1024
        assert config.eit_rows == 2 * 1024 * 1024
        assert config.eit_entries_per_super == 3

    def test_derived_latencies(self):
        config = SystemConfig()
        assert config.memory_latency_cycles == 180  # 45 ns at 4 GHz
        assert config.llc_latency_cycles == 18
        assert config.bytes_per_cycle == pytest.approx(9.375)
        assert config.cycles_per_block_transfer == pytest.approx(BLOCK_SIZE / 9.375)

    def test_ht_deployed_size_is_85mb_equivalent(self):
        # 16M entries at ~5 B/entry is the paper's "85 MB"; we check the
        # row structure instead: 12 entries per 64 B row.
        config = SystemConfig()
        assert config.ht_row_entries == 12


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"n_cores": 0},
        {"sampling_probability": 1.5},
        {"prefetch_degree": 0},
        {"active_streams": 0},
        {"ht_entries": 0},
        {"eit_rows": -1},
        {"memory_latency_ns": 0},
        {"ht_row_entries": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"issue_width": 0},
        {"issue_width": -4},
        {"rob_entries": 0},
        {"l1_mshrs": 0},
        {"clock_ghz": 0.0},
        {"clock_ghz": -4.0},
        {"prefetch_drop_backlog_blocks": -1},
    ])
    def test_core_parameters_the_timing_model_cannot_run_rejected(self, kwargs):
        # issue_width=0 used to construct and then divide by zero
        # mid-simulation; the timing kernel's drop test also relies on
        # a non-negative backlog bound.
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)
        assert SystemConfig(prefetch_drop_backlog_blocks=0)

    def test_scaled_copy(self):
        config = SystemConfig().scaled(prefetch_degree=1)
        assert config.prefetch_degree == 1
        assert SystemConfig().prefetch_degree == 4


class TestDerivedConfigs:
    def test_small_test_config_is_smaller(self):
        small = small_test_config()
        assert small.l1d.size_bytes < SystemConfig().l1d.size_bytes
        assert small.ht_entries < SystemConfig().ht_entries

    def test_small_test_config_overrides(self):
        small = small_test_config(prefetch_degree=2)
        assert small.prefetch_degree == 2

    def test_timing_config_scales_llc_only(self):
        timing = timing_config()
        assert timing.llc.size_bytes == 256 * 1024
        assert timing.l1d.size_bytes == SystemConfig().l1d.size_bytes
        assert timing.memory_latency_cycles == 180

    def test_cache_config_geometry(self):
        cache = CacheConfig(64 * 1024, 2)
        assert cache.n_sets == 512
        assert cache.n_blocks == 1024
