"""System configuration mirroring Table I of the paper.

The paper evaluates a four-core SPARC v9 chip at 4 GHz with 64 KB 2-way
L1-D caches, a 4 MB 16-way shared LLC, 45 ns main memory, and 37.5 GB/s of
peak off-chip bandwidth.  :class:`SystemConfig` captures those parameters
(converted to cycles where appropriate) plus the prefetcher-environment
parameters shared by all evaluated designs (32-block prefetch buffer near
the L1-D, prefetch degree, four active streams, 12.5 % metadata sampling).

All simulators and prefetchers in this repository read their parameters
from a single :class:`SystemConfig` instance so an experiment is fully
described by (workload config, system config, prefetcher name).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ConfigError

#: Cache block (line) size in bytes used throughout the paper.
BLOCK_SIZE = 64
#: log2(BLOCK_SIZE); byte address -> block address shift.
BLOCK_SHIFT = 6
#: 4 KB pages; used by the VLDP spatial prefetcher.
PAGE_SHIFT = 12
#: Blocks per 4 KB page.
BLOCKS_PER_PAGE = 1 << (PAGE_SHIFT - BLOCK_SHIFT)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache."""

    size_bytes: int
    ways: int
    block_bytes: int = BLOCK_SIZE
    hit_latency: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.block_bytes <= 0:
            raise ConfigError("cache geometry values must be positive")
        if self.size_bytes % (self.ways * self.block_bytes) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways} ways of {self.block_bytes}-byte blocks"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets in the cache."""
        return self.size_bytes // (self.ways * self.block_bytes)

    @property
    def n_blocks(self) -> int:
        """Total block frames in the cache."""
        return self.size_bytes // self.block_bytes


@dataclass(frozen=True)
class SystemConfig:
    """Full system parameters (Table I of the paper).

    Latencies are in core cycles at ``clock_ghz``.  The defaults reproduce
    the paper's configuration; tests and benchmarks shrink the metadata
    tables for speed, which the paper's own sensitivity analysis (Figs. 9
    and 10) shows is the right knob to trade coverage for footprint.
    """

    # -- chip ----------------------------------------------------------
    n_cores: int = 4
    clock_ghz: float = 4.0
    rob_entries: int = 128
    lsq_entries: int = 64
    issue_width: int = 4

    # -- caches --------------------------------------------------------
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(64 * 1024, 2, hit_latency=2))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(4 * 1024 * 1024, 16, hit_latency=18))
    l1_mshrs: int = 32
    llc_mshrs: int = 64

    # -- memory --------------------------------------------------------
    memory_latency_ns: float = 45.0
    peak_bandwidth_gbps: float = 37.5

    # -- prefetcher environment (Section IV-D) --------------------------
    prefetch_buffer_blocks: int = 32
    prefetch_degree: int = 4
    active_streams: int = 4
    sampling_probability: float = 0.125
    #: History Table capacity in miss entries (paper default: 16 M).
    ht_entries: int = 16 * 1024 * 1024
    #: Triggering-event addresses stored per HT row (one cache block).
    ht_row_entries: int = 12
    #: Enhanced Index Table rows (paper default: 2 M).
    eit_rows: int = 2 * 1024 * 1024
    #: Super-entries per EIT row.
    eit_assoc: int = 4
    #: (address, pointer) entries per super-entry ("three in our configuration").
    eit_entries_per_super: int = 3
    #: Enable the stream-end detection heuristic of STMS/Digram/Domino.
    stream_end_detection: bool = True
    #: Timing model only: drop prefetch requests when the prefetch-class
    #: channel backlog exceeds this many block-service times.  A safety
    #: valve against unbounded queue growth under saturation; demand is
    #: already protected by the priority lane.
    prefetch_drop_backlog_blocks: int = 128

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigError("n_cores must be positive")
        if not (0.0 <= self.sampling_probability <= 1.0):
            raise ConfigError("sampling_probability must lie in [0, 1]")
        if self.prefetch_degree <= 0:
            raise ConfigError("prefetch_degree must be positive")
        if self.active_streams <= 0:
            raise ConfigError("active_streams must be positive")
        if self.ht_entries <= 0 or self.eit_rows <= 0:
            raise ConfigError("metadata table sizes must be positive")
        if self.ht_row_entries <= 0 or self.eit_entries_per_super <= 0:
            raise ConfigError("metadata row geometry must be positive")
        if self.memory_latency_ns <= 0 or self.peak_bandwidth_gbps <= 0:
            raise ConfigError("memory parameters must be positive")
        if (self.clock_ghz <= 0 or self.issue_width <= 0
                or self.rob_entries <= 0 or self.l1_mshrs <= 0):
            raise ConfigError("core parameters (clock_ghz, issue_width, "
                              "rob_entries, l1_mshrs) must be positive")
        if self.prefetch_drop_backlog_blocks < 0:
            raise ConfigError("prefetch_drop_backlog_blocks must be non-negative")

    # -- derived timing quantities --------------------------------------
    @property
    def memory_latency_cycles(self) -> int:
        """Round-trip main-memory latency in core cycles (45 ns @ 4 GHz = 180)."""
        return round(self.memory_latency_ns * self.clock_ghz)

    @property
    def llc_latency_cycles(self) -> int:
        """LLC hit latency in cycles."""
        return self.llc.hit_latency

    @property
    def bytes_per_cycle(self) -> float:
        """Peak off-chip bytes deliverable per core cycle (shared)."""
        return self.peak_bandwidth_gbps / self.clock_ghz

    @property
    def cycles_per_block_transfer(self) -> float:
        """Cycles the off-chip channel is occupied per 64 B block."""
        return BLOCK_SIZE / self.bytes_per_cycle

    # -- convenience ----------------------------------------------------
    def scaled(self, **overrides: Any) -> "SystemConfig":
        """Return a copy with the given fields replaced.

        Example::

            small = SystemConfig().scaled(ht_entries=1 << 16, eit_rows=1 << 12)
        """
        return replace(self, **overrides)


def timing_config(**overrides: Any) -> SystemConfig:
    """Configuration for the cycle-accounting experiments (Fig. 14/15).

    Identical to Table I except the LLC is scaled down to 256 KB.  The
    paper's workloads have 10–60 GB datasets against a 4 MB LLC (ratio
    ≈ 2500:1), which makes the LLC nearly useless for data — the very
    premise of the paper.  Our synthetic traces must keep their
    recurring footprint near 1 MB so that streams repeat within a
    tractable trace length, so the LLC is scaled by the same factor to
    preserve the dataset-to-LLC ratio (standard scaled-down simulation
    practice; recorded as a substitution in DESIGN.md).
    """
    base = SystemConfig(llc=CacheConfig(256 * 1024, 8, hit_latency=18))
    return base.scaled(**overrides) if overrides else base


def small_test_config(**overrides: Any) -> SystemConfig:
    """A deliberately small configuration for fast unit tests.

    Shrinks the metadata tables and caches so tests run in milliseconds
    while still exercising capacity-pressure code paths (evictions, LRU
    replacement in the EIT, HT wrap-around).
    """
    base = SystemConfig(
        l1d=CacheConfig(8 * 1024, 2, hit_latency=2),
        llc=CacheConfig(64 * 1024, 8, hit_latency=18),
        ht_entries=1 << 14,
        eit_rows=1 << 10,
    )
    return base.scaled(**overrides) if overrides else base
