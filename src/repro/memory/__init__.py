"""Memory-hierarchy substrate: caches, prefetch buffer, DRAM model.

This package provides the hardware structures the paper's evaluation
depends on: a set-associative L1-D and LLC, the 32-block prefetch buffer
that sits next to the L1-D, a DRAM model with latency and
shared-bandwidth accounting (no banks, as in the paper's cycle model),
and an off-chip metadata traffic ledger used to charge History Table /
Index Table accesses (Fig. 15).  Outstanding misses are bounded by the
``config.l1_mshrs`` count inside :mod:`repro.sim.timing`.
"""

from .block import block_of, page_of, page_offset_of
from .cache import Cache, CacheStats
from .dram import DramModel, BandwidthLedger
from .hierarchy import MemoryHierarchy, AccessOutcome
from .metadata import MetadataTraffic
from .prefetch_buffer import PrefetchBuffer
from .replacement import LruPolicy, FifoPolicy, RandomPolicy, make_policy

__all__ = [
    "AccessOutcome",
    "BandwidthLedger",
    "Cache",
    "CacheStats",
    "DramModel",
    "FifoPolicy",
    "LruPolicy",
    "MemoryHierarchy",
    "MetadataTraffic",
    "PrefetchBuffer",
    "RandomPolicy",
    "block_of",
    "make_policy",
    "page_of",
    "page_offset_of",
]
