"""Memory-hierarchy substrate: caches, prefetch buffer, bandwidth ledger.

This package provides the hardware structures the paper's evaluation
depends on: a set-associative cache (the L1-D and the LLC), the
32-block prefetch buffer that sits next to the L1-D, the shared
off-chip bandwidth ledger (no banks, as in the paper's cycle model),
and an off-chip metadata traffic ledger used to charge History Table /
Index Table accesses (Fig. 15).  The cycle model in
:mod:`repro.sim.timing` composes them itself: each core owns its L1-D
and prefetch buffer over a shared LLC and ledger, adds the fixed memory
latency, and bounds outstanding misses by ``config.l1_mshrs``.
"""

from .block import block_of, page_of, page_offset_of
from .cache import Cache, CacheStats
from .dram import BandwidthLedger
from .metadata import MetadataTraffic
from .prefetch_buffer import PrefetchBuffer

__all__ = [
    "BandwidthLedger",
    "Cache",
    "CacheStats",
    "MetadataTraffic",
    "PrefetchBuffer",
    "block_of",
    "page_of",
    "page_offset_of",
]
