"""Shared off-chip bandwidth model.

The paper's chip has two memory controllers delivering up to 37.5 GB/s
shared across four cores, with a 45 ns access delay.  The timing results
(Figs. 14 and 15) depend on two properties of that channel:

* every off-chip transfer — demand fill, prefetch fill, metadata read,
  metadata write — occupies the channel for ``64 B / (bytes/cycle)``;
* when the channel is oversubscribed, requests queue, so latency grows.

:class:`BandwidthLedger` is a single-server queue shared by all cores of
a chip: a request arriving at time ``t`` starts service at
``max(t, channel_free)`` and holds the channel for one block-service
time.  The timing model (:mod:`repro.sim.timing`) adds the fixed 45 ns
access latency and inlines :meth:`BandwidthLedger.request` on the
ledger's public state (``demand_free``/``channel_free``/``transfers``/
``busy_cycles``).
"""

from __future__ import annotations


class BandwidthLedger:
    """Two-priority queue model of the shared off-chip channel.

    Real memory controllers prioritise demand fetches over prefetch and
    metadata traffic, so a saturating prefetcher degrades its own
    traffic first.  The model approximates that with two views of one
    server: *demand* requests queue only behind other demand requests,
    while *prefetch-class* requests (prefetches, metadata reads/writes)
    queue behind everything.  ``backlog`` exposes how far the channel
    is running ahead of ``now`` so the prefetcher can drop requests
    under saturation instead of queueing unboundedly.
    """

    def __init__(self, cycles_per_block: float) -> None:
        if cycles_per_block <= 0:
            raise ValueError("cycles_per_block must be positive")
        self.cycles_per_block = cycles_per_block
        self.demand_free = 0.0
        self.channel_free = 0.0
        self.transfers = 0
        self.busy_cycles = 0.0

    def request(self, now: float, demand: bool = True) -> float:
        """Schedule one block transfer arriving at ``now``.

        Returns the queueing delay (cycles the request waited before the
        channel picked it up).  The caller adds its own fixed latency.
        """
        if demand:
            start = self.demand_free if self.demand_free > now else now
            self.demand_free = start + self.cycles_per_block
            # Demand occupancy also delays the prefetch class.
            if self.channel_free < self.demand_free:
                self.channel_free = self.demand_free
        else:
            start = self.channel_free if self.channel_free > now else now
            self.channel_free = start + self.cycles_per_block
        self.transfers += 1
        self.busy_cycles += self.cycles_per_block
        return start - now

    def backlog(self, now: float) -> float:
        """Cycles of queued prefetch-class work ahead of ``now``."""
        return max(0.0, self.channel_free - now)

    def utilization(self, elapsed_cycles: float) -> float:
        """Fraction of ``elapsed_cycles`` the channel was busy."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)
