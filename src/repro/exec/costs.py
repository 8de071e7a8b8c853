"""Cost constants shared by the virtual clock and the optimizer.

The engine charges these per-event costs (virtual seconds) to its clock
as it processes tuples; the cost-based AIP manager uses the *same*
constants to predict the cost of future work, mirroring how Tukwila's
optimizer cost modeler can be re-invoked during execution (Section V).

Absolute values are arbitrary (we are not matching the paper's wall
clock); what matters is that they are internally consistent so relative
comparisons between strategies — who wins, by what factor — hold.
"""

from __future__ import annotations


class CostModel:
    """Per-event virtual-time charges and network parameters.

    Takes no arguments: every instance starts from the same constants,
    and only :func:`~repro.distributed.coordinator.attach_network`
    changes any (the two network fields, from the run's
    :class:`~repro.distributed.network.NetworkModel`)."""

    __slots__ = (
        "tuple_base",
        "predicate_eval",
        "hash_insert",
        "hash_probe",
        "output_build",
        "agg_update",
        "semijoin_probe",
        "aip_insert",
        "aip_build_per_row",
        "manager_invocation",
        "scan_read",
        "spill_page_io",
        "spill_byte_io",
        "network_bandwidth",
        "network_latency",
    )

    def __init__(self):
        self.tuple_base = 1.0e-6            # any operator touching a tuple
        self.predicate_eval = 3.0e-7        # one predicate evaluation
        self.hash_insert = 1.2e-6           # insert into a hash table
        self.hash_probe = 8.0e-7            # probe a hash table
        self.output_build = 5.0e-7          # materialise one output tuple
        self.agg_update = 1.0e-6            # accumulate one value
        self.semijoin_probe = 4.0e-7        # probe one AIP filter
        self.aip_insert = 3.0e-7            # feed-forward working-set add
        self.aip_build_per_row = 3.0e-7     # cost-based state scan
        self.manager_invocation = 2.0e-4    # ESTIMATEBENEFIT run
        self.scan_read = 5.0e-7             # read/parse one source tuple
        # Storage-layer spill I/O under a finite memory budget: one
        # fixed seek/syscall charge per page moved, plus a per-byte
        # streaming rate (~500 MB/s).  Unused when no governor runs.
        self.spill_page_io = 1.0e-4
        self.spill_byte_io = 2.0e-9
        # Paper Section VI: the distributed join experiment fetches
        # PARTSUPP "across a 100Mb Ethernet".  Cost-Based AIP prices
        # filter shipment on this same link, not on the paper's
        # 10 Mbps estimate.  Bandwidth is bytes/second.
        self.network_bandwidth = 100e6 / 8
        self.network_latency = 1.0e-3
