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
    """Per-event virtual-time charges and network parameters."""

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

    def __init__(
        self,
        tuple_base: float = 1.0e-6,
        predicate_eval: float = 3.0e-7,
        hash_insert: float = 1.2e-6,
        hash_probe: float = 8.0e-7,
        output_build: float = 5.0e-7,
        agg_update: float = 1.0e-6,
        semijoin_probe: float = 4.0e-7,
        aip_insert: float = 3.0e-7,
        aip_build_per_row: float = 3.0e-7,
        manager_invocation: float = 2.0e-4,
        scan_read: float = 5.0e-7,
        spill_page_io: float = 1.0e-4,
        spill_byte_io: float = 2.0e-9,
        network_bandwidth: float = 100e6 / 8,
        network_latency: float = 1.0e-3,
    ):
        self.tuple_base = tuple_base              # any operator touching a tuple
        self.predicate_eval = predicate_eval      # one predicate evaluation
        self.hash_insert = hash_insert            # insert into a hash table
        self.hash_probe = hash_probe              # probe a hash table
        self.output_build = output_build          # materialise one output tuple
        self.agg_update = agg_update              # accumulate one value
        self.semijoin_probe = semijoin_probe      # probe one AIP filter
        self.aip_insert = aip_insert              # feed-forward working-set add
        self.aip_build_per_row = aip_build_per_row  # cost-based state scan
        self.manager_invocation = manager_invocation  # ESTIMATEBENEFIT run
        self.scan_read = scan_read                # read/parse one source tuple
        # Storage-layer spill I/O under a finite memory budget: one
        # fixed seek/syscall charge per page moved, plus a per-byte
        # streaming rate (~500 MB/s).  Unused when no governor runs.
        self.spill_page_io = spill_page_io
        self.spill_byte_io = spill_byte_io
        # Paper Section VI: the distributed join experiment fetches
        # PARTSUPP "across a 100Mb Ethernet".  Cost-Based AIP prices
        # filter shipment on this same link, not on the paper's
        # 10 Mbps estimate.  Bandwidth is bytes/second.
        self.network_bandwidth = network_bandwidth
        self.network_latency = network_latency
