"""Network model for the distributed simulation.

Links are point-to-point between the master and each remote site; the
paper fetches data "across a 100Mb Ethernet" (Section VI-C), the
default here.  The paper's cost estimates for shipping Bloom filters
"assume 10Mbps data transfer rates" (Section VI); that pessimistic
estimate is not modelled: Cost-Based AIP prices a shipment on the link
it will travel (DESIGN.md section 14).
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import NetworkError

MBPS = 1e6 / 8.0  # bytes per second per Mbps


class Link:
    """One directional link's parameters."""

    __slots__ = ("bandwidth", "latency")

    def __init__(self, bandwidth: float, latency: float):
        if bandwidth <= 0:
            raise NetworkError("bandwidth must be positive")
        if latency < 0:
            raise NetworkError("latency must be non-negative")
        self.bandwidth = bandwidth
        self.latency = latency


class NetworkModel:
    """Named links between the master node and remote sites."""

    def __init__(
        self,
        default_bandwidth: float = 100 * MBPS,
        default_latency: float = 1.0e-3,
    ):
        self._default = Link(default_bandwidth, default_latency)
        self._links: Dict[str, Link] = {}

    def set_link(self, site: str, bandwidth: float, latency: float) -> None:
        self._links[site] = Link(bandwidth, latency)

    def link_to(self, site: str) -> Link:
        return self._links.get(site, self._default)
