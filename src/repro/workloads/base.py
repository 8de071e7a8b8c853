"""Workload query descriptors.

Each Table I entry is a :class:`WorkloadQuery`: an id (Q1A..Q5B), the
data configuration it runs against (uniform or the Zipf-0.5 skewed
instance), optional remote table placement (Q1C/Q3C), and builders for
the baseline bushy plan and — for the multi-block queries — the
magic-sets rewritten plan.

Plans must be rebuilt per execution (logical nodes are bound to one
physical run), hence builders rather than cached plan objects.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.data.catalog import Catalog
from repro.plan.logical import LogicalNode

PlanBuilderFn = Callable[[Catalog], LogicalNode]


class WorkloadQuery:
    """One Table I query variant."""

    __slots__ = (
        "qid", "title", "family", "skew", "remote_tables",
        "_baseline", "_magic", "delayed_table",
    )

    def __init__(
        self,
        qid: str,
        title: str,
        family: str,
        baseline: PlanBuilderFn,
        magic: Optional[PlanBuilderFn] = None,
        skew: float = 0.0,
        remote_tables: Tuple[str, ...] = (),
        delayed_table: str = "partsupp",
    ):
        self.qid = qid
        self.title = title
        self.family = family
        self._baseline = baseline
        self._magic = magic
        #: Zipf factor of the data set this variant runs on (the paper's
        #: skewed variants use the z=0.5 TPC-D generator).
        self.skew = skew
        #: Tables fetched from a remote site (Section VI-C variants).
        self.remote_tables = tuple(remote_tables)
        #: The relation delayed in the Section VI-B experiments.
        self.delayed_table = delayed_table

    @property
    def has_magic(self) -> bool:
        return self._magic is not None

    @property
    def is_distributed(self) -> bool:
        return bool(self.remote_tables)

    def build_baseline(self, catalog: Catalog) -> LogicalNode:
        return self._baseline(catalog)

    def build(self, catalog: Catalog, magic: bool) -> LogicalNode:
        """The plan a strategy runs: the magic-sets rewrite when
        ``magic``, refused for a query without one, else the baseline
        plan."""
        if not magic:
            return self._baseline(catalog)
        if self._magic is None:
            raise ValueError("%s has no magic-sets variant" % self.qid)
        return self._magic(catalog)

    def __repr__(self) -> str:
        return "WorkloadQuery(%s: %s)" % (self.qid, self.title)
