"""Catalog: tables plus the statistics the optimizer estimates from.

Per table the catalog holds the row count and, per column, the exact
distinct-value count and the minimum and maximum (computed by scanning
the generated rows).  It holds no keys or foreign keys: Section V-A of
the paper has Tukwila's cost modeler use key and foreign-key
information for join selectivity, but this repository's estimator
(:mod:`repro.optimizer.estimator`) works from distinct counts and
min/max alone (DESIGN.md section 14).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import OptimizerError, SchemaError
from repro.data.table import Table


class TableStats:
    """Optimizer-facing statistics for one table."""

    __slots__ = ("row_count", "distinct", "minima", "maxima")

    def __init__(
        self,
        row_count: int,
        distinct: Dict[str, int],
        minima: Optional[Dict[str, object]] = None,
        maxima: Optional[Dict[str, object]] = None,
    ):
        self.row_count = row_count
        self.distinct = dict(distinct)
        self.minima = dict(minima or {})
        self.maxima = dict(maxima or {})

    @classmethod
    def from_table(cls, table: Table) -> "TableStats":
        """Compute exact statistics by scanning a materialised table."""
        distinct: Dict[str, int] = {}
        minima: Dict[str, object] = {}
        maxima: Dict[str, object] = {}
        for attr in table.schema:
            col = table.column(attr.name)
            distinct[attr.name] = len(set(col))
            if col:
                minima[attr.name] = min(col)
                maxima[attr.name] = max(col)
        return cls(len(table), distinct, minima, maxima)


class Catalog:
    """A namespace of tables and their statistics."""

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._stats: Dict[str, TableStats] = {}

    # -- registration -------------------------------------------------

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise SchemaError("table %r already registered" % table.name)
        self._tables[table.name] = table
        self._stats[table.name] = TableStats.from_table(table)

    # -- lookup -------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError("unknown table %r" % name) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def stats(self, name: str) -> TableStats:
        try:
            return self._stats[name]
        except KeyError:
            raise OptimizerError("no statistics for table %r" % name) from None
