"""The page-native execution unit: a column batch.

A :class:`ColumnBatch` is one arrival run of rows held
column-at-a-time (one sequence per attribute) so operators can evaluate
predicates, gather projections and extract hash keys without first
re-materialising Python tuples.  Unlike a buffer-pool table page (a
row slice, :class:`~repro.storage.buffer.PagedRows`) it carries no
byte accounting and no schema — it is a transient dataflow value that
lives for exactly one hop between two operators.

The batch is *dual-representation*.  A row-born batch (what a scan
produces) keeps the arrival's row list and materialises a column only
when a kernel actually touches it — a predicate over two attributes of
a sixteen-column table transposes two columns, not sixteen, and a
consumer that needs tuples back (every join and sink does) gets the
original list with no transpose at all.  A column-born batch (what a
projection produces) holds plain column lists and transposes once,
C-level, when tuples are demanded.  Either way ``columns[i]`` and
``rows()`` are memoised: repeated access is zero-copy.

The selection-vector convention (DESIGN.md section 4): a predicate
over a batch compiles to a *selection list* — the row indices that
survive, ascending.  :meth:`select` gathers those indices — one row
gather for a row-born batch, per-column for a column-born one — and a
full selection returns the batch itself, so the common nothing-pruned
case is zero-copy end-to-end.

Ordinals: a page pushed inside a merged arrival run (DESIGN.md section
4) carries ``seq``, the global arrival ordinal of each row — or, below
a join, of the source row that triggered it.  Single-input kernels
carry it along (``select`` gathers it); joins and merges stash pages
that carry it and later process their ports in ``seq`` order.  Pages
outside a multi-source run carry None.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Row = Tuple


class _LazyColumns:
    """Column view over a row list, materialised per column on demand.

    Supports exactly what the compiled column kernels use: ``len``,
    indexing, and (via the sequence protocol) iteration.
    """

    __slots__ = ("_rows", "_cols")

    def __init__(self, rows: Sequence[Row], width: int):
        self._rows = rows
        self._cols: List[Optional[list]] = [None] * width

    def __len__(self) -> int:
        return len(self._cols)

    def __getitem__(self, index: int) -> list:
        column = self._cols[index]
        if column is None:
            column = [row[index] for row in self._rows]
            self._cols[index] = column
        return column


class ColumnBatch:
    """An immutable batch of rows in columnar layout."""

    __slots__ = ("columns", "n_rows", "seq", "_rows")

    def __init__(
        self, columns: Sequence, n_rows: int,
        seq: Optional[List[int]] = None,
    ):
        self.columns = columns
        self.n_rows = n_rows
        self.seq = seq
        self._rows: Optional[List[Row]] = None

    @classmethod
    def from_rows(
        cls, rows: Sequence[Row], width: int,
        seq: Optional[List[int]] = None,
    ) -> "ColumnBatch":
        """Wrap a row batch without transposing it: columns materialise
        lazily, one attribute at a time, as kernels touch them.
        ``width`` fixes the column count, which an empty row list could
        not supply."""
        batch = cls.__new__(cls)
        batch.columns = _LazyColumns(rows, width)
        batch.n_rows = len(rows)
        batch.seq = seq
        batch._rows = rows if isinstance(rows, list) else list(rows)
        return batch

    def column(self, index: int):
        """One attribute's values, in row order (memoised)."""
        return self.columns[index]

    def rows(self) -> List[Row]:
        """The batch as tuples, in row order: the original list for a
        row-born batch (zero-copy), one C-level transpose (memoised)
        for a column-born one."""
        rows = self._rows
        if rows is None:
            if len(self.columns):
                rows = list(zip(*self.columns))
            else:
                rows = [()] * self.n_rows
            self._rows = rows
        return rows

    def select(self, selection: List[int]) -> "ColumnBatch":
        """Gather ``selection`` (ascending row indices) out of the
        batch; a full selection returns ``self`` unchanged."""
        if len(selection) == self.n_rows:
            return self
        seq = self.seq
        if seq is not None:
            seq = [seq[i] for i in selection]
        if self._rows is not None:
            rows = self._rows
            return ColumnBatch.from_rows(
                [rows[i] for i in selection], len(self.columns), seq
            )
        return ColumnBatch(
            [[column[i] for i in selection] for column in self.columns],
            len(selection), seq,
        )

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return "ColumnBatch(%d rows x %d cols)" % (
            self.n_rows, len(self.columns),
        )
