"""Fixed-capacity column pages.

A :class:`ColumnPage` holds up to :data:`PAGE_ROWS` tuples of one
schema in columnar layout (one Python list per attribute).  A scan
builds each page from its slice of a table's row list the first time
it reads it (:class:`~repro.storage.buffer.PagedRows`); pages are
immutable afterwards, which is what lets the buffer manager evict and
reload them freely: a reloaded page reconstructs exactly the tuples it
was built from.

Byte accounting goes through :mod:`repro.common.sizing` so a page
"weighs" precisely what the same rows weigh in every other budgeting
layer.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.sizing import rows_nbytes

Row = Tuple

#: Default page capacity, in rows.  Small enough that modest budgets
#: hold several pages; large enough that per-page overheads amortise.
PAGE_ROWS = 256


class ColumnPage:
    """An immutable columnar block of rows sharing one schema."""

    __slots__ = ("columns", "n_rows", "nbytes")

    def __init__(self, rows: List[Row], schema):
        width = len(schema)
        self.n_rows = len(rows)
        self.columns = [[row[i] for row in rows] for i in range(width)]
        self.nbytes = rows_nbytes(schema, self.n_rows)

    def row(self, index: int) -> Row:
        """Reconstruct one tuple by page-local index."""
        return tuple(column[index] for column in self.columns)

    def column(self, index: int) -> List:
        """One attribute's values across the page (zero-copy)."""
        return self.columns[index]

    def rows(self) -> List[Row]:
        """Reconstruct every tuple, in build order."""
        return list(zip(*self.columns)) if self.columns else []

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return "ColumnPage(%d rows, %d bytes)" % (self.n_rows, self.nbytes)

