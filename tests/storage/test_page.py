"""Column pages: reconstruct and byte accounting."""

import pytest

from repro.common.sizing import rows_nbytes
from repro.data.schema import Schema
from repro.storage.page import ColumnPage


@pytest.fixture
def schema():
    return Schema.of(("a", "int"), ("b", "str"), ("c", "float"))


def _rows(n):
    return [(i, "s%d" % i, i * 0.5) for i in range(n)]


class TestColumnPage:
    def test_roundtrip(self, schema):
        rows = _rows(10)
        page = ColumnPage(rows, schema)
        assert page.rows() == rows
        assert page.row(3) == rows[3]
        assert len(page) == 10

    def test_nbytes_matches_sizing(self, schema):
        rows = _rows(7)
        page = ColumnPage(rows, schema)
        assert page.nbytes == rows_nbytes(schema, 7)

    def test_empty_page(self, schema):
        page = ColumnPage([], schema)
        assert page.rows() == []
        assert page.nbytes == 0

