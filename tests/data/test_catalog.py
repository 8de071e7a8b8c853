"""Tests for the catalog and statistics."""

import pytest

from repro.common.errors import SchemaError
from repro.data.catalog import Catalog, TableStats
from repro.data.schema import Schema, INT, STR
from repro.data.table import Table


def build_catalog():
    cat = Catalog()
    users = Table(
        "users",
        Schema.of(("uid", INT), ("name", STR)),
        [(1, "a"), (2, "b"), (3, "a")],
    )
    posts = Table(
        "posts",
        Schema.of(("pid", INT), ("author", INT)),
        [(10, 1), (11, 1), (12, 3)],
    )
    cat.add_table(users)
    cat.add_table(posts)
    return cat


class TestCatalog:
    def test_table_lookup(self):
        cat = build_catalog()
        assert len(cat.table("users")) == 3
        assert cat.has_table("posts")
        assert not cat.has_table("zzz")

    def test_unknown_table_raises(self):
        with pytest.raises(SchemaError):
            build_catalog().table("zzz")

    def test_duplicate_registration_rejected(self):
        cat = build_catalog()
        dup = Table("users", Schema.of(("uid", INT)), [])
        with pytest.raises(SchemaError):
            cat.add_table(dup)

    def test_table_names_sorted(self):
        assert build_catalog().table_names() == ["posts", "users"]


class TestTableStats:
    def test_from_table(self):
        cat = build_catalog()
        stats = cat.stats("users")
        assert stats.row_count == 3
        assert stats.distinct["uid"] == 3
        assert stats.distinct["name"] == 2
        assert stats.minima["uid"] == 1
        assert stats.maxima["uid"] == 3

    def test_empty_table_stats(self):
        t = Table("e", Schema.of(("x", INT)), [])
        stats = TableStats.from_table(t)
        assert stats.row_count == 0
        assert stats.distinct["x"] == 0
        assert "x" not in stats.minima
