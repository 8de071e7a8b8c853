"""Tests for schemas and attributes."""

import pytest

from repro.common.errors import SchemaError
from repro.data.schema import Attribute, Schema, INT, FLOAT, STR, DATE


class TestAttribute:
    def test_valid_types(self):
        for t in (INT, FLOAT, STR, DATE):
            assert Attribute("x", t).type == t

    def test_invalid_type_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("x", "blob")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("", INT)

    def test_renamed_preserves_type(self):
        a = Attribute("x", FLOAT).renamed("y")
        assert a.name == "y"
        assert a.type == FLOAT

    def test_equality_and_hash(self):
        assert Attribute("x", INT) == Attribute("x", INT)
        assert hash(Attribute("x", INT)) == hash(Attribute("x", INT))
        assert Attribute("x", INT) != Attribute("x", FLOAT)


class TestSchema:
    def setup_method(self):
        self.schema = Schema.of(("a", INT), ("b", STR), ("c", FLOAT))

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(("a", INT), ("a", STR))

    def test_index_of(self):
        assert self.schema.index_of("a") == 0
        assert self.schema.index_of("c") == 2

    def test_index_of_missing_raises(self):
        with pytest.raises(SchemaError):
            self.schema.index_of("zzz")

    def test_contains(self):
        assert "b" in self.schema
        assert "zzz" not in self.schema

    def test_concat(self):
        other = Schema.of(("d", INT))
        joined = self.schema.concat(other)
        assert joined.names == ["a", "b", "c", "d"]

    def test_concat_duplicate_rejected(self):
        with pytest.raises(SchemaError):
            self.schema.concat(Schema.of(("a", INT)))

    def test_project(self):
        projected = self.schema.project(["c", "a"])
        assert projected.names == ["c", "a"]
        assert projected.attribute("c").type == FLOAT

    def test_renamed(self):
        renamed = self.schema.renamed({"a": "x"})
        assert renamed.names == ["x", "b", "c"]

    def test_renamed_unknown_raises(self):
        with pytest.raises(SchemaError):
            self.schema.renamed({"zzz": "y"})

    def test_row_byte_size_positive_and_monotone(self):
        small = Schema.of(("a", INT))
        assert small.row_byte_size() > 0
        assert self.schema.row_byte_size() > small.row_byte_size()

    def test_equality(self):
        assert self.schema == Schema.of(("a", INT), ("b", STR), ("c", FLOAT))
        assert self.schema != Schema.of(("a", INT))
