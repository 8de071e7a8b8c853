"""Relational schemas.

A :class:`Schema` is an ordered list of named, typed attributes.  Rows
are plain Python tuples positionally aligned with the schema; the schema
provides name→index resolution, per-row byte-size estimation (used for
the paper's intermediate-state accounting), and schema combinators used
by the plan layer (concatenation for joins, projection).

Attribute names must be unique within a schema.  Workload queries that
reference the same table twice (e.g. the two PARTSUPP scans in the
paper's running example) disambiguate by renaming attributes at scan
time — see :meth:`Schema.renamed`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.common import sizing
from repro.common.errors import SchemaError

#: Type tags.  Dates are ISO-8601 strings so that lexicographic
#: comparison coincides with chronological comparison.
INT = "int"
FLOAT = "float"
STR = "str"
DATE = "date"

_VALID_TYPES = frozenset({INT, FLOAT, STR, DATE})


class Attribute:
    """A named, typed column."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: str):
        if type not in _VALID_TYPES:
            raise SchemaError("unknown attribute type %r for %r" % (type, name))
        if not name:
            raise SchemaError("attribute name must be non-empty")
        self.name = name
        self.type = type

    @property
    def byte_size(self) -> int:
        return sizing.value_nbytes(self.type)

    def renamed(self, name: str) -> "Attribute":
        return Attribute(name, self.type)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Attribute)
            and other.name == self.name
            and other.type == self.type
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type))

    def __repr__(self) -> str:
        return "Attribute(%r, %r)" % (self.name, self.type)


class Schema:
    """An ordered collection of attributes with unique names."""

    __slots__ = ("attributes", "_index")

    def __init__(self, attributes: Iterable[Attribute]):
        self.attributes: Tuple[Attribute, ...] = tuple(attributes)
        index: Dict[str, int] = {}
        for i, attr in enumerate(self.attributes):
            if attr.name in index:
                raise SchemaError("duplicate attribute name %r" % attr.name)
            index[attr.name] = i
        self._index = index

    @classmethod
    def of(cls, *pairs: Tuple[str, str]) -> "Schema":
        """Build a schema from ``(name, type)`` pairs."""
        return cls(Attribute(name, type_) for name, type_ in pairs)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and other.attributes == self.attributes

    def __hash__(self) -> int:
        return hash(self.attributes)

    @property
    def names(self) -> List[str]:
        return [a.name for a in self.attributes]

    def index_of(self, name: str) -> int:
        """Position of attribute ``name``; raises SchemaError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                "no attribute %r in schema %s" % (name, self.names)
            ) from None

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self.index_of(name)]

    def row_byte_size(self) -> int:
        """Estimated bytes to buffer one row of this schema.

        Delegates to :mod:`repro.common.sizing`, the single authority
        every budgeting layer (state metrics, admission control, result
        cache, memory governor) sizes rows through.
        """
        return sizing.row_nbytes(self)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the join of two inputs (names must stay unique)."""
        return Schema(self.attributes + other.attributes)

    def project(self, names: Sequence[str]) -> "Schema":
        return Schema(self.attribute(n) for n in names)

    def renamed(self, mapping: Dict[str, str]) -> "Schema":
        """Rename attributes via ``mapping`` (absent names unchanged)."""
        for old in mapping:
            if old not in self._index:
                raise SchemaError("cannot rename unknown attribute %r" % old)
        return Schema(
            a.renamed(mapping.get(a.name, a.name)) for a in self.attributes
        )

    def __repr__(self) -> str:
        return "Schema(%s)" % ", ".join(
            "%s:%s" % (a.name, a.type) for a in self.attributes
        )
