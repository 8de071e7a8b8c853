"""The single byte-size authority: every layer must agree with it."""

from repro.common import sizing
from repro.data.schema import Schema


class TestSizing:
    def test_row_nbytes_matches_schema(self):
        schema = Schema.of(
            ("a", "int"), ("b", "float"), ("c", "str"), ("d", "date"),
        )
        expected = sizing.TUPLE_OVERHEAD_NBYTES + 8 + 8 + 24 + 12
        assert sizing.row_nbytes(schema) == expected
        # Schema delegates to sizing, so the two can never diverge.
        assert schema.row_byte_size() == sizing.row_nbytes(schema)

    def test_rows_nbytes_scales(self):
        schema = Schema.of(("a", "int"))
        assert sizing.rows_nbytes(schema, 10) == 10 * sizing.row_nbytes(schema)
        # Optimizer estimates pass float cardinalities.
        assert sizing.rows_nbytes(schema, 2.5) == 2.5 * sizing.row_nbytes(schema)

    def test_key_and_group_overheads(self):
        assert sizing.key_nbytes(3) == 3 * sizing.KEY_COMPONENT_NBYTES
        assert sizing.group_overhead_nbytes(2) == (
            sizing.GROUP_OVERHEAD_NBYTES + 2 * sizing.KEY_COMPONENT_NBYTES
        )

    def test_consumers_share_the_authority(self):
        """Admission estimates, the result cache and buffer-pool table
        pages all weigh the same rows identically."""
        from repro.data.catalog import Catalog
        from repro.exec.context import ExecutionContext
        from repro.service.result_cache import CachedResult
        from repro.storage.buffer import PagedRows
        from repro.storage.governor import MemoryGovernor

        schema = Schema.of(("a", "int"), ("b", "str"))
        rows = [(i, "x") for i in range(5)]
        governor = MemoryGovernor(budget=1 << 40)
        try:
            ctx = ExecutionContext(Catalog(), governor=governor)
            paged = PagedRows(ctx, schema, rows)
            assert paged.slice(0, 5) == rows  # one page
            assert (
                CachedResult(rows, schema, 0.0).byte_size()
                == governor.buffer.resident_bytes
                == sizing.rows_nbytes(schema, 5)
            )
        finally:
            governor.close()
