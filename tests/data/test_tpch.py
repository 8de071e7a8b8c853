"""Tests for the TPC-H generator: determinism, integrity, skew."""

import pytest

from repro.data.tpch import TpchConfig, cached_tpch, generate_tpch


TINY = TpchConfig(scale_factor=0.001, seed=7)


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(TINY)


class TestConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TpchConfig(scale_factor=0)
        with pytest.raises(ValueError):
            TpchConfig(skew=-0.1)

    def test_cardinality_floors(self):
        cfg = TpchConfig(scale_factor=0.0001)
        assert cfg.n_supplier >= 10
        assert cfg.n_part >= 40
        assert cfg.n_customer >= 15

    def test_scaling(self):
        small = TpchConfig(scale_factor=0.01)
        assert small.n_part == 2000
        assert small.n_supplier == 100
        assert small.n_orders == 10 * small.n_customer


class TestGeneration:
    def test_all_tables_present(self, catalog):
        expected = {
            "region", "nation", "supplier", "part",
            "partsupp", "customer", "orders", "lineitem",
        }
        assert set(catalog.table_names()) == expected

    def test_cardinalities(self, catalog):
        assert len(catalog.table("region")) == 5
        assert len(catalog.table("nation")) == 25
        assert len(catalog.table("part")) == TINY.n_part
        assert len(catalog.table("partsupp")) == 4 * TINY.n_part
        assert len(catalog.table("orders")) == TINY.n_orders
        # 1..7 lineitems per order
        n_lines = len(catalog.table("lineitem"))
        assert TINY.n_orders <= n_lines <= 7 * TINY.n_orders

    def test_determinism(self):
        a = generate_tpch(TINY)
        b = generate_tpch(TpchConfig(scale_factor=0.001, seed=7))
        assert a.table("lineitem").rows == b.table("lineitem").rows
        assert a.table("part").rows == b.table("part").rows

    def test_seed_changes_data(self):
        a = generate_tpch(TINY)
        b = generate_tpch(TpchConfig(scale_factor=0.001, seed=8))
        assert a.table("lineitem").rows != b.table("lineitem").rows

    def test_referential_integrity(self, catalog):
        part_keys = set(catalog.table("part").column("p_partkey"))
        supp_keys = set(catalog.table("supplier").column("s_suppkey"))
        order_keys = set(catalog.table("orders").column("o_orderkey"))
        cust_keys = set(catalog.table("customer").column("c_custkey"))

        ps = catalog.table("partsupp")
        assert set(ps.column("ps_partkey")) <= part_keys
        assert set(ps.column("ps_suppkey")) <= supp_keys

        li = catalog.table("lineitem")
        assert set(li.column("l_orderkey")) <= order_keys
        assert set(li.column("l_partkey")) <= part_keys
        assert set(li.column("l_suppkey")) <= supp_keys

        assert set(catalog.table("orders").column("o_custkey")) <= cust_keys

    def test_primary_keys_unique(self, catalog):
        parts = catalog.table("part").column("p_partkey")
        assert len(parts) == len(set(parts))
        ps = catalog.table("partsupp")
        pairs = list(zip(ps.column("ps_partkey"), ps.column("ps_suppkey")))
        assert len(pairs) == len(set(pairs))

    def test_value_domains(self, catalog):
        part = catalog.table("part")
        assert all(1 <= s <= 50 for s in part.column("p_size"))
        assert all(t.split()[-1] in
                   {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
                   for t in part.column("p_type"))
        assert all(b.startswith("Brand#") for b in part.column("p_brand"))
        dates = catalog.table("orders").column("o_orderdate")
        assert all("1992-01-01" <= d <= "1998-08-02" for d in dates)

    def test_receipt_after_ship(self, catalog):
        li = catalog.table("lineitem")
        ships = li.column("l_shipdate")
        receipts = li.column("l_receiptdate")
        assert all(r > s for s, r in zip(ships, receipts))


class TestSkew:
    def test_skew_concentrates_lineitem_parts(self):
        uniform = generate_tpch(TpchConfig(scale_factor=0.002, skew=0.0, seed=7))
        skewed = generate_tpch(TpchConfig(scale_factor=0.002, skew=1.0, seed=7))

        def top_share(catalog):
            col = catalog.table("lineitem").column("l_partkey")
            counts = {}
            for v in col:
                counts[v] = counts.get(v, 0) + 1
            top = sorted(counts.values(), reverse=True)[:10]
            return sum(top) / len(col)

        assert top_share(skewed) > top_share(uniform)

    def test_skew_preserves_integrity(self):
        catalog = generate_tpch(TpchConfig(scale_factor=0.001, skew=0.5, seed=7))
        part_keys = set(catalog.table("part").column("p_partkey"))
        assert set(catalog.table("lineitem").column("l_partkey")) <= part_keys


class TestCache:
    def test_cached_identity(self):
        a = cached_tpch(scale_factor=0.001, seed=7)
        b = cached_tpch(scale_factor=0.001, seed=7)
        assert a is b

    def test_cache_distinguishes_configs(self):
        a = cached_tpch(scale_factor=0.001, seed=7)
        b = cached_tpch(scale_factor=0.001, skew=0.5, seed=7)
        assert a is not b
