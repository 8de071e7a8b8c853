"""Deterministic, scale-factor parameterised TPC-H data generator.

The paper evaluates on 1 GB TPC-H data plus a 1 GB skewed TPC-D variant
produced by the Microsoft skewed-data generator with Zipf factor
``z = 0.5``.  We reproduce both with one pure-Python generator:

* ``skew = 0.0`` gives uniform TPC-H-like data;
* ``skew = 0.5`` draws the foreign keys of LINEITEM and ORDERS (and the
  per-part supplier assignment) from a Zipfian distribution, which is
  the property the paper's "skewed" query variants (Q1B, Q2B, Q3B)
  exercise: a few hot parts/suppliers/customers carry most of the rows.

Scale factor 1.0 corresponds to the standard 1 GB cardinalities
(200,000 parts, 6M lineitems, ...).  Benchmarks run at small scale
factors; the schema, key structure, value domains and predicate
selectivities are preserved, which is what the paper's relative
comparisons depend on.
"""

from __future__ import annotations

import datetime
import functools
from typing import Optional, Tuple

from repro.common.rng import DeterministicRng, ZipfSampler
from repro.data import text
from repro.data.catalog import Catalog
from repro.data.schema import DATE, FLOAT, INT, STR, Schema
from repro.data.table import Table

_EPOCH = datetime.date(1992, 1, 1)
_LAST_ORDER_DAY = (datetime.date(1998, 8, 2) - _EPOCH).days


def _iso(day_offset: int) -> str:
    """ISO date string for ``_EPOCH + day_offset`` days."""
    return (_EPOCH + datetime.timedelta(days=day_offset)).isoformat()


class TpchConfig:
    """Parameters for one generated TPC-H instance.

    Instances with equal parameters generate identical data.
    """

    __slots__ = ("scale_factor", "skew", "seed")

    def __init__(self, scale_factor: float = 0.01, skew: float = 0.0, seed: int = 7):
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.scale_factor = scale_factor
        self.skew = skew
        self.seed = seed

    # Cardinalities: standard TPC-H scaling with small-SF floors so that
    # tiny test instances still have joinable data.
    @property
    def n_supplier(self) -> int:
        return max(10, round(10_000 * self.scale_factor))

    @property
    def n_part(self) -> int:
        return max(40, round(200_000 * self.scale_factor))

    @property
    def n_customer(self) -> int:
        return max(15, round(150_000 * self.scale_factor))

    @property
    def n_orders(self) -> int:
        return 10 * self.n_customer

    def key(self) -> Tuple[float, float, int]:
        return (self.scale_factor, self.skew, self.seed)

    def __repr__(self) -> str:
        return "TpchConfig(sf=%g, skew=%g, seed=%d)" % (
            self.scale_factor, self.skew, self.seed,
        )


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

REGION_SCHEMA = Schema.of(("r_regionkey", INT), ("r_name", STR), ("r_comment", STR))

NATION_SCHEMA = Schema.of(
    ("n_nationkey", INT), ("n_name", STR), ("n_regionkey", INT), ("n_comment", STR),
)

SUPPLIER_SCHEMA = Schema.of(
    ("s_suppkey", INT), ("s_name", STR), ("s_address", STR),
    ("s_nationkey", INT), ("s_phone", STR), ("s_acctbal", FLOAT),
    ("s_comment", STR),
)

PART_SCHEMA = Schema.of(
    ("p_partkey", INT), ("p_name", STR), ("p_mfgr", STR), ("p_brand", STR),
    ("p_type", STR), ("p_size", INT), ("p_container", STR),
    ("p_retailprice", FLOAT), ("p_comment", STR),
)

PARTSUPP_SCHEMA = Schema.of(
    ("ps_partkey", INT), ("ps_suppkey", INT), ("ps_availqty", INT),
    ("ps_supplycost", FLOAT), ("ps_comment", STR),
)

CUSTOMER_SCHEMA = Schema.of(
    ("c_custkey", INT), ("c_name", STR), ("c_address", STR),
    ("c_nationkey", INT), ("c_phone", STR), ("c_acctbal", FLOAT),
    ("c_mktsegment", STR),
)

ORDERS_SCHEMA = Schema.of(
    ("o_orderkey", INT), ("o_custkey", INT), ("o_orderstatus", STR),
    ("o_totalprice", FLOAT), ("o_orderdate", DATE), ("o_orderpriority", STR),
)

LINEITEM_SCHEMA = Schema.of(
    ("l_orderkey", INT), ("l_partkey", INT), ("l_suppkey", INT),
    ("l_linenumber", INT), ("l_quantity", FLOAT), ("l_extendedprice", FLOAT),
    ("l_discount", FLOAT), ("l_shipdate", DATE), ("l_receiptdate", DATE),
)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

class _KeyPicker:
    """Draws foreign-key values, uniformly or Zipf-skewed."""

    def __init__(self, n: int, skew: float, rng: DeterministicRng):
        self._n = n
        self._rng = rng
        self._zipf: Optional[ZipfSampler] = (
            ZipfSampler(n, skew, rng) if skew > 0 else None
        )

    def pick(self) -> int:
        if self._zipf is not None:
            return self._zipf.sample()
        return self._rng.randint(1, self._n)


def _gen_region() -> Table:
    rows = [
        (i, name, "region %s" % name.lower())
        for i, name in enumerate(text.REGIONS)
    ]
    return Table("region", REGION_SCHEMA, rows)


def _gen_nation() -> Table:
    rows = [
        (i, name, region, "nation %s" % name.lower())
        for i, (name, region) in enumerate(text.NATIONS)
    ]
    return Table("nation", NATION_SCHEMA, rows)


def _gen_supplier(config: TpchConfig, rng: DeterministicRng) -> Table:
    rows = []
    for k in range(1, config.n_supplier + 1):
        nationkey = rng.randint(0, len(text.NATIONS) - 1)
        rows.append((
            k,
            "Supplier#%09d" % k,
            "addr-%d" % rng.randint(1, 9999),
            nationkey,
            "%02d-%03d-%03d-%04d" % (
                10 + nationkey, rng.randint(100, 999),
                rng.randint(100, 999), rng.randint(1000, 9999),
            ),
            round(rng.uniform(-999.99, 9999.99), 2),
            "supplier comment %d" % k,
        ))
    return Table("supplier", SUPPLIER_SCHEMA, rows)


def _gen_part(config: TpchConfig, rng: DeterministicRng) -> Table:
    rows = []
    for k in range(1, config.n_part + 1):
        # TPC-H retail price formula: values in [900.00, 2098.99].
        retail = (90000 + (k // 10) % 20001 + 100 * (k % 1000)) / 100.0
        retail = 900.0 + (retail % 1200.0)
        rows.append((
            k,
            text.part_name(rng),
            "Manufacturer#%d" % (1 + k % 5),
            text.brand(k % 5, (k // 5) % 5),
            text.part_type(
                rng.randint(0, 5), rng.randint(0, 4), rng.randint(0, 4)
            ),
            rng.randint(1, 50),
            text.container(rng.randint(0, 4), rng.randint(0, 7)),
            round(retail, 2),
            "part comment %d" % k,
        ))
    return Table("part", PART_SCHEMA, rows)


def _gen_partsupp(config: TpchConfig, rng: DeterministicRng) -> Table:
    """Four suppliers per part; supplier choice is skew-sensitive."""
    picker = _KeyPicker(config.n_supplier, config.skew, rng.fork("ps-supp"))
    rows = []
    for pk in range(1, config.n_part + 1):
        chosen = set()
        while len(chosen) < min(4, config.n_supplier):
            chosen.add(picker.pick())
        for sk in sorted(chosen):
            rows.append((
                pk,
                sk,
                rng.randint(1, 9999),
                round(rng.uniform(1.0, 1000.0), 2),
                "partsupp comment %d/%d" % (pk, sk),
            ))
    return Table("partsupp", PARTSUPP_SCHEMA, rows)


def _gen_customer(config: TpchConfig, rng: DeterministicRng) -> Table:
    rows = []
    for k in range(1, config.n_customer + 1):
        nationkey = rng.randint(0, len(text.NATIONS) - 1)
        rows.append((
            k,
            "Customer#%09d" % k,
            "addr-%d" % rng.randint(1, 9999),
            nationkey,
            "%02d-%03d-%03d-%04d" % (
                10 + nationkey, rng.randint(100, 999),
                rng.randint(100, 999), rng.randint(1000, 9999),
            ),
            round(rng.uniform(-999.99, 9999.99), 2),
            rng.choice(text.MARKET_SEGMENTS),
        ))
    return Table("customer", CUSTOMER_SCHEMA, rows)


def _gen_orders(config: TpchConfig, rng: DeterministicRng) -> Table:
    picker = _KeyPicker(config.n_customer, config.skew, rng.fork("o-cust"))
    rows = []
    for k in range(1, config.n_orders + 1):
        day = rng.randint(0, _LAST_ORDER_DAY)
        rows.append((
            k,
            picker.pick(),
            rng.choice(["O", "F", "P"]),
            round(rng.uniform(1000.0, 400000.0), 2),
            _iso(day),
            rng.choice(text.ORDER_PRIORITIES),
        ))
    return Table("orders", ORDERS_SCHEMA, rows)


def _gen_lineitem(config: TpchConfig, rng: DeterministicRng, orders: Table) -> Table:
    part_picker = _KeyPicker(config.n_part, config.skew, rng.fork("l-part"))
    supp_picker = _KeyPicker(config.n_supplier, config.skew, rng.fork("l-supp"))
    date_idx = orders.schema.index_of("o_orderdate")
    key_idx = orders.schema.index_of("o_orderkey")
    rows = []
    for order in orders:
        order_day = (
            datetime.date.fromisoformat(order[date_idx]) - _EPOCH
        ).days
        for line in range(1, rng.randint(1, 7) + 1):
            qty = float(rng.randint(1, 50))
            price = round(qty * rng.uniform(900.0, 2100.0), 2)
            ship_day = order_day + rng.randint(1, 121)
            receipt_day = ship_day + rng.randint(1, 30)
            rows.append((
                order[key_idx],
                part_picker.pick(),
                supp_picker.pick(),
                line,
                qty,
                price,
                round(rng.uniform(0.0, 0.10), 2),
                _iso(ship_day),
                _iso(receipt_day),
            ))
    return Table("lineitem", LINEITEM_SCHEMA, rows)


def generate_tpch(config: TpchConfig) -> Catalog:
    """Generate a full TPC-H instance and return a populated catalog.

    The catalog carries each table's exact row count, distinct counts
    and min/max, which the optimizer's estimates work from.
    """
    rng = DeterministicRng(config.seed)
    region = _gen_region()
    nation = _gen_nation()
    supplier = _gen_supplier(config, rng.fork("supplier"))
    part = _gen_part(config, rng.fork("part"))
    partsupp = _gen_partsupp(config, rng.fork("partsupp"))
    customer = _gen_customer(config, rng.fork("customer"))
    orders = _gen_orders(config, rng.fork("orders"))
    lineitem = _gen_lineitem(config, rng.fork("lineitem"), orders)

    catalog = Catalog()
    for table in (region, nation, supplier, part, partsupp, customer,
                  orders, lineitem):
        catalog.add_table(table)
    return catalog


@functools.lru_cache(maxsize=8)
def _cached(key: Tuple[float, float, int]) -> Catalog:
    sf, skew, seed = key
    return generate_tpch(TpchConfig(scale_factor=sf, skew=skew, seed=seed))


def cached_tpch(
    scale_factor: float = 0.01, skew: float = 0.0, seed: int = 7
) -> Catalog:
    """Memoised :func:`generate_tpch`, shared across tests and benches.

    Callers must treat the returned catalog as read-only.
    """
    return _cached((scale_factor, skew, seed))
