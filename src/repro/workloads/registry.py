"""Registry of all Table I query variants, keyed Q1A..Q5B, plus the
per-figure query lists the paper-shape tests run."""

from __future__ import annotations

import functools
from typing import Dict, List

from repro.workloads import ibm, tpch2, tpch5, tpch9, tpch17
from repro.workloads.base import WorkloadQuery


def _magic(fn):
    """Derive the magic-plan builder from a family builder."""
    return functools.partial(fn, magic=True)


QUERIES: Dict[str, WorkloadQuery] = {}


def _register(query: WorkloadQuery) -> None:
    QUERIES[query.qid] = query


# -- TPC-H 2 family (Q1) -------------------------------------------------------

_register(WorkloadQuery(
    "Q1A", "TPCH-2 normal", "tpch2",
    baseline=tpch2.q1_normal, magic=_magic(tpch2.q1_normal),
))
_register(WorkloadQuery(
    "Q1B", "TPCH-2 skewed", "tpch2",
    baseline=tpch2.q1_normal, magic=_magic(tpch2.q1_normal), skew=0.5,
))
_register(WorkloadQuery(
    "Q1C", "TPCH-2 remote PARTSUPP", "tpch2",
    baseline=tpch2.q1_normal, magic=_magic(tpch2.q1_normal),
    remote_tables=("partsupp",),
))
_register(WorkloadQuery(
    "Q1D", "TPCH-2 child weaker", "tpch2",
    baseline=tpch2.q1_child_weaker, magic=_magic(tpch2.q1_child_weaker),
))
_register(WorkloadQuery(
    "Q1E", "TPCH-2 parent weaker", "tpch2",
    baseline=tpch2.q1_parent_weaker, magic=_magic(tpch2.q1_parent_weaker),
))

# -- TPC-H 17 family (Q2) ------------------------------------------------------

_register(WorkloadQuery(
    "Q2A", "TPCH-17 normal", "tpch17",
    baseline=tpch17.q2_normal, magic=_magic(tpch17.q2_normal),
    delayed_table="lineitem",
))
_register(WorkloadQuery(
    "Q2B", "TPCH-17 skewed", "tpch17",
    baseline=tpch17.q2_normal, magic=_magic(tpch17.q2_normal), skew=0.5,
    delayed_table="lineitem",
))
_register(WorkloadQuery(
    "Q2C", "TPCH-17 parent stronger", "tpch17",
    baseline=tpch17.q2_parent_stronger,
    magic=_magic(tpch17.q2_parent_stronger),
    delayed_table="lineitem",
))
_register(WorkloadQuery(
    "Q2D", "TPCH-17 child stronger", "tpch17",
    baseline=tpch17.q2_child_stronger,
    magic=_magic(tpch17.q2_child_stronger),
    delayed_table="lineitem",
))
_register(WorkloadQuery(
    "Q2E", "TPCH-17 parent weaker", "tpch17",
    baseline=tpch17.q2_parent_weaker, magic=_magic(tpch17.q2_parent_weaker),
    delayed_table="lineitem",
))

# -- IBM query family (Q3) -----------------------------------------------------

_register(WorkloadQuery(
    "Q3A", "IBM normal", "ibm",
    baseline=ibm.q3_normal, magic=_magic(ibm.q3_normal),
))
_register(WorkloadQuery(
    "Q3B", "IBM skewed", "ibm",
    baseline=ibm.q3_normal, magic=_magic(ibm.q3_normal), skew=0.5,
))
_register(WorkloadQuery(
    "Q3C", "IBM remote PARTSUPP", "ibm",
    baseline=ibm.q3_normal, magic=_magic(ibm.q3_normal),
    remote_tables=("partsupp",),
))
_register(WorkloadQuery(
    "Q3D", "IBM child weaker", "ibm",
    baseline=ibm.q3_child_weaker, magic=_magic(ibm.q3_child_weaker),
))
_register(WorkloadQuery(
    "Q3E", "IBM parent weaker", "ibm",
    baseline=ibm.q3_parent_weaker, magic=_magic(ibm.q3_parent_weaker),
))

# -- TPC-H 5 family (Q4): single block, no magic variant ----------------------

_register(WorkloadQuery(
    "Q4A", "TPCH-5 normal", "tpch5",
    baseline=tpch5.q4_normal, delayed_table="lineitem",
))
_register(WorkloadQuery(
    "Q4B", "TPCH-5 fewer suppliers", "tpch5",
    baseline=tpch5.q4_fewer_suppliers, delayed_table="lineitem",
))

# -- TPC-H 9 family (Q5): single block, no magic variant ----------------------

_register(WorkloadQuery(
    "Q5A", "TPCH-9 normal", "tpch9",
    baseline=tpch9.q5_normal, delayed_table="lineitem",
))
_register(WorkloadQuery(
    "Q5B", "TPCH-9 fewer nations", "tpch9",
    baseline=tpch9.q5_fewer_nations, delayed_table="lineitem",
))


def get_query(qid: str) -> WorkloadQuery:
    try:
        return QUERIES[qid]
    except KeyError:
        raise KeyError(
            "unknown query %r; known: %s" % (qid, sorted(QUERIES))
        ) from None


#: Figure 5/7 (and the delayed 9/11): TPC-H 2 + IBM variants.
FIG5_QUERIES: List[str] = ["Q3A", "Q3B", "Q3D", "Q3E", "Q1A", "Q1B", "Q1D", "Q1E"]
#: Figure 6/8 (and the delayed 10/12): TPC-H 17 variants.
FIG6_QUERIES: List[str] = ["Q2A", "Q2B", "Q2C", "Q2D", "Q2E"]
#: Figure 13/14: join queries and distributed joins.
FIG13_QUERIES: List[str] = ["Q4A", "Q5A", "Q4B", "Q5B", "Q3C", "Q1C"]
