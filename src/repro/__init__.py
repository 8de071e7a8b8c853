"""repro — a reproduction of "Sideways Information Passing for
Push-Style Query Processing" (Ives & Taylor, ICDE 2008).

The package implements, from scratch, everything the paper's system
needs: a TPC-H data generator with Zipf skew, a deterministic
virtual-time push engine built on pipelined (symmetric) hash joins and
hash aggregation, a Tukwila-style optimizer layer (cardinality
estimation from distinct counts and min/max, cost model,
source-predicate graph), the pipelined magic-sets baseline, the two
Adaptive Information Passing algorithms (greedy Feed-Forward and the
Cost-Based AIP Manager with distributed filter shipping), the full
Table I workload, and a harness that regenerates every figure of the
evaluation section.

On top of the engine sits a multi-query service layer
(:mod:`repro.service`): a :class:`~repro.service.QueryService` runs a
*stream* of queries on one virtual clock with admission control,
pluggable schedulers and a result cache.  See
``examples/query_service.py`` for a runnable mixed Q1/Q17 stream
replayed with the result cache off and on.

Beneath the engine sits a paged storage layer (:mod:`repro.storage`):
a buffer manager streams base tables as evictable row-slice pages, and a
:class:`~repro.storage.MemoryGovernor` enforces a process-wide state
budget — stateful operators spill hash partitions to disk Grace-style
and replay them on completion, with spill I/O charged to the virtual
clock.  Pass ``memory_budget=`` to ``run_workload_query`` /
``QueryService`` (or ``repro run --memory-budget``) to turn it on;
without it, execution is bit-identical to the storage-free engine.
DESIGN.md section 8 has the full protocol.

The service also has a network front door (:mod:`repro.net`): ``repro
serve`` listens on a TCP socket speaking a versioned length-prefixed
JSON protocol, ``repro.connect()`` returns a socket client, and
:class:`~repro.client.InProcessClient` is its embedded twin — both
hand back the same :class:`~repro.service.result.QueryResult`
bit-identically, with per-tenant hard quotas shedding over-cap
queries with retry hints.  DESIGN.md section 12 has the protocol.

Quickstart::

    from repro import (
        cached_tpch, scan, col, ExecutionContext, execute_plan,
        FeedForwardStrategy,
    )

    catalog = cached_tpch(scale_factor=0.01)
    plan = (
        scan(catalog, "part").filter(col("p_size").eq(1))
        .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
        .build()
    )
    result = execute_plan(
        plan, ExecutionContext(catalog, strategy=FeedForwardStrategy())
    )
    print(len(result), result.metrics.summary())
"""

from repro.data.catalog import Catalog
from repro.data.tpch import TpchConfig, cached_tpch, generate_tpch
from repro.expr.aggregates import AVG, COUNT, MAX, MIN, SUM, AggregateSpec
from repro.expr.expressions import And, Func, Like, Not, Or, col, lit
from repro.plan.builder import PlanBuilder, scan
from repro.plan.validate import validate_plan
from repro.exec.arrival import ArrivalModel
from repro.exec.context import ExecutionContext, ExecutionStrategy
from repro.exec.costs import CostModel
from repro.exec.engine import EngineResult, execute_plan
from repro.aip.feedforward import FeedForwardStrategy
from repro.aip.manager import CostBasedStrategy
from repro.optimizer.magic import apply_magic, magic_filter_set
from repro.distributed.coordinator import DistributedQuery
from repro.distributed.network import NetworkModel
from repro.distributed.site import Placement, Site
from repro.harness.runner import run_workload_query
from repro.harness.concurrent import CompositeStrategy, run_concurrent
from repro.storage.governor import MemoryGovernor
from repro.optimizer.explain import explain
from repro.optimizer.planner import ConjunctiveQuery, plan_query
from repro.sql import parse as parse_sql, sql_to_plan
from repro.service import (
    AdmissionController, QueryResult, QueryService,
    ResultCache, ServiceConfig, ServiceReport, TenantQuota, WorkloadItem,
    parse_workload, plan_signature,
)
from repro.client import Client, InProcessClient, connect
from repro.workloads.registry import QUERIES, get_query

__version__ = "1.2.0"

__all__ = [
    "Catalog", "TpchConfig", "cached_tpch", "generate_tpch",
    "AggregateSpec", "SUM", "MIN", "MAX", "AVG", "COUNT",
    "col", "lit", "And", "Or", "Not", "Like", "Func",
    "PlanBuilder", "scan", "validate_plan",
    "ArrivalModel", "ExecutionContext", "ExecutionStrategy", "CostModel",
    "EngineResult", "execute_plan",
    "FeedForwardStrategy", "CostBasedStrategy",
    "apply_magic", "magic_filter_set",
    "DistributedQuery", "NetworkModel", "Placement", "Site",
    "run_workload_query", "QUERIES", "get_query",
    "run_concurrent", "CompositeStrategy", "MemoryGovernor",
    "explain", "ConjunctiveQuery", "plan_query",
    "parse_sql", "sql_to_plan",
    "QueryService", "ServiceReport", "AdmissionController",
    "ResultCache", "WorkloadItem", "parse_workload",
    "plan_signature",
    "QueryResult", "ServiceConfig", "TenantQuota",
    "Client", "InProcessClient", "connect",
]
