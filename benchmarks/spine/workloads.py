"""The four workloads: what the server is started with and what it is sent.

Every workload is a closed loop (a connection sends its next query only
after the previous reply) over 1 or 2 connections, so the server is
never offered more load than it completes.  ``--seed`` shuffles the op
order inside each cycle and draws ``wide_scan``'s filter literals; the
server only ever sees the generated query text.

Each workload exists to put a *different* pair of layers under load:

``point_cached``  fixed per-query cost (wire, plan build, cache lookup)
``exec_mix``      multi-scan joins with AIP; one-row "batches"
``wide_scan``     full-page kernels + per-row payload conversion/framing
``exec_spill``    governor, buffer pool, Grace spill to a real temp dir
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

COUNT_PART = "select count(*) as n from part"

BASELINE, FEEDFORWARD, COSTBASED = "baseline", "feedforward", "costbased"


@dataclass(frozen=True)
class Op:
    """One query as sent: text plus the strategy override (None = the
    server's default, feedforward)."""

    text: str
    strategy: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: float
    connections: int
    #: Fixed tail percentile (see ``stats.pick_tail``).
    tail: int
    result_cache: bool
    aip_cache: bool
    memory_budget: Optional[int]
    #: (query text or template, strategies it runs under) per cycle.
    queries: Tuple[Tuple[str, Tuple[Optional[str], ...]], ...]
    #: Template placeholders -> (low, high) the seed draws from.
    literals: Tuple[Tuple[str, float, float], ...] = ()

    def serve_args(self, scale: Optional[float] = None) -> List[str]:
        """Options for ``repro serve`` (never ``--parallel``: the
        worker pool is out of scope for this benchmark)."""
        args = ["--scale", repr(self.scale if scale is None else scale)]
        if not self.result_cache:
            args.append("--no-result-cache")
        if not self.aip_cache:
            args.append("--no-aip-cache")
        if self.memory_budget is not None:
            args += ["--memory-budget", str(self.memory_budget)]
        return args

    def service_config(self):
        """The in-process mirror of :meth:`serve_args`."""
        from repro.service import ServiceConfig

        return ServiceConfig(
            result_cache=self.result_cache, aip_cache=self.aip_cache,
            memory_budget=self.memory_budget,
        )

    def ops(self, seed: int) -> List[Op]:
        """One cycle in canonical order, literals drawn from ``seed``."""
        rng = random.Random(seed)
        values = {
            name: round(rng.uniform(low, high), 2)
            for name, low, high in self.literals
        }
        return [
            Op(text.format(**values), strategy)
            for text, strategies in self.queries
            for strategy in strategies
        ]

    def warmup_ops(self, seed: int) -> List[Op]:
        """Each distinct query text once, rotating through the
        strategies so every strategy's code path has run."""
        seen = {}
        for op in self.ops(seed):
            seen.setdefault(op.text, []).append(op.strategy)
        return [
            Op(text, strategies[index % len(strategies)])
            for index, (text, strategies) in enumerate(seen.items())
        ]


_ONE = (None,)

WORKLOADS = (
    Workload(
        name="point_cached",
        why="result cache on and warm, <=5-row replies, 2 connections: "
            "the engine does nothing, so the fixed per-query cost of "
            "net/sql/optimizer/service is all there is",
        scale=0.005, connections=2, tail=90,
        result_cache=True, aip_cache=True, memory_budget=None,
        queries=(("Q1A", _ONE), ("Q3A", _ONE), ("Q4A", _ONE),
                 (COUNT_PART, _ONE)),
    ),
    Workload(
        name="exec_mix",
        why="caches off, Q1A-Q5A x baseline/feedforward/costbased alone "
            "on the clock: the paper's regime, exec.engine >=95% of the "
            "service time and batches degenerate to one row",
        scale=0.005, connections=1, tail=75,
        result_cache=False, aip_cache=False, memory_budget=None,
        queries=tuple(
            (qid, (BASELINE, FEEDFORWARD, COSTBASED))
            for qid in ("Q1A", "Q2A", "Q3A", "Q4A", "Q5A")
        ),
    ),
    Workload(
        name="wide_scan",
        why="caches off, single-table scan/filter/project returning "
            "8k-29k rows: exec runs full pages and net/result/client "
            "pay a per-row, not per-query, cost",
        scale=0.01, connections=1, tail=90,
        result_cache=False, aip_cache=False, memory_budget=None,
        queries=(
            ("select l_orderkey, l_partkey, l_suppkey, l_quantity, "
             "l_extendedprice, l_shipdate from lineitem "
             "where l_extendedprice < {price}", (BASELINE,)),
            ("select o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
             "o_orderdate from orders where o_totalprice > {total}",
             (BASELINE,)),
            ("select ps_partkey, ps_suppkey, ps_availqty, ps_supplycost "
             "from partsupp where ps_supplycost > {cost}", (BASELINE,)),
        ),
        # Narrow ranges: the reply sizes move by ~1% across seeds, so
        # seeds vary the input without changing the regime.
        literals=(("price", 33800.0, 35300.0), ("total", 1000.0, 4700.0),
                  ("cost", 1.0, 9.0)),
    ),
    Workload(
        name="exec_spill",
        why="caches off under --memory-budget 256k: the governor, buffer "
            "pool and Grace spill do most of the work, and Feed-Forward's "
            "state saving shows in wall time here and nowhere else",
        scale=0.002, connections=1, tail=75,
        result_cache=False, aip_cache=False, memory_budget=256 * 1024,
        queries=tuple(
            (qid, (BASELINE, FEEDFORWARD)) for qid in ("Q2A", "Q4A", "Q5A")
        ),
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
