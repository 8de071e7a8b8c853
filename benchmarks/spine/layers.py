"""The per-layer split: re-enact queries in the harness, one layer at a time.

The socket pass can only see a query from outside.  To say where its
time goes, the same ops are re-enacted in the harness process by timing
calls into each layer's *public* functions, in wire order
(SNIPPETS.md Snippet 1's stages, extended with wire/queue/encode)::

    net.protocol   encode_frame / read_frame          request codec
    workloads|sql  get_query(..).build_* | parse + sql_to_plan
    service        plan_signature
    optimizer      estimate_query_state_bytes
    exec           translate, Engine.run              (standalone)
    service        QueryService.submit / run          (the served path)
    service.result QueryOutcome.to_result().to_payload()
    net.protocol   encode_frame / read_frame          response codec
    client         QueryResult.from_payload

Nothing under ``src/`` is patched, so the build/signature/estimate/
translate/engine calls are *second* executions beside the ones inside
``submit``/``run``; ``service.self_us`` is therefore a difference of two
executions and only meaningful where the engine does not run
(``point_cached``) — elsewhere it is noise around a share below 1%.
"""

from __future__ import annotations

import io
import math
import time
from typing import Dict, List, Optional, Sequence

from spans import SpanLog, mean_us
from workloads import BASELINE, COSTBASED, FEEDFORWARD, Op, Workload

#: Spans whose sum is what the served path spends in code the harness
#: can call; the socket round trip minus their sum is the residual.
SERVED_PATH = (
    "net.protocol.request_codec", "service.submit", "service.run",
    "service.result.encode", "net.protocol.response_encode",
    "net.protocol.response_decode", "client.decode",
)

#: Layer calls repeated standalone beside the served path.
INSIDE_SERVICE = (
    "workloads.build", "sql.plan", "service.signature",
    "optimizer.estimate", "exec.translate", "exec.engine",
)


def reenact(
    workload: Workload,
    catalog,
    cycle: Sequence[Op],
    warmup: Sequence[Op],
    seconds: float,
    log: SpanLog,
) -> Dict:
    """Re-enact whole cycles of ``cycle`` for about ``seconds`` (at
    least one cycle), recording one span per layer call into ``log``.

    Returns ``{"ops": [op per qid], "input_rows": n, "response_bytes":
    n, "response_frames": n}``.
    """
    from repro.exec.context import ExecutionContext
    from repro.exec.engine import Engine
    from repro.exec.translate import translate
    from repro.harness.strategies import make_strategy
    from repro.net.protocol import ROWS_PER_FRAME, encode_frame, read_frame
    from repro.optimizer.cost import PlanCoster
    from repro.service import QueryService, plan_signature
    from repro.service.admission import estimate_query_state_bytes
    from repro.service.result import QueryResult
    from repro.sql import parse, sql_to_plan
    from repro.storage.governor import MemoryGovernor
    from repro.workloads.registry import QUERIES, get_query

    coster = PlanCoster(catalog)
    done: List[Op] = []
    totals = {"input_rows": 0, "response_bytes": 0, "response_frames": 0}

    def engine_once(qid, plan, strategy, budget, suffix="") -> int:
        """Translate and run ``plan`` standalone; returns scanned rows."""
        governor = MemoryGovernor(budget) if budget is not None else None
        try:
            ctx = ExecutionContext(
                catalog, strategy=make_strategy(strategy), governor=governor,
            )
            with log.span("exec.translate" + suffix, qid):
                physical = translate(plan, ctx)
            with log.span("exec.engine" + suffix, qid):
                ctx.strategy.attach(ctx, physical)
                Engine(ctx).run(physical)
            return sum(len(scan.rows) for scan in physical.scans)
        finally:
            if governor is not None:
                governor.close()

    def standalone(qid: int, op: Op, strategy: str) -> None:
        if op.text in QUERIES:
            with log.span("workloads.build", qid):
                plan = get_query(op.text).build_baseline(catalog)
        else:
            with log.span("sql.parse", qid):
                parse(op.text)
            with log.span("sql.plan", qid):
                plan = sql_to_plan(catalog, op.text)
        with log.span("service.signature", qid):
            plan_signature(plan)
        with log.span("optimizer.estimate", qid):
            estimate_query_state_bytes(plan, coster)
        if workload.result_cache:
            return  # served from the cache: the engine never runs
        totals["input_rows"] += engine_once(
            qid, plan, strategy, workload.memory_budget,
        )
        if workload.memory_budget is not None:
            engine_once(qid, plan, strategy, None, ".unbudgeted")

    def served(qid: int, op: Op, service) -> None:
        with log.span("service.submit", qid):
            seq = service.submit(op.text, strategy=op.strategy)
        with log.span("service.run", qid):
            report = service.run()
        (outcome,) = [o for o in report.outcomes if o.seq == seq]
        with log.span("service.result.encode", qid):
            payload = outcome.to_result().to_payload()
        rows = payload.pop("rows")
        with log.span("net.protocol.response_encode", qid):
            frames = [
                encode_frame({
                    "type": "rows", "id": qid,
                    "rows": rows[at:at + ROWS_PER_FRAME],
                })
                for at in range(0, len(rows), ROWS_PER_FRAME)
            ]
            frames.append(encode_frame({
                "type": "summary", "id": qid, "result": payload,
            }))
        wire = b"".join(frames)
        totals["response_bytes"] += len(wire)
        totals["response_frames"] += len(frames)
        with log.span("net.protocol.response_decode", qid):
            stream = io.BytesIO(wire)
            decoded = []
            for _ in range(len(frames) - 1):
                decoded.extend(read_frame(stream)["rows"])
            summary = dict(read_frame(stream)["result"])
        summary["rows"] = decoded
        with log.span("client.decode", qid):
            QueryResult.from_payload(summary)

    with QueryService(catalog, workload.service_config()) as service:
        for op in warmup:
            service.submit(op.text, strategy=op.strategy)
            service.run()
        deadline = time.perf_counter() + seconds
        while not done or time.perf_counter() < deadline:
            for op in cycle:
                qid = len(done)
                done.append(op)
                strategy = op.strategy or service.default_strategy
                with log.span("reenact.query", qid):
                    with log.span("net.protocol.request_codec", qid):
                        read_frame(io.BytesIO(encode_frame({
                            "type": "query", "id": qid, "text": op.text,
                            "strategy": op.strategy, "label": None,
                        })))
                    # Whichever execution runs second finds warmer
                    # caches; alternating cancels that in the means.
                    if qid % 2:
                        served(qid, op, service)
                        standalone(qid, op, strategy)
                    else:
                        standalone(qid, op, strategy)
                        served(qid, op, service)
    totals["ops"] = done
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    """0.0 stands for "not measured on this workload"."""
    return numerator / denominator if denominator else 0.0


def socket_counts(samples) -> Dict[str, float]:
    """Exact per-cycle counts from the socket replies' engine metrics.

    ``samples`` are the replies of connection 0's first cycle: every
    query runs alone on the virtual clock with the caches off, so any
    cycle gives the same sums (``math.fsum`` makes them independent of
    the shuffled order too).
    """
    def total(key, strategy=None):
        return math.fsum(
            s.metrics.get(key, 0) for s in samples
            if strategy is None or s.op.strategy == strategy
        )

    pages = total("pages_pushed")
    return {
        "virtual_s": total("virtual_seconds"),
        "peak_state_mb": max(
            (s.metrics.get("peak_state_mb", 0.0) for s in samples),
            default=0.0,
        ),
        "exec.pages_pushed": pages,
        "exec.rows_per_page": _ratio(total("rows_selected"), pages),
        "aip.sets_created": total("aip_sets_created"),
        "aip.tuples_pruned": total("tuples_pruned"),
        "aip.virtual_speedup_ff": _ratio(
            total("virtual_seconds", BASELINE),
            total("virtual_seconds", FEEDFORWARD),
        ),
        "aip.virtual_speedup_cb": _ratio(
            total("virtual_seconds", BASELINE),
            total("virtual_seconds", COSTBASED),
        ),
        "storage.spill_bytes": total("spill_bytes"),
        "storage.spill_events": total("spill_events"),
    }


def stats_delta(before: Dict, after: Dict) -> Dict[str, float]:
    """``net.server.batch_size_mean`` and the result-cache hit rate
    from two ``Client.stats()`` snapshots around the traced pass."""
    def counter(stats, name):
        return stats["registry"].get(name, {}).get("value", 0)

    def moved(name):
        return counter(after, name) - counter(before, name)

    batches = (
        after["service"]["batches_run"] - before["service"]["batches_run"]
    )
    hits = moved("cache.result.hits")
    return {
        "net.server.batch_size_mean": _ratio(
            moved("queries.completed"), batches
        ),
        "service.result_cache.hit_rate": _ratio(
            hits, hits + moved("cache.result.misses")
        ),
    }


def layer_metrics(
    log: SpanLog,
    reenacted: Dict,
    socket_mean_us: float,
    memory_budget: Optional[int],
) -> Dict[str, float]:
    """Mean microseconds per query for every layer, plus the residual
    and the honesty check on the split itself."""
    ops: List[Op] = reenacted["ops"]
    count = len(ops)

    def per_query(name):
        return mean_us(log.total_ns(name), count)

    def engine_us(strategy):
        picked = [
            span["end_ns"] - span["start_ns"] for span in log.spans
            if span["name"] == "exec.engine"
            and (ops[span["qid"]].strategy or FEEDFORWARD) == strategy
        ]
        return mean_us(sum(picked), len(picked))

    served = sum(per_query(name) for name in SERVED_PATH)
    inside = sum(per_query(name) for name in INSIDE_SERVICE)
    engine = per_query("exec.engine")
    baseline_engine = engine_us(BASELINE)
    feedforward_engine = engine_us(FEEDFORWARD)
    return {
        "net.server.residual_us": socket_mean_us - served,
        "net.protocol.request_codec_us": per_query(
            "net.protocol.request_codec"
        ),
        "net.protocol.response_encode_us": per_query(
            "net.protocol.response_encode"
        ),
        "net.protocol.response_decode_us": per_query(
            "net.protocol.response_decode"
        ),
        "net.protocol.response_bytes": _ratio(
            reenacted["response_bytes"], count
        ),
        "net.protocol.response_frames": _ratio(
            reenacted["response_frames"], count
        ),
        "service.result.encode_us": per_query("service.result.encode"),
        "client.decode_us": per_query("client.decode"),
        "sql.parse_us": per_query("sql.parse"),
        "sql.bind_us": per_query("sql.plan") - per_query("sql.parse"),
        "workloads.build_us": per_query("workloads.build"),
        "optimizer.estimate_us": per_query("optimizer.estimate"),
        "service.signature_us": per_query("service.signature"),
        "service.submit_us": per_query("service.submit"),
        "service.run_us": per_query("service.run"),
        "service.self_us": (
            per_query("service.submit") + per_query("service.run") - inside
        ),
        "exec.translate_us": per_query("exec.translate"),
        "exec.engine_us": engine,
        "exec.engine_us_per_input_row": _ratio(
            engine * count, reenacted["input_rows"]
        ),
        "aip.wall_overhead_share": (
            feedforward_engine / baseline_engine - 1.0
            if baseline_engine and feedforward_engine else 0.0
        ),
        "storage.governed_slowdown": (
            _ratio(engine, per_query("exec.engine.unbudgeted"))
            if memory_budget is not None else 0.0
        ),
        "trace.unattributed_share": _ratio(
            socket_mean_us - served, socket_mean_us
        ),
    }
