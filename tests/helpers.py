"""Shared test utilities: a tiny reference evaluator for logical plans.

The push engine's results are cross-checked against this straightforward
materialising evaluator, which shares no code with the engine beyond the
expression compiler.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.data.catalog import Catalog
from repro.expr.compiler import compile_expr, compile_predicate
from repro.plan.logical import (
    Distinct, Filter, GroupBy, Join, LogicalNode, Project, Scan, SemiJoin,
)

Row = Tuple


def reference_execute(node: LogicalNode, catalog: Catalog) -> List[Row]:
    """Evaluate a logical plan by brute force materialisation."""
    if isinstance(node, Scan):
        table = catalog.table(node.table_name)
        return list(table.rows)

    if isinstance(node, Filter):
        rows = reference_execute(node.child, catalog)
        pred = compile_predicate(node.predicate, node.child.schema)
        return [r for r in rows if pred(r)]

    if isinstance(node, Project):
        rows = reference_execute(node.child, catalog)
        fns = [compile_expr(e, node.child.schema) for _, e in node.outputs]
        return [tuple(fn(r) for fn in fns) for r in rows]

    if isinstance(node, Join):
        left = reference_execute(node.left, catalog)
        right = reference_execute(node.right, catalog)
        li = [node.left.schema.index_of(k) for k in node.left_keys]
        ri = [node.right.schema.index_of(k) for k in node.right_keys]
        residual = (
            compile_predicate(node.residual, node.schema)
            if node.residual is not None else None
        )
        index: Dict = {}
        for r in right:
            key = tuple(r[i] for i in ri)
            index.setdefault(key, []).append(r)
        out = []
        for lrow in left:
            key = tuple(lrow[i] for i in li)
            for r in index.get(key, ()):
                combined = lrow + r
                if residual is None or residual(combined):
                    out.append(combined)
        return out

    if isinstance(node, SemiJoin):
        probe = reference_execute(node.probe, catalog)
        source = reference_execute(node.source, catalog)
        pi = [node.probe.schema.index_of(k) for k in node.probe_keys]
        si = [node.source.schema.index_of(k) for k in node.source_keys]
        keys = {tuple(r[i] for i in si) for r in source}
        return [r for r in probe if tuple(r[i] for i in pi) in keys]

    if isinstance(node, GroupBy):
        rows = reference_execute(node.child, catalog)
        key_idx = [node.child.schema.index_of(k) for k in node.keys]
        fns = [
            compile_expr(s.input, node.child.schema) if s.input is not None
            else None
            for s in node.aggregates
        ]
        groups: Dict = {}
        for r in rows:
            key = tuple(r[i] for i in key_idx)
            accs = groups.get(key)
            if accs is None:
                accs = [s.make_accumulator() for s in node.aggregates]
                groups[key] = accs
            for fn, acc in zip(fns, accs):
                acc.add(fn(r) if fn is not None else None)
        if not key_idx and not groups:
            # Keyless aggregate over empty input: one row (SQL semantics).
            return [tuple(s.make_accumulator().result()
                          for s in node.aggregates)]
        return [
            key + tuple(a.result() for a in accs)
            for key, accs in groups.items()
        ]

    if isinstance(node, Distinct):
        rows = reference_execute(node.child, catalog)
        seen = set()
        out = []
        for r in rows:
            if r not in seen:
                seen.add(r)
                out.append(r)
        return out

    raise AssertionError("unknown node %r" % node)


def canonical_row(row: Row) -> Row:
    """Round floats so that summation-order differences (engine vs
    reference evaluator) don't fail equality."""
    return tuple(
        round(v, 4) if isinstance(v, float) else v for v in row
    )


def rows_equal(a: List[Row], b: List[Row]) -> bool:
    """Multiset equality over rows, order- and float-noise-tolerant."""
    ca = sorted((canonical_row(r) for r in a), key=repr)
    cb = sorted((canonical_row(r) for r in b), key=repr)
    return ca == cb
