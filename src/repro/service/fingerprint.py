"""Structural plan fingerprints.

Logical nodes carry process-unique ``node_id``\\ s and plans must be
rebuilt per execution, so object identity cannot relate queries across
a stream.  This module renders a plan (or subplan) into a canonical
signature string — table names, renames, predicate text, join keys,
aggregate specs, but never node ids — so two independently built plans
with the same semantics produce the same signature.  The result cache
keys whole plans by it.

Signatures are exact-match: two queries only share a fingerprint when
they were built the same way (same tables, aliases, predicates).  That
is deliberately conservative — a false split only costs a cache miss,
while a false merge would corrupt results.
"""

from __future__ import annotations

from repro.common.errors import PlanError
from repro.plan.logical import (
    Distinct, Filter, GroupBy, Join, LogicalNode, Project, Scan, SemiJoin,
)


def plan_signature(node: LogicalNode) -> str:
    """Canonical, node-id-free rendering of the subtree at ``node``.

    Memoised per node object, so a plan signed twice renders once.
    Nodes are immutable after planning
    with one exception — :func:`repro.distributed.coordinator.
    mark_remote_scans` restamps scan sites — so that mutation point
    calls :func:`invalidate_signatures` on the plan.
    """
    cached = node.__dict__.get("_signature_memo")
    if cached is None:
        cached = node.__dict__["_signature_memo"] = _render_signature(node)
    return cached


def invalidate_signatures(root: LogicalNode) -> None:
    """Drop memoised signatures for every node under ``root``.

    Called by the one code path that mutates signature-relevant node
    fields after construction (scan-site stamping); an ancestor's
    signature embeds its children's, so the whole walk is cleared.
    """
    for node in root.walk():
        node.__dict__.pop("_signature_memo", None)


def _render_signature(node: LogicalNode) -> str:
    if isinstance(node, Scan):
        renames = ",".join(
            "%s->%s" % (k, v) for k, v in sorted(node.renames.items())
        )
        return "scan(%s;renames=%s;site=%s)" % (
            node.table_name, renames, node.site,
        )
    if isinstance(node, Filter):
        return "filter(%r)[%s]" % (node.predicate, plan_signature(node.child))
    if isinstance(node, Project):
        outputs = ",".join(
            "%s:=%r" % (name, expr) for name, expr in node.outputs
        )
        return "project(%s)[%s]" % (outputs, plan_signature(node.child))
    if isinstance(node, Join):
        keys = ",".join("%s=%s" % pair for pair in node.key_pairs())
        return "join(%s;residual=%r)[%s][%s]" % (
            keys, node.residual,
            plan_signature(node.left), plan_signature(node.right),
        )
    if isinstance(node, SemiJoin):
        keys = ",".join(
            "%s=%s" % pair for pair in zip(node.probe_keys, node.source_keys)
        )
        return "semijoin(%s)[%s][%s]" % (
            keys, plan_signature(node.probe), plan_signature(node.source),
        )
    if isinstance(node, GroupBy):
        aggs = ",".join(
            "%s(%r):=%s" % (s.func, s.input, s.output_name)
            for s in node.aggregates
        )
        return "groupby(%s;%s)[%s]" % (
            ",".join(node.keys), aggs, plan_signature(node.child),
        )
    if isinstance(node, Distinct):
        return "distinct[%s]" % plan_signature(node.child)
    raise PlanError("cannot fingerprint node %r" % node)
