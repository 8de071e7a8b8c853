"""Compile expression ASTs into row functions and column kernels.

Operators bind expressions to their input schema exactly once; the
returned closures then evaluate per tuple with no name lookups.  This
is the standard interpretation-avoidance trick for row-at-a-time
engines and keeps the pure-Python push engine fast enough for the
benchmark scale factors.

Two layers are compiled from the same ASTs:

* **row closures** (:func:`compile_expr` / :func:`compile_predicate`)
  — ``row -> value`` functions for the tuple path.
  Comparison and arithmetic nodes over ``Col``/``Lit`` operands are
  specialised so the hot shapes (``col <op> literal``, ``col <op>
  col``) run as a single closure with the operator function hoisted to
  bind time instead of a three-deep closure chain with per-call
  dispatch.
* **column kernels** (:func:`compile_expr_columns` /
  :func:`compile_predicate_columns`) — ``(columns, n_rows) -> values``
  and ``(columns, n_rows) -> selection list`` functions for the
  page-native path.  A predicate maps a
  :class:`~repro.exec.pages.ColumnBatch`'s columns to the ascending
  row indices that survive; conjunctions refine the selection term by
  term, and a bare column reference is returned zero-copy.

Both layers share one bind-time index memo per compilation, so a
column referenced by many nodes resolves its schema position once.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import PlanError
from repro.data.schema import Schema
from repro.expr.expressions import (
    And, Arith, Cmp, Col, Expr, Func, Like, Lit, Not, Or,
)

Row = Tuple
RowFn = Callable[[Row], object]
#: Column kernel: ``(columns, n_rows) -> sequence of values``.
ColumnFn = Callable[[List, int], List]
#: Selection kernel: ``(columns, n_rows) -> ascending surviving indices``.
SelectionFn = Callable[[List, int], List[int]]

_CMP_FNS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITH_FNS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def like_pattern_to_regex(pattern: str) -> "re.Pattern":
    """Translate a SQL LIKE pattern into an anchored regular expression."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _col_index(name: str, schema: Schema, memo: Dict[str, int]) -> int:
    """Resolve a column name once per compilation, not once per node."""
    idx = memo.get(name)
    if idx is None:
        idx = schema.index_of(name)
        memo[name] = idx
    return idx


# -- row closures ---------------------------------------------------------


def compile_expr(
    expr: Expr, schema: Schema, _memo: Optional[Dict[str, int]] = None
) -> RowFn:
    """Bind ``expr`` to ``schema`` and return a ``row -> value`` function."""
    memo = _memo if _memo is not None else {}
    if isinstance(expr, Col):
        idx = _col_index(expr.name, schema, memo)
        return lambda row: row[idx]

    if isinstance(expr, Lit):
        value = expr.value
        return lambda row: value

    if isinstance(expr, (Arith, Cmp)):
        fn = (_ARITH_FNS if isinstance(expr, Arith) else _CMP_FNS)[expr.op]
        lhs, rhs = expr.left, expr.right
        # Specialise the hot operand shapes: the operator function and
        # column indices are bound here, so the per-call chain is one
        # closure instead of fn(left(row), right(row)).
        if isinstance(lhs, Col):
            li = _col_index(lhs.name, schema, memo)
            if isinstance(rhs, Lit):
                value = rhs.value
                return lambda row: fn(row[li], value)
            if isinstance(rhs, Col):
                ri = _col_index(rhs.name, schema, memo)
                return lambda row: fn(row[li], row[ri])
        elif isinstance(lhs, Lit) and isinstance(rhs, Col):
            value = lhs.value
            ri = _col_index(rhs.name, schema, memo)
            return lambda row: fn(value, row[ri])
        left = compile_expr(lhs, schema, memo)
        right = compile_expr(rhs, schema, memo)
        return lambda row: fn(left(row), right(row))

    if isinstance(expr, And):
        parts = [compile_expr(t, schema, memo) for t in expr.terms]
        return lambda row: all(p(row) for p in parts)

    if isinstance(expr, Or):
        parts = [compile_expr(t, schema, memo) for t in expr.terms]
        return lambda row: any(p(row) for p in parts)

    if isinstance(expr, Not):
        inner = compile_expr(expr.term, schema, memo)
        return lambda row: not inner(row)

    if isinstance(expr, Like):
        regex = like_pattern_to_regex(expr.pattern)
        match = regex.match
        if isinstance(expr.term, Col):
            idx = _col_index(expr.term.name, schema, memo)
            return lambda row: match(row[idx]) is not None
        inner = compile_expr(expr.term, schema, memo)
        return lambda row: match(inner(row)) is not None

    if isinstance(expr, Func):
        fn = expr.fn
        args = [compile_expr(a, schema, memo) for a in expr.args]
        if len(args) == 1:
            arg0 = args[0]
            return lambda row: fn(arg0(row))
        return lambda row: fn(*(a(row) for a in args))

    raise PlanError("cannot compile expression %r" % (expr,))


def compile_predicate(expr: Expr, schema: Schema) -> Callable[[Row], bool]:
    """Like :func:`compile_expr` but coerces the result to bool."""
    fn = compile_expr(expr, schema)
    return lambda row: bool(fn(row))


# -- column kernels -------------------------------------------------------


def compile_expr_columns(
    expr: Expr, schema: Schema, _memo: Optional[Dict[str, int]] = None
) -> ColumnFn:
    """Bind ``expr`` to ``schema`` as a column kernel: a function from
    ``(columns, n_rows)`` to the expression's values in row order.

    Value-identical, element by element, to mapping the row closure
    over the re-materialised tuples — the page path's bit-identity to
    the row path rests on this.  A bare column reference returns the
    input column itself (zero-copy); every other node builds one fresh
    list per call.
    """
    memo = _memo if _memo is not None else {}
    if isinstance(expr, Col):
        idx = _col_index(expr.name, schema, memo)
        return lambda cols, n: cols[idx]

    if isinstance(expr, Lit):
        value = expr.value
        return lambda cols, n: [value] * n

    if isinstance(expr, (Arith, Cmp)):
        fn = (_ARITH_FNS if isinstance(expr, Arith) else _CMP_FNS)[expr.op]
        lhs, rhs = expr.left, expr.right
        if isinstance(lhs, Col):
            li = _col_index(lhs.name, schema, memo)
            if isinstance(rhs, Lit):
                value = rhs.value
                return lambda cols, n: [fn(v, value) for v in cols[li]]
            if isinstance(rhs, Col):
                ri = _col_index(rhs.name, schema, memo)
                return lambda cols, n: [
                    fn(a, b) for a, b in zip(cols[li], cols[ri])
                ]
        elif isinstance(lhs, Lit) and isinstance(rhs, Col):
            value = lhs.value
            ri = _col_index(rhs.name, schema, memo)
            return lambda cols, n: [fn(value, v) for v in cols[ri]]
        left = compile_expr_columns(lhs, schema, memo)
        right = compile_expr_columns(rhs, schema, memo)
        return lambda cols, n: [
            fn(a, b) for a, b in zip(left(cols, n), right(cols, n))
        ]

    if isinstance(expr, And):
        parts = [compile_expr_columns(t, schema, memo) for t in expr.terms]
        return lambda cols, n: [
            all(vs) for vs in zip(*(p(cols, n) for p in parts))
        ]

    if isinstance(expr, Or):
        parts = [compile_expr_columns(t, schema, memo) for t in expr.terms]
        return lambda cols, n: [
            any(vs) for vs in zip(*(p(cols, n) for p in parts))
        ]

    if isinstance(expr, Not):
        inner = compile_expr_columns(expr.term, schema, memo)
        return lambda cols, n: [not v for v in inner(cols, n)]

    if isinstance(expr, Like):
        match = like_pattern_to_regex(expr.pattern).match
        if isinstance(expr.term, Col):
            idx = _col_index(expr.term.name, schema, memo)
            return lambda cols, n: [
                match(v) is not None for v in cols[idx]
            ]
        inner = compile_expr_columns(expr.term, schema, memo)
        return lambda cols, n: [
            match(v) is not None for v in inner(cols, n)
        ]

    if isinstance(expr, Func):
        fn = expr.fn
        args = [compile_expr_columns(a, schema, memo) for a in expr.args]
        if len(args) == 1:
            arg0 = args[0]
            return lambda cols, n: [fn(v) for v in arg0(cols, n)]
        return lambda cols, n: [
            fn(*vs) for vs in zip(*(a(cols, n) for a in args))
        ]

    raise PlanError("cannot compile expression %r" % (expr,))


def compile_predicate_columns(expr: Expr, schema: Schema) -> SelectionFn:
    """Bind a predicate as a selection kernel: ``(columns, n_rows)`` to
    the ascending indices of the rows it accepts.

    Selects exactly the rows the row closure would accept (truthiness,
    matching :func:`compile_predicate`'s ``bool`` coercion).  A
    conjunction evaluates its first term over the whole batch and each
    later term only to *refine* the surviving selection, so rows
    rejected early are never re-tested.
    """
    memo: Dict[str, int] = {}
    if isinstance(expr, And):
        parts = [
            compile_expr_columns(t, schema, memo) for t in expr.terms
        ]

        def select_and(cols, n):
            selection = None
            for part in parts:
                values = part(cols, n)
                if selection is None:
                    selection = [i for i in range(n) if values[i]]
                else:
                    selection = [i for i in selection if values[i]]
                if not selection:
                    break
            return list(range(n)) if selection is None else selection

        return select_and

    if isinstance(expr, Cmp) and isinstance(expr.left, Col):
        fn = _CMP_FNS[expr.op]
        idx = _col_index(expr.left.name, schema, memo)
        if isinstance(expr.right, Lit):
            value = expr.right.value
            return lambda cols, n: [
                i for i, v in enumerate(cols[idx]) if fn(v, value)
            ]
        if isinstance(expr.right, Col):
            ri = _col_index(expr.right.name, schema, memo)
            return lambda cols, n: [
                i for i, (a, b) in enumerate(zip(cols[idx], cols[ri]))
                if fn(a, b)
            ]

    values_fn = compile_expr_columns(expr, schema, memo)
    return lambda cols, n: [
        i for i, v in enumerate(values_fn(cols, n)) if v
    ]
