"""Tripwire: no definition in ``src/`` that only the tests call.

Every non-dunder ``def`` and ``class`` under ``src/`` must be named, as
a whole word, somewhere a real caller could be: another line of
``src/`` (outside the definition itself, outside any other definition
line of the same name, and outside the packages' ``__init__.py``
re-exports), ``benchmarks/`` or ``examples/``.  A definition whose only
callers are tests is code the tests keep alive: delete it with its
tests, or name it in :data:`ALLOWED` with the reason it stays.

The match is textual, so a name that appears only in a string or a
comment elsewhere counts as used: the check is a tripwire for
forgotten code, not a proof of reachability.
"""

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Called only from tests, kept on purpose: name -> why.
ALLOWED = {
    "set_link": (
        "NetworkModel's only per-site link setter: a deployment "
        "setting, which no bundled workload happens to vary"
    ),
    "total_state_bytes": (
        "the live state count that 11 tests read to check that "
        "operators release their state"
    ),
    "sql_for": (
        "the Table I variants as SQL text, the input for a sqlite3 "
        "oracle over the same queries"
    ),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@functools.lru_cache(maxsize=None)
def _scan():
    """``(definitions, uses)``: every non-dunder definition in ``src/``
    as ``(name, path, first line, last line)``, and every word of the
    caller files as ``name -> [(path, line)]``."""
    definitions = []
    uses = defaultdict(list)
    callers = [
        path for path in sorted((ROOT / "src").rglob("*.py"))
        if path.name != "__init__.py"
    ]
    for top in ("benchmarks", "examples"):
        callers.extend(sorted((ROOT / top).rglob("*.py")))
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, _DEFS) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                definitions.append(
                    (node.name, path, node.lineno, node.end_lineno)
                )
    for path in callers:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for word in _WORD.findall(line):
                uses[word].append((path, lineno))
    return definitions, uses


def test_only_callers_are_tests():
    definitions, uses = _scan()
    def_lines = {(name, path, first) for name, path, first, _ in definitions}
    unused = []
    for name, path, first, last in definitions:
        if name in ALLOWED:
            continue
        if not any(
            (name, where, lineno) not in def_lines
            and not (where == path and first <= lineno <= last)
            for where, lineno in uses[name]
        ):
            unused.append(
                "%s (%s:%d)" % (name, path.relative_to(ROOT), first)
            )
    assert not unused, (
        "defined in src/ but named nowhere outside tests: "
        + ", ".join(unused)
    )


def test_allowlist_is_current():
    """Each allowlisted name is still defined in ``src/``."""
    defined = {name for name, _, _, _ in _scan()[0]}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
