"""Tripwire: no definition in ``src/`` that only the tests call.

Every non-dunder ``def`` and ``class`` under ``src/`` must be named, as
a whole word, somewhere a real caller could be: another line of
``src/`` (outside the definition itself, outside any other definition
line of the same name, and outside the packages' ``__init__.py``
re-exports), ``benchmarks/`` or ``examples/``.  A definition whose only
callers are tests is code the tests keep alive: delete it with its
tests, or name it in :data:`ALLOWED` with the reason it stays.

A use is a name token of the code, or a string literal shaped like
an identifier (``getattr(obj, "name")``); comments and docstrings do
not count.  The check is a tripwire for forgotten code, not a proof of
reachability.
"""

import ast
import functools
import io
import re
import tokenize
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
    "validate_plan": (
        "the structural plan check that the random-plan, binder and "
        "semijoin/magic tests run over the plans they generate"
    ),
    "bits_as_int": (
        "a Bloom filter's bits in the big-int layout that the "
        "word-equality checks of the Bloom kernels compare against"
    ),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _words(source):
    """``(word, line)`` for every name token of ``source``, and every
    string literal that reads as one identifier."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]
        elif tok.type == tokenize.STRING:
            value = ast.literal_eval(tok.string)
            if isinstance(value, str) and _WORD.fullmatch(value):
                yield value, tok.start[0]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@functools.lru_cache(maxsize=None)
def _scan():
    """``(definitions, uses)``: every non-dunder definition in ``src/``
    as ``(name, path, first line, last line)``, and every use in the
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
        for word, lineno in _words(path.read_text()):
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
