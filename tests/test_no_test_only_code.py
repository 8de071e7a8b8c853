"""Tripwire: no definition in ``src/`` that only the tests call, and
no :class:`~repro.service.ServiceConfig` field that only tests set.

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
import dataclasses
import functools
import io
import re
import tokenize
from collections import defaultdict
from pathlib import Path

from repro.service import ServiceConfig

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

#: ``ServiceConfig`` fields no ``src/``, ``benchmarks/`` or
#: ``examples/`` call sets, kept on purpose: field -> why.
ALLOWED_FIELDS = {
    "pool": (
        "hands the service an already-warm worker pool, which the tests "
        "share across services so each does not spawn its own"
    ),
    "placement": (
        "the deployment topology (which site holds which table), "
        "DESIGN section 7's distributed service"
    ),
    "network": (
        "the per-site links that go with a placement, also a "
        "deployment setting"
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


def _config_keywords():
    """Every keyword passed to a ``ServiceConfig(...)`` call in
    ``src/``, ``benchmarks/`` or ``examples/``."""
    passed = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "ServiceConfig":
                    passed.update(kw.arg for kw in node.keywords if kw.arg)
    return passed


def test_every_config_field_has_a_caller():
    """A field only tests set doubles the configuration space for no
    caller: make it a constant, or name it in :data:`ALLOWED_FIELDS`."""
    fields = {field.name for field in dataclasses.fields(ServiceConfig)}
    unset = fields - _config_keywords() - set(ALLOWED_FIELDS)
    assert not unset, (
        "ServiceConfig fields no src/benchmarks/examples call sets: "
        + ", ".join(sorted(unset))
    )
    assert set(ALLOWED_FIELDS) <= fields, sorted(set(ALLOWED_FIELDS) - fields)
