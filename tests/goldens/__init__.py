"""Recorded goldens: the reference the cross-path equivalence suites
check one engine run against.

Each suite's cells live in one JSON file next to this module
(``engine.json``, ``partition.json``, ``bloom.json``).  They were
recorded while the tuple-at-a-time and page-driven engine loops, and
the word-indexed and big-int Bloom bitsets, still ran side by side: all
four combinations wrote byte-identical files, so a golden *is* the
reference those paths were checked against.  Since the per-row loop
was deleted every cell runs on pages; all cells it had run still match
except ``Q1A/feedforward[memory_budget=4096]``, re-recorded because its
working-set shed check now runs once per page (DESIGN.md section 4).

Regenerate with ``PYTHONPATH=src python -m tests.goldens.record``.  A
regenerated golden is a behaviour change: the change that moves one
names the moved cells and why.

An engine cell records, as integers or hex strings:

* ``rows_sha256`` — sha256 of ``repr(rows)``, in emitted order or, where
  the cell's contract is a multiset, in
  :meth:`~repro.exec.engine.QueryResult.sorted_rows`'s order
  (``rows_order: "sorted"``: partitioned placements) or with floats
  rounded as :func:`tests.helpers.rows_equal` does first
  (``"rounded"``: governed runs under memory pressure, whose spills
  reorder float sums);
* ``n_rows``;
* ``clock_ticks``, ``cpu_ticks``, ``idle_ticks`` — the virtual clock;
* ``peak_state_bytes`` and ``network_bytes``;
* ``counters`` — per-operator ``(tuples_in, tuples_out, tuples_pruned)``
  in id order;
* ``aip_words_sha256`` — digest of every Bloom filter the run's AIP sets
  built (geometry, ``n_added`` and word buffer), so bit positions are
  pinned where pruning decisions are made, not only in unit tests;
* ``aip_bytes_shipped`` where a cell ships filters.

``pages_pushed`` is deliberately absent: it is run cadence, not
semantics.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.aip.sets import AIPSetSpec
from repro.summaries.bloom import BloomFilter

from tests.helpers import canonical_row

GOLDEN_DIR = Path(__file__).resolve().parent

ENGINE = "engine"
PARTITION = "partition"
BLOOM = "bloom"
SUITES = (ENGINE, PARTITION, BLOOM)

#: ``rows_order`` values: the contract is the emitted sequence, the
#: row multiset, or the row multiset up to float summation order.
EMITTED = "emitted"
SORTED = "sorted"
ROUNDED = "rounded"

#: The row-multiset fields: what a partitioned placement shares with
#: its single-site golden.
MULTISET_FIELDS = ("rows_order", "rows_sha256", "n_rows")

#: What a governed cell under memory pressure pins: its row multiset,
#: per-operator counters (pruning included) and AIP Bloom words.
#: Spilling defers completion-time emissions, so its row order, clock
#: and peak state follow the run cadence, which differed between the
#: engine loops the goldens were recorded from.
PRESSURE_FIELDS = MULTISET_FIELDS + ("counters", "aip_words_sha256")


def cell_key(qid: str, strategy: str, arrival: str = "streamed",
             budget=None, partitions=0) -> str:
    """``qid/strategy/arrival/budget/partitions`` — one engine cell."""
    return "%s/%s/%s/%s/%s" % (
        qid, strategy, arrival, "none" if budget is None else budget,
        partitions,
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_fields(rows: Sequence, order: str = EMITTED) -> Dict:
    if order == ROUNDED:
        rows = sorted((canonical_row(r) for r in rows), key=repr)
    elif order == SORTED:
        rows = sorted(rows, key=repr)
    elif order != EMITTED:
        raise ValueError("unknown rows_order %r" % (order,))
    return {
        "rows_order": order,
        "rows_sha256": sha256(repr(list(rows))),
        "n_rows": len(rows),
    }


def bloom_fields(bloom: BloomFilter) -> Dict:
    return {
        "words": bloom.to_payload()["words"].hex(),
        "n_added": bloom.n_added,
        "byte_size": bloom.byte_size(),
    }


def _summary_digest(summaries: Iterable) -> str:
    parts = sorted(
        "%d:%d:%d:%d:%s" % (
            s.n_bits, s.n_hashes, s.seed, s.n_added,
            s.to_payload()["words"].hex(),
        )
        for s in summaries if isinstance(s, BloomFilter)
    )
    return sha256("\n".join(parts))


def observe(rows: Sequence, metrics, summaries: Optional[List] = None,
            order: str = EMITTED, fields: Optional[Sequence[str]] = None,
            aip_bytes: bool = False) -> Dict:
    """The golden fields of one run: its rows (a concurrent batch's
    queries concatenated in order), the :class:`Metrics` it charged,
    and the summaries :func:`observed` captured.  ``fields`` keeps a
    subset (see :data:`MULTISET_FIELDS`)."""
    out = rows_fields(rows, order)
    out.update(
        clock_ticks=metrics.clock_ticks,
        cpu_ticks=metrics._cpu_ticks,
        idle_ticks=metrics._idle_ticks,
        peak_state_bytes=metrics.peak_state_bytes,
        network_bytes=metrics.network_bytes,
        counters=[
            [c.tuples_in, c.tuples_out, c.tuples_pruned]
            for _, c in sorted(metrics.operators.items())
        ],
    )
    if summaries is not None:
        out["aip_words_sha256"] = _summary_digest(summaries)
    if aip_bytes:
        out["aip_bytes_shipped"] = metrics.aip_bytes_shipped
    if fields is not None:
        out = {name: out[name] for name in fields}
    return out


def observe_result(result, summaries: Optional[List] = None,
                   **kwargs) -> Dict:
    """:func:`observe` for a :class:`~repro.exec.engine.QueryResult` or
    a :class:`~repro.harness.runner.RunRecord`, so a cell reads
    ``observe_result(*observed(run, ...))``."""
    result = getattr(result, "result", result)
    return observe(result.rows, result.metrics, summaries, **kwargs)


def observed(run, *args, **kwargs):
    """Call ``run(*args, **kwargs)`` while capturing every AIP summary
    it builds; returns ``(value, summaries)``."""
    summaries: List = []
    build = AIPSetSpec.new_summary

    def new_summary(spec):
        summary = build(spec)
        summaries.append(summary)
        return summary

    AIPSetSpec.new_summary = new_summary
    try:
        value = run(*args, **kwargs)
    finally:
        AIPSetSpec.new_summary = build
    return value, summaries


@functools.lru_cache(maxsize=None)
def load(suite: str) -> Dict[str, Dict]:
    with open(GOLDEN_DIR / ("%s.json" % suite)) as fh:
        return json.load(fh)


def assert_matches_golden(key: str, observation: Dict, suite: str = ENGINE,
                          fields: Optional[Sequence[str]] = None) -> None:
    """Every recorded field of ``suite``'s ``key`` cell — or just
    ``fields`` of it, for a run checked against another cell's golden —
    equals ``observation``'s; the failure names the field."""
    golden = load(suite).get(key)
    assert golden is not None, (
        "no %s golden for cell %r (regenerate: PYTHONPATH=src python -m "
        "tests.goldens.record)" % (suite, key)
    )
    names = sorted(golden) if fields is None else list(fields)
    if fields is None:
        unrecorded = sorted(set(observation) - set(golden))
        assert not unrecorded, "%s: %s not recorded in the golden" % (
            key, ", ".join(unrecorded),
        )
    for name in names:
        assert name in observation, "%s: %s not observed" % (key, name)
        assert observation[name] == golden[name], (
            "%s: %s differs from the golden: recorded %r, this run %r"
            % (key, name, golden[name], observation[name])
        )
