"""Spill partition ids and the per-partition key indexes.

Partition ids decide which keys spill together, so the fast paths in
``spill_partitions`` must give exactly ``hash(stable_key(k)) % 16``.
The stateful operators keep, per partition, the keys their state holds
(in its insertion order), so a spill pops its victims without
computing a partition id for any resident key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.spill as spill_module
from repro.common.hashing import stable_key
from repro.data.catalog import Catalog
from repro.data.schema import INT, STR, Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.distinct import PDistinct
from repro.exec.operators.groupby import PGroupBy
from repro.exec.operators.hashjoin import PHashJoin
from repro.exec.operators.output import POutput
from repro.exec.operators.semijoin import PSemiJoin
from repro.exec.pages import ColumnBatch
from repro.expr.aggregates import COUNT, AggregateSpec
from repro.storage.governor import MemoryGovernor
from repro.storage.spill import (
    N_SPILL_PARTITIONS, Spool, spill_partition, spill_partitions,
)

SCALARS = st.one_of(
    st.integers(),
    st.sampled_from([-1, -2, 2 ** 61, 2 ** 61 - 1, -(2 ** 63), 2 ** 64]),
    st.booleans(),
    st.floats(allow_nan=False),
    st.none(),
    st.text(max_size=8),
)
KEYS = st.one_of(
    SCALARS,
    st.tuples(st.integers(), st.integers()),
    st.lists(SCALARS, max_size=4).map(tuple),
    st.tuples(st.integers(), st.tuples(st.integers(), st.text(max_size=3))),
)


def _reference(key):
    return hash(stable_key(key)) % N_SPILL_PARTITIONS


class TestPartitionIds:
    @given(st.lists(KEYS, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_fast_paths_match_stable_key(self, keys):
        assert spill_partitions(keys) == [_reference(k) for k in keys]
        assert [spill_partition(k) for k in keys] == [
            _reference(k) for k in keys
        ]

    def test_edge_values(self):
        keys = [
            -1, -2, 2 ** 61, -(2 ** 63), True, False, 0.5, -0.0, None,
            "", "abc", (1, -1), (2 ** 61, "x"), (True, 1), (None, 1.5),
            (), ((1, 2), 3),
        ]
        assert spill_partitions(keys) == [_reference(k) for k in keys]


SCHEMA = Schema.of(("k", INT), ("name", STR))
RIGHT = Schema.of(("k2", INT), ("name2", STR))


def _page(rows):
    return ColumnBatch.from_rows(rows, 2)


@pytest.fixture
def governed():
    """An ample governor (nothing spills on its own) and its context."""
    governor = MemoryGovernor(1 << 40)
    ctx = ExecutionContext(Catalog(), governor=governor)
    yield governor, ctx
    governor.close()


@pytest.fixture
def counted(monkeypatch):
    """Count the keys whose partition id is computed."""
    seen = []
    real_many, real_one = spill_partitions, spill_partition

    def many(keys, *args):
        keys = list(keys)
        seen.extend(keys)
        return real_many(keys, *args)

    def one(key, *args):
        seen.append(key)
        return real_one(key, *args)

    monkeypatch.setattr(spill_module, "spill_partitions", many)
    monkeypatch.setattr(spill_module, "spill_partition", one)
    return seen


def _spill_one(governor, op, counted):
    """Spill ``op``'s heaviest partition as a governor reclaim would;
    returns the partition id, having checked that no key's partition
    id was computed to find the victims."""
    before = set(op._spilled)
    counted.clear()
    governor._reclaiming = True
    try:
        assert op._ledger.spill(1, op.ctx) > 0
    finally:
        governor._reclaiming = False
    assert counted == []
    (pid,) = set(op._spilled) - before
    return pid


def _by_partition(keys):
    """``keys`` split by partition, each list in the given order."""
    parts = [[] for _ in range(N_SPILL_PARTITIONS)]
    for key in keys:
        parts[_reference(key)].append(key)
    return parts


def _join_state(ctx):
    join = PHashJoin(ctx, 1, SCHEMA, RIGHT, ["k"], ["k2"])
    POutput(ctx, 2, join.out_schema).connect_child(join, 0)
    join.push_page(_page([(i % 97, "l%d" % i) for i in range(600)]), 0)
    join.push_page(_page([(i % 89, "r%d" % i) for i in range(500)]), 1)
    # Finishing the left side releases the right table (short-circuit);
    # the right side's finish replays while the left table is resident.
    return join, [i % 97 for i in range(600)], (0, 1)


def _group_by_state(ctx):
    gb = PGroupBy(
        ctx, 1, SCHEMA, Schema.of(("k", INT), ("n", INT)), ["k"],
        [AggregateSpec(COUNT, None, "n")],
    )
    POutput(ctx, 2, gb.out_schema).connect_child(gb, 0)
    gb.push_page(_page([(i % 301, "v") for i in range(900)]))
    return gb, list(range(301)), (0,)


def _distinct_state(ctx):
    distinct = PDistinct(ctx, 1, SCHEMA)
    POutput(ctx, 2, SCHEMA).connect_child(distinct, 0)
    distinct.push_page(_page([(i % 211, "d") for i in range(800)]))
    return distinct, list(range(211)), (0,)


def _semijoin_state(ctx):
    semi = PSemiJoin(ctx, 1, SCHEMA, RIGHT, ["k"], ["k2"])
    POutput(ctx, 2, SCHEMA).connect_child(semi, 0)
    semi.push_page(_page([(i % 173, "p%d" % i) for i in range(700)]), 0)
    # The source side's finish replays while the probe buffer is held.
    return semi, [i % 173 for i in range(700)], (1, 0)


#: Each stateful operator holding state on port 0, keyed by ``k``:
#: ``build(ctx) -> (op, port 0's state values, finish order)``.
STATES = {
    "hash_join": _join_state, "group_by": _group_by_state,
    "distinct": _distinct_state, "semijoin": _semijoin_state,
}


class TestSpillsTouchOnlyTheirVictims:
    @pytest.mark.parametrize("name", sorted(STATES))
    def test_spilled_state_stays_exposed(self, governed, counted, name):
        """``stored_count`` and ``state_values`` (what AIP summaries are
        built from) cover the resident and the spilled rows alike."""
        governor, ctx = governed
        op, values, _finish = STATES[name](ctx)
        pid = _spill_one(governor, op, counted)
        # Some rows moved to disk and some stayed resident.
        assert 0 < op._spilled[pid][0].n_records < len(values)
        assert op.stored_count(0) == len(values)
        assert sorted(op.state_values(0, "k")) == sorted(values)

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_replay_is_never_a_reclaim_victim(
        self, governed, counted, monkeypatch, name,
    ):
        """While the completion replay reads spilled runs back, the
        operator offers no bytes to a reclaim and a spill request frees
        nothing, though its resident partitions are still held."""
        governor, ctx = governed
        op, _values, finish = STATES[name](ctx)
        _spill_one(governor, op, counted)
        ledger = op._ledger
        assert ledger.spillable_nbytes() > 0
        seen = []
        records = Spool.records

        def reading(spool):
            if not seen:
                spilled = set(ledger.spilled)
                governor._reclaiming = True
                try:
                    seen.append((
                        ledger.spillable_nbytes(),
                        ledger.spill(1 << 30, ctx),
                        sum(ledger.counts[0]) > 0,
                        set(ledger.spilled) == spilled,
                    ))
                finally:
                    governor._reclaiming = False
            return records(spool)

        monkeypatch.setattr(Spool, "records", reading)
        for port in finish:
            op.finish(port)
        assert seen == [(0, 0, True, True)]
        assert ledger.spillable_nbytes() == 0 and not ledger.spilled

    def test_hash_join(self, governed, counted):
        governor, ctx = governed
        join = PHashJoin(ctx, 1, SCHEMA, RIGHT, ["k"], ["k2"])
        POutput(ctx, 2, join.out_schema).connect_child(join, 0)

        def index_holds_the_tables():
            for port in (0, 1):
                assert [list(keys) for keys in join._ledger.keys[port]] == (
                    _by_partition(join._tables[port])
                )

        join.push_page(_page([(i % 97, "l%d" % i) for i in range(600)]), 0)
        join.push_page(_page([(i % 89, "r%d" % i) for i in range(500)]), 1)
        index_holds_the_tables()
        pid = _spill_one(governor, join, counted)
        index_holds_the_tables()
        assert not join._ledger.keys[0][pid] and not join._ledger.keys[1][pid]
        assert join._spilled[pid][0].n_records > 0

        join.push_page(_page([(i % 113, "m%d" % i) for i in range(300)]), 0)
        index_holds_the_tables()
        join.finish(1)  # short-circuit: the left table is released
        assert not join._tables[0]
        index_holds_the_tables()
        join.finish(0)  # completion replays the spilled partition
        index_holds_the_tables()
        assert not any(join._ledger.keys[0]) and not any(join._ledger.keys[1])

    def test_hash_join_row_object_pushed_twice(self, governed, counted):
        """The index records a key when the arriving row heads its
        bucket, so a row object that arrives again indexes its key
        again: the spill still moves every row of the key once."""
        governor, ctx = governed
        join = PHashJoin(ctx, 1, SCHEMA, RIGHT, ["k"], ["k2"])
        POutput(ctx, 2, join.out_schema).connect_child(join, 0)
        row = (7, "same")
        join.push_page(_page([row] * 3), 0)
        join.push_page(_page([row, (7, "other")]), 0)
        pid = _reference(7)
        assert join._ledger.keys[0][pid].count(7) > 1
        _spill_one(governor, join, counted)
        assert join._spilled[pid][0].n_records == 5
        assert 7 not in join._tables[0] and not join._ledger.keys[0][pid]

    def test_group_by(self, governed, counted):
        governor, ctx = governed
        gb = PGroupBy(
            ctx, 1, SCHEMA, Schema.of(("k", INT), ("n", INT)), ["k"],
            [AggregateSpec(COUNT, None, "n")],
        )
        POutput(ctx, 2, gb.out_schema).connect_child(gb, 0)

        def index_holds_the_groups():
            assert [list(keys) for keys in gb._ledger.keys[0]] == (
                _by_partition(gb._groups)
            )

        gb.push_page(_page([(i % 301, "v") for i in range(900)]))
        index_holds_the_groups()
        pid = _spill_one(governor, gb, counted)
        index_holds_the_groups()
        assert not gb._ledger.keys[0][pid]
        gb.push_page(_page([(i % 401, "w") for i in range(900)]))
        index_holds_the_groups()
        gb.finish(0)
        index_holds_the_groups()
        assert not any(gb._ledger.keys[0])

    def test_distinct(self, governed, counted):
        governor, ctx = governed
        distinct = PDistinct(ctx, 1, SCHEMA)
        POutput(ctx, 2, SCHEMA).connect_child(distinct, 0)

        def index_holds_the_seen_set():
            parts = _by_partition(distinct._seen)
            for keys, expected in zip(distinct._ledger.keys[0], parts):
                assert len(keys) == len(expected)
                assert set(keys) == set(expected)

        distinct.push_page(_page([(i % 211, "d") for i in range(800)]))
        index_holds_the_seen_set()
        pid = _spill_one(governor, distinct, counted)
        index_holds_the_seen_set()
        assert not distinct._ledger.keys[0][pid]
        distinct.push_page(_page([(i % 307, "d") for i in range(800)]))
        index_holds_the_seen_set()
        distinct.finish(0)
        index_holds_the_seen_set()
        assert not any(distinct._ledger.keys[0])

    def test_semijoin(self, governed, counted):
        governor, ctx = governed
        semi = PSemiJoin(ctx, 1, SCHEMA, RIGHT, ["k"], ["k2"])
        POutput(ctx, 2, SCHEMA).connect_child(semi, 0)

        def index_holds_the_pending_keys():
            assert [list(keys) for keys in semi._ledger.keys[0]] == (
                _by_partition(semi._pending)
            )

        semi.push_page(_page([(i % 173, "p%d" % i) for i in range(700)]), 0)
        index_holds_the_pending_keys()
        pid = _spill_one(governor, semi, counted)
        index_holds_the_pending_keys()
        assert not semi._ledger.keys[0][pid]
        # Source keys release pending rows: their keys leave the index.
        semi.push_page(_page([(k, "s") for k in range(0, 173, 3)]), 1)
        index_holds_the_pending_keys()
        semi.push_page(_page([(i % 251, "q%d" % i) for i in range(400)]), 0)
        index_holds_the_pending_keys()
        semi.finish(1)  # replays the spilled run, drops the rest
        index_holds_the_pending_keys()
        assert not any(semi._ledger.keys[0])
        semi.finish(0)
