"""Tests for arrival models, including the paper's delay model."""

import pytest

from repro.exec.arrival import ArrivalModel
from repro.summaries.hashset import HashSetSummary

ROWS = [(i,) for i in range(5000)]


def drain(model, rows):
    """Collect (index, time, row) for all rows reaching the consumer."""
    out = []
    cursor = 0
    while True:
        found = model.next_arrival(rows, cursor)
        if found is None:
            return out
        cursor, when, row = found
        out.append((cursor, when, row))


class TestImmediate:
    def test_all_at_time_zero(self):
        events = drain(ArrivalModel.immediate(), ROWS[:10])
        assert len(events) == 10
        assert all(when == 0.0 for _, when, _ in events)


class TestStreaming:
    def test_monotone_arrivals(self):
        events = drain(ArrivalModel.streaming(per_tuple=1e-6), ROWS[:100])
        times = [when for _, when, _ in events]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(100e-6)


class TestDelayed:
    def test_paper_delay_model(self):
        # 100ms initial delay, 5ms injected every 1000 tuples.
        model = ArrivalModel.delayed(
            initial_delay=0.1, batch_size=1000, batch_delay=0.005,
            per_tuple=0.0,
        )
        events = drain(model, ROWS)
        first = events[0][1]
        assert first == pytest.approx(0.1)
        # After 1000 tuples one batch delay has been injected.
        t_1500 = events[1500][1]
        assert t_1500 == pytest.approx(0.1 + 0.005)
        t_4999 = events[4999][1]
        assert t_4999 == pytest.approx(0.1 + 4 * 0.005)

    def test_invalid_batching_rejected(self):
        with pytest.raises(ValueError):
            ArrivalModel(batch_size=-1)
        with pytest.raises(ValueError):
            ArrivalModel(batch_size=10, batch_delay=-0.5)


class TestRemote:
    def test_bandwidth_paces_arrivals(self):
        model = ArrivalModel.remote(
            bandwidth=1000.0, row_bytes=100, latency=0.0, source_read=0.0,
        )
        events = drain(model, ROWS[:10])
        # Each row takes 100/1000 = 0.1s of link time.
        assert events[0][1] == pytest.approx(0.1)
        assert events[9][1] == pytest.approx(1.0)
        assert model.bytes_transferred == 10 * 100

    def test_source_filter_saves_bandwidth(self):
        keep = HashSetSummary.from_values([i for i in range(100) if i % 2 == 0])
        model = ArrivalModel.remote(
            bandwidth=1000.0, row_bytes=100, latency=0.0, source_read=0.0,
        )
        model.install_filter(0, keep, activation_time=0.0)
        events = drain(model, ROWS[:100])
        assert len(events) == 50
        assert model.rows_transferred == 50
        # Only transferred rows consume link time.
        assert events[-1][1] == pytest.approx(50 * 0.1)

    def test_filter_activation_time_respected(self):
        empty = HashSetSummary()  # rejects everything
        model = ArrivalModel.remote(
            bandwidth=1000.0, row_bytes=100, latency=0.0, source_read=0.0,
        )
        # Filter becomes active after 0.35s of link time: rows 0-2 are
        # already through, row 3 is in flight when the filter arrives
        # (departure at 0.3 < 0.35) so it completes; everything after
        # is pruned at the source.
        model.install_filter(0, empty, activation_time=0.35)
        events = drain(model, ROWS[:100])
        assert len(events) == 4

    def test_filter_prune_counter(self):
        empty = HashSetSummary()
        model = ArrivalModel.remote(
            bandwidth=1000.0, row_bytes=100, latency=0.0, source_read=0.0,
        )
        f = model.install_filter(0, empty, activation_time=0.0)
        drain(model, ROWS[:10])
        assert f.pruned == 10
