"""Tests for the JSONL event log and the slow-query log."""

import json
import os

import pytest

from repro.data.tpch import cached_tpch
from repro.obs import eventlog
from repro.obs.eventlog import EventLog, open_event_log
from repro.service import QueryService, ServiceConfig, TenantQuota


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


class TestEventLog:
    def test_emit_writes_one_json_line_per_event(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("admit", clock=1.5, seq=1, tenant="t")
            log.emit("shed", reason="quota:state")
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert [e["event"] for e in lines] == ["admit", "shed"]
        assert lines[0]["clock"] == 1.5
        assert lines[0]["seq"] == 1
        assert "ts" in lines[0]
        assert "clock" not in lines[1]  # only when the emitter has one
        assert log.events_written == 2

    def test_tail_returns_newest_entries(self, tmp_path):
        """Each emit is flushed, so the file's last lines are the
        newest entries while the log is still open."""
        path = tmp_path / "e.jsonl"
        with EventLog(str(path)) as log:
            for i in range(8):
                log.emit("tick", i=i)
            tail = path.read_text().splitlines()[-3:]
            assert [json.loads(line)["i"] for line in tail] == [5, 6, 7]

    def test_rotation_bounds_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(eventlog, "MAX_BYTES", 1024)
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            for i in range(64):
                log.emit("tick", i=i, pad="x" * 64)
            assert log.rotations >= 1
            assert os.path.exists(path + ".1")
            assert os.path.getsize(path) <= 1024
            # Nothing between the generations was lost silently: the
            # live file continues right after the rotated one ends.
            last_rotated = json.loads(
                open(path + ".1").read().splitlines()[-1]
            )
            first_live = json.loads(
                open(path).read().splitlines()[0]
            )
            assert first_live["i"] == last_rotated["i"] + 1

    def test_close_drops_late_emitters_silently(self, tmp_path):
        log = EventLog(str(tmp_path / "e.jsonl"))
        log.emit("first")
        log.close()
        log.emit("late")  # no raise
        log.close()  # idempotent
        assert log.events_written == 1

    def test_open_event_log_coercion(self, tmp_path):
        assert open_event_log(None) is None
        with EventLog(str(tmp_path / "a.jsonl")) as log:
            assert open_event_log(log) is log
        opened = open_event_log(str(tmp_path / "b.jsonl"))
        assert isinstance(opened, EventLog)
        opened.close()


class TestServiceIntegration:
    def test_lifecycle_events_are_logged(self, catalog, tmp_path):
        path = str(tmp_path / "service.jsonl")
        quotas = {"capped": TenantQuota(max_state_bytes=1.0)}
        config = ServiceConfig(event_log=path, quotas=quotas)
        with QueryService(catalog, config) as service:
            service.submit("Q1A", tenant="free")
            service.submit("Q2A", tenant="capped")
            service.run()
        with open(path) as fh:
            events = [json.loads(line) for line in fh]
        kinds = [e["event"] for e in events]
        assert "admit" in kinds
        assert "shed" in kinds
        assert "batch_complete" in kinds
        shed = next(e for e in events if e["event"] == "shed")
        assert shed["tenant"] == "capped"
        assert shed["reason"] == "quota:state"
        # Every entry carries wall + virtual timestamps.
        assert all("ts" in e and "clock" in e for e in events)

    def test_slow_query_entry_embeds_profile_and_explain(
            self, catalog, tmp_path):
        path = str(tmp_path / "slow.jsonl")
        config = ServiceConfig(event_log=path, slow_query_ms=0.0)
        with QueryService(catalog, config) as service:
            seq = service.submit("Q2A", tenant="t")
            service.run()
        events = [json.loads(line) for line in open(path)]
        slow = [e for e in events if e["event"] == "slow_query"]
        assert len(slow) == 1
        entry = slow[0]
        assert entry["seq"] == seq
        assert entry["latency_ms"] >= entry["threshold_ms"]
        assert entry["profile"]["seq"] == seq
        assert entry["profile"]["operators"]
        assert "query #%d" % seq in entry["explain"]

    def test_results_identical_with_logging_on(self, catalog, tmp_path):
        def run(config):
            with QueryService(catalog, config) as service:
                service.submit("Q2A")
                report = service.run()
                outcome = report.outcomes[0]
                return outcome.to_result().to_payload()

        plain = run(ServiceConfig())
        logged = run(ServiceConfig(
            event_log=str(tmp_path / "e.jsonl"), slow_query_ms=0.0,
        ))
        assert plain == logged
