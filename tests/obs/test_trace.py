"""Tests for the trace collector and Chrome-trace export/validation."""

import json

from repro.obs import trace
from repro.obs.trace import MAX_EVENTS, Tracer, validate_chrome_trace
from repro.obs.validate import main as validate_main


class TestTracer:
    def test_records_instants_and_spans(self):
        tracer = Tracer()
        tracer.instant("aip.publish", "aip", 100, {"rows": 3})
        tracer.complete("query", "engine", 0, 250, {"rows": 1})
        assert len(tracer) == 2
        ph, name, cat, ts, dur, args = tracer.events[0]
        assert (ph, name, cat, ts, dur) == ("i", "aip.publish", "aip", 100, 0)
        assert args == {"rows": 3}
        assert tracer.events[1][0] == "X"
        assert tracer.events[1][4] == 250

    def test_offset_shifts_timestamps(self):
        """Each batch's engine clock restarts at zero; the service folds
        batches onto one timeline through the offset."""
        tracer = Tracer()
        tracer.offset = 1000
        tracer.instant("sched.pick", "service", 5)
        tracer.complete("service.batch", "service", 5, 10)
        assert tracer.events[0][3] == 1005
        assert tracer.events[1][3] == 1005

    def test_instant_now_reuses_high_water_mark(self):
        """Clock-less hook sites (lease creation) stamp at the largest
        timestamp seen, with no double-applied offset."""
        tracer = Tracer()
        tracer.offset = 1000
        tracer.instant("emit:Scan", "engine", 40)
        tracer.instant_now("governor.lease", "governor", {"seq": 1})
        assert tracer.events[-1][3] == 1040

    def test_max_events_counts_drops(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_EVENTS", 2)
        tracer = Tracer()
        for ts in range(5):
            tracer.instant("emit:Scan", "engine", ts)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert tracer.to_chrome()["otherData"]["dropped_events"] == 3

    def test_ring_retains_newest_events(self, monkeypatch):
        """A full buffer is a sliding window: a long-lived server keeps
        the most recent events, not the first hour's."""
        monkeypatch.setattr(trace, "MAX_EVENTS", 3)
        tracer = Tracer()
        for ts in range(10):
            tracer.instant("emit:Scan", "engine", ts)
        assert [event[3] for event in tracer.events] == [7, 8, 9]
        assert tracer.dropped == 7
        # The high-water mark and export keep working past overflow.
        assert tracer.last_ts == 9
        exported = tracer.to_chrome()
        assert [e["ts"] for e in exported["traceEvents"]] == [7, 8, 9]

    def test_default_cap_is_large(self):
        assert Tracer().max_events == MAX_EVENTS == 1_000_000

    def test_chrome_export_shape(self):
        tracer = Tracer()
        tracer.instant("aip.inject", "aip", 7, {"port": 0})
        tracer.complete("query", "engine", 0, 9)
        payload = tracer.to_chrome()
        instant, span = payload["traceEvents"]
        assert instant["ph"] == "i"
        assert instant["s"] == "g"
        assert instant["args"] == {"port": 0}
        assert "dur" not in instant
        assert span["ph"] == "X"
        assert span["dur"] == 9
        for event in (instant, span):
            assert event["pid"] == 0 and event["tid"] == 0
        assert validate_chrome_trace(payload) == []

    def test_write_chrome_round_trips(self, tmp_path):
        tracer = Tracer()
        tracer.complete("query", "engine", 0, 5)
        path = tmp_path / "trace.json"
        tracer.write_chrome(str(path))
        with open(path) as fh:
            payload = json.load(fh)
        assert validate_chrome_trace(payload) == []
        assert payload["traceEvents"][0]["name"] == "query"


class TestValidate:
    def _event(self, **overrides):
        event = {"name": "e", "cat": "c", "ph": "i", "ts": 1,
                 "pid": 0, "tid": 0, "s": "g"}
        event.update(overrides)
        return event

    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []
        assert validate_chrome_trace({"nope": 1}) != []

    def test_empty_trace_is_an_error(self):
        errors = validate_chrome_trace({"traceEvents": []})
        assert errors and "empty" in errors[0]

    def test_flags_bad_fields(self):
        payload = {"traceEvents": [
            self._event(name=""),
            self._event(ph="Z"),
            self._event(ts=-5),
            {"name": "x", "cat": "c", "ph": "X", "ts": 1,
             "pid": 0, "tid": 0},  # complete without dur
            self._event(pid="zero"),
            self._event(args=[1]),
        ]}
        errors = validate_chrome_trace(payload)
        for needle in ("name", "phase", "'ts'", "dur", "'pid'", "'args'"):
            assert any(needle in error for error in errors), needle

    def test_accepts_foreign_metadata_events(self):
        payload = {"traceEvents": [
            self._event(),
            {"name": "process_name", "cat": "__metadata", "ph": "M",
             "ts": 0, "pid": 0, "tid": 0, "args": {"name": "repro"}},
        ]}
        assert validate_chrome_trace(payload) == []

    def test_error_cap(self):
        payload = {"traceEvents": [self._event(ph="Z") for _ in range(50)]}
        errors = validate_chrome_trace(payload)
        assert errors[-1].startswith("...")
        assert len(errors) <= 21

    def test_cli_validator_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        tracer = Tracer()
        tracer.instant("emit:Scan", "engine", 1)
        tracer.write_chrome(str(good))
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": []}')
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{nope")

        assert validate_main([str(good)]) == 0
        assert validate_main([str(good), str(bad)]) == 1
        assert validate_main([str(garbled)]) == 1
        assert validate_main([]) == 2
        out = capsys.readouterr()
        assert "ok (1 events)" in out.out
