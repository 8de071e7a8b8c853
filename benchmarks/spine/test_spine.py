"""Tier-1 tests of the measurement spine (collected by the root pytest run).

The arithmetic the numbers rest on (tail-percentile picker, span self
time), the process contract (every child gone on every exit path), and
one ``run.py --smoke`` run checking that each metric and workload is
reported exactly once with a unit.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import compare
from spans import SpanLog, self_time_ns
from stats import percentile, pick_tail
from workloads import BY_NAME

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


# -- the tail-percentile picker ------------------------------------------------

def test_pick_tail_wants_ten_samples_beyond():
    assert pick_tail(39) is None          # p75 leaves 9.75 beyond
    assert pick_tail(40) == 75
    assert pick_tail(99) == 75            # p90 leaves 9.9 beyond
    assert pick_tail(100) == 90
    assert pick_tail(999) == 90
    assert pick_tail(1000) == 99


# Sample counts of a run_seconds (20 s) window on the 2-core reference box.
@pytest.mark.parametrize("name, full_window_samples", [
    ("point_cached", 900), ("exec_mix", 75), ("wide_scan", 150),
    ("exec_spill", 48),
])
def test_fixed_tails_are_what_the_picker_chose(name, full_window_samples):
    assert BY_NAME[name].tail == pick_tail(full_window_samples)


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([4.0, 1.0, 3.0, 2.0], 75) == 3.25
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- span self time ------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    assert self_time_ns(0, 100, []) == 100
    assert self_time_ns(0, 100, [(10, 30), (50, 60)]) == 70
    # Overlapping children are counted once ...
    assert self_time_ns(0, 100, [(10, 40), (30, 60)]) == 50
    # ... a nested one adds nothing, and parts outside the parent
    # interval are ignored.
    assert self_time_ns(0, 100, [(10, 60), (20, 30)]) == 50
    assert self_time_ns(0, 100, [(-20, 10), (90, 150)]) == 80


def test_span_log_links_children_to_the_enclosing_span():
    log = SpanLog()
    with log.span("root", qid=7) as root:
        with log.span("child", qid=7):
            time.sleep(0.002)
        with log.span("child", qid=7):
            pass
    assert [s["parent"] for s in log.spans] == [None, root, root]
    assert all(s["qid"] == 7 for s in log.spans)
    covered = log.total_ns("child")
    duration = log.spans[root]["end_ns"] - log.spans[root]["start_ns"]
    assert log.self_ns(root) == duration - covered
    assert 0 <= log.self_ns(root) < duration

    other = SpanLog()
    with other.span("root", qid=8):
        with other.span("child", qid=8):
            pass
    log.extend(other)
    assert log.spans[-1]["parent"] == len(log.spans) - 2


# -- compare.py verdicts -------------------------------------------------------

def test_verdicts():
    assert compare.verdict(100, 109, "lower", 0.10, 0.02) == "unchanged"
    assert compare.verdict(100, 111, "lower", 0.10, 0.02) == "regressed"
    assert compare.verdict(100, 89, "higher", 0.10, 0.02) == "regressed"
    assert compare.verdict(100, 80, "lower", 0.10, 0.02) == "improved"
    # Spread wider than the bound: "no change" cannot be claimed.
    assert compare.verdict(100, 105, "lower", 0.10, 0.15) == "unresolved"
    # shutdown_s: 10% or 0.25 s, whichever is larger.
    assert compare.verdict(0.05, 0.2, "lower", 0.10, None, 0.25) == "unchanged"
    assert compare.verdict(10.0, 11.5, "lower", 0.10, None, 0.25) == "regressed"


# -- the reaper ----------------------------------------------------------------

MINI_HARNESS = """
import atexit, sys, time
sys.path.insert(0, %r)
from procs import Reaper, leaked_processes
# Registered first, so it runs last: after the reaper's own exit hook.
atexit.register(
    lambda: print("leaked", len(leaked_processes()), flush=True))
reaper = Reaper()
reaper.install()
child = reaper.spawn(["sleep", "60"])
print("pid", child.pid, flush=True)
if sys.argv[1] == "raise":
    raise RuntimeError("injected")
time.sleep(60)
""" % HERE


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _mini_harness(mode: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", MINI_HARNESS, mode],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )


def test_reaper_after_an_injected_exception():
    harness = _mini_harness("raise")
    out, _ = harness.communicate(timeout=60)
    pid = int(out.split()[1])
    assert harness.returncode == 1
    assert "leaked 0" in out
    assert _gone(pid)


def test_reaper_after_sigterm_to_the_harness():
    harness = _mini_harness("sleep")
    pid = int(harness.stdout.readline().split()[1])
    assert not _gone(pid)
    harness.send_signal(signal.SIGTERM)
    out, _ = harness.communicate(timeout=60)
    assert harness.returncode == 128 + signal.SIGTERM
    assert "leaked 0" in out
    assert _gone(pid)


# -- one smoke run -------------------------------------------------------------

def _server_children_of(harness_pid: int):
    """Live ``serve_child.py`` processes started by ``harness_pid``
    (the launcher's first argument is its parent's pid)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % entry, "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue
        if any(a.endswith(b"serve_child.py") for a in argv) \
                and str(harness_pid).encode() in argv:
            found.append(int(entry))
    return found


def _out_dirs():
    return {n for n in os.listdir(ROOT) if n.startswith(".spine-out-")}


def test_smoke_run_reports_every_metric_once_and_leaves_nothing():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    out_dirs = _out_dirs()
    harness = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    out, _ = harness.communicate(timeout=170)
    assert harness.returncode == 0, out
    assert "leaked_processes 0" in out.splitlines()
    assert _server_children_of(harness.pid) == []
    assert _out_dirs() <= out_dirs  # the default --out was removed

    blocks = out.split("== ")[1:]
    assert [b.split()[0] for b in blocks] == [
        w["name"] for w in benchmark["workloads"]
    ]
    expected = {
        m["name"]: m["unit"]
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    for block in blocks:
        reported = {}
        for line in block.splitlines()[2:]:
            fields = line.split()
            if len(fields) == 3 and fields[0] in expected:
                assert fields[0] not in reported, fields[0]
                float(fields[1])
                reported[fields[0]] = fields[2]
        assert reported == expected
