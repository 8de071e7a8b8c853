"""The paper's qualitative shapes as assertions, not docstrings.

First slice of ROADMAP 5b: Figures 5, 7, 9 and 11 (Section VI-B, the
TPC-H Q2 / IBM-query variants under all four strategies, streamed and
with the large input delayed) on the engine's deterministic virtual
metrics at scale 0.002.  One test per figure; every tolerance is
written next to the value this checkout measures, so a failure says how
far the reproduction moved, not just that it did.  ``benchmarks/
bench_fig05/07/09/11`` print the same cells at scale 0.01.

Known deviation, asserted as such: Feed-Forward's *state* exceeds
Baseline's at this toy scale (its AIP sets outweigh the tuples they
prune: 1.06-1.67x streamed, 1.5-5.3x delayed), so the state figures
hold the paper's claim for Cost-Based only.
"""

import functools

import pytest

from repro.harness.runner import run_workload_query
from repro.harness.strategies import BASELINE, COSTBASED, FEEDFORWARD, MAGIC
from repro.workloads.registry import FIG5_QUERIES

SCALE = 0.002


@functools.lru_cache(maxsize=None)
def cell(qid, strategy, delayed):
    """One (query, strategy, inputs) run; time and state figures read
    the same 64 executions."""
    return run_workload_query(
        qid, strategy, scale_factor=SCALE, delayed=delayed,
    ).summary


def seconds(qid, strategy, delayed=False):
    return cell(qid, strategy, delayed)["virtual_seconds"]


def state_mb(qid, strategy, delayed=False):
    return cell(qid, strategy, delayed)["peak_state_mb"]


@pytest.mark.parametrize("qid", FIG5_QUERIES)
def test_fig05_aip_beats_baseline_and_magic_on_streamed_inputs(qid):
    """Both AIP methods beat Baseline and Magic on every variant, and
    Cost-Based stays close to Feed-Forward."""
    best_rival = min(seconds(qid, BASELINE), seconds(qid, MAGIC))
    for aip in (FEEDFORWARD, COSTBASED):
        # Measured: at least 20% under the better of the two rivals
        # (FF 26-54%, CB 20-44%); require 10%.
        assert seconds(qid, aip) < 0.90 * best_rival, aip
    # Measured CB/FF 1.08-1.34 (the paper: "within a few percent";
    # the toy scale amortises the manager's decisions over fewer rows).
    assert seconds(qid, COSTBASED) <= 1.40 * seconds(qid, FEEDFORWARD)


def check_state_shape(qid, delayed):
    """Cost-Based holds no more state than Baseline, Magic holds more."""
    base = state_mb(qid, BASELINE, delayed)
    # Measured CB/Baseline 0.31-1.003 streamed, 0.49-1.008 delayed: the
    # two cells above 1.0 are Q1E and delayed Q3A, where Cost-Based
    # declines most sets and keeps their bookkeeping; allow 2%.
    assert state_mb(qid, COSTBASED, delayed) <= 1.02 * base
    # Measured Magic/Baseline 1.10-12.5 streamed, 1.57-20.2 delayed.
    assert state_mb(qid, MAGIC, delayed) >= base
    # Cost-Based is also the leaner AIP method (CB/FF 0.19-0.60).
    assert state_mb(qid, COSTBASED, delayed) <= 0.75 * state_mb(
        qid, FEEDFORWARD, delayed,
    )


@pytest.mark.parametrize("qid", FIG5_QUERIES)
def test_fig07_cost_based_saves_state_and_magic_costs_it(qid):
    check_state_shape(qid, delayed=False)


@pytest.mark.parametrize("qid", FIG5_QUERIES)
def test_fig11_the_state_saving_persists_under_delay(qid):
    check_state_shape(qid, delayed=True)


@pytest.mark.parametrize("qid", FIG5_QUERIES)
def test_fig09_delay_closes_the_time_gap_but_aip_keeps_an_edge(qid):
    """With the large input delayed, I/O wait dominates: the gaps
    shrink, yet both AIP methods still finish first."""
    def gap(delayed):
        return 1.0 - (
            seconds(qid, FEEDFORWARD, delayed) / seconds(qid, BASELINE, delayed)
        )

    # Measured FF-vs-Baseline gap: 29-54% streamed, 1.9-6.2% delayed.
    assert gap(False) >= 0.20
    assert 0.01 <= gap(True) <= 0.10
    assert gap(True) < gap(False) / 3
    rival = min(seconds(qid, BASELINE, True), seconds(qid, MAGIC, True))
    for aip in (FEEDFORWARD, COSTBASED):
        assert seconds(qid, aip, True) < rival, aip
    # Filter cost hides inside the waits: CB/FF 1.002-1.004 delayed.
    assert seconds(qid, COSTBASED, True) <= 1.01 * seconds(
        qid, FEEDFORWARD, True,
    )
