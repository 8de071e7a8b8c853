"""The paper's qualitative shapes as assertions, not docstrings.

Section VI's Figures 5-14 (the TPC-H Q2 / IBM-query variants, the Q17
variants, the join and distributed-join queries; streamed and with the
large input delayed) and the design ablations (hash join short-circuit,
Bloom filter vs hash set, false-positive target, Feed-Forward's scan
injection and interest pruning, a concurrent multi-query mix) on the
engine's deterministic virtual metrics.  Every tolerance is written
next to the value this checkout measures, so a failure says how far the
reproduction moved, not just that it did.  One figure row is one
command away: ``repro run QID --strategy all [--delayed] --scale
0.002`` prints every strategy's time and state for one query.

Scale 0.002 throughout, except the distributed joins (Q3C/Q1C): at
0.002 Cost-Based declines to ship any filter and their network bytes
equal Baseline's, so those run at 0.01.

Known deviations, asserted as such:

* Feed-Forward's *state* exceeds Baseline's at this toy scale (its AIP
  sets outweigh the tuples they prune: 1.06-1.67x on the Figure 5
  queries streamed, 1.5-5.3x delayed, 0.99-1.19x on Q17 streamed), so
  the streamed state figures hold the paper's claim for Cost-Based
  only.
* Magic's state blows up on all five Q17 variants, not only on Q2C.
* Q4A's relative win exceeds Q4B's (the paper has it the other way).
* Feed-Forward ships no filter to the remote site of Q3C/Q1C and holds
  more state than Baseline there.
* Interest pruning changes nothing: scans register interest in every
  output column equated elsewhere, and on every Table I plan each
  class with a producer holds some scan's column, so every candidate
  has an interested scan and the pass drops none
  (``tests/aip/test_candidates.py::TestInterestPruning``).
"""

import functools

import pytest

from repro.aip.sets import HASHSET
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.harness.concurrent import run_concurrent
from repro.harness.runner import run_workload_query
from repro.harness.strategies import (
    BASELINE, COSTBASED, FEEDFORWARD, MAGIC, make_strategy,
)
from repro.workloads.registry import (
    FIG5_QUERIES, FIG6_QUERIES, FIG13_QUERIES, QUERIES, get_query,
)

SCALE = 0.002
#: The distributed joins ship filters only past this scale (see above).
DISTRIBUTED_SCALE = 0.01

AIP = (FEEDFORWARD, COSTBASED)
LOCAL_JOINS = [q for q in FIG13_QUERIES if not get_query(q).is_distributed]
DISTRIBUTED_JOINS = [q for q in FIG13_QUERIES if get_query(q).is_distributed]


@functools.lru_cache(maxsize=None)
def cell(qid, strategy, delayed=False, scale=SCALE, short_circuit=True,
         **knobs):
    """One (query, strategy, inputs, knobs) run; every figure and
    ablation reads the same executions."""
    return run_workload_query(
        qid, strategy, scale_factor=scale, delayed=delayed,
        short_circuit=short_circuit, strategy_kwargs=knobs,
    ).summary


def seconds(qid, strategy, delayed=False, **kw):
    return cell(qid, strategy, delayed, **kw)["virtual_seconds"]


def state_mb(qid, strategy, delayed=False, **kw):
    return cell(qid, strategy, delayed, **kw)["peak_state_mb"]


def vs_baseline(read, qid, strategy, delayed=False, **kw):
    """``read`` (``seconds`` or ``state_mb``) under ``strategy`` over
    Baseline's, on the same inputs."""
    return read(qid, strategy, delayed, **kw) / read(
        qid, BASELINE, delayed, **kw,
    )


# -- Figures 5, 7, 9, 11: TPC-H Q2 and the IBM query --------------------


@pytest.mark.parametrize("qid", FIG5_QUERIES)
def test_fig05_aip_beats_baseline_and_magic_on_streamed_inputs(qid):
    """Both AIP methods beat Baseline and Magic on every variant, and
    Cost-Based stays close to Feed-Forward."""
    best_rival = min(seconds(qid, BASELINE), seconds(qid, MAGIC))
    for aip in AIP:
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
        return 1.0 - vs_baseline(seconds, qid, FEEDFORWARD, delayed)

    # Measured FF-vs-Baseline gap: 29-54% streamed, 1.9-6.2% delayed.
    assert gap(False) >= 0.20
    assert 0.01 <= gap(True) <= 0.10
    assert gap(True) < gap(False) / 3
    rival = min(seconds(qid, BASELINE, True), seconds(qid, MAGIC, True))
    for aip in AIP:
        assert seconds(qid, aip, True) < rival, aip
    # Filter cost hides inside the waits: CB/FF 1.002-1.004 delayed.
    assert seconds(qid, COSTBASED, True) <= 1.01 * seconds(
        qid, FEEDFORWARD, True,
    )


# -- Figures 6, 8, 10, 12: TPC-H Q17 ------------------------------------


@pytest.mark.parametrize("qid", FIG6_QUERIES)
def test_fig06_aip_cuts_q17_time_and_magic_does_not(qid):
    """Large AIP wins on every Q17 variant; Magic gains nothing."""
    # Measured FF/Baseline 0.34-0.40 and CB/Baseline 0.35-0.43; require
    # under half.
    for aip in AIP:
        assert vs_baseline(seconds, qid, aip) < 0.50, aip
    # Measured Magic/Baseline 1.003-1.022: within 2.3% of Baseline and
    # never ahead of it; allow 4%.
    assert 1.0 <= vs_baseline(seconds, qid, MAGIC) <= 1.04
    if qid == "Q2E":
        # The paper's "slightly worse": 0.0716 vs 0.0700 s (+2.2%), the
        # largest Magic loss of the five; require +1.5%.
        assert vs_baseline(seconds, qid, MAGIC) >= 1.015


@pytest.mark.parametrize("qid", FIG6_QUERIES)
def test_fig08_cost_based_holds_q17_state_and_magic_blows_up(qid):
    base = state_mb(qid, BASELINE)
    # Measured CB/Baseline 0.92-1.00 (exactly 1.00 on Q2A-Q2D).
    assert state_mb(qid, COSTBASED) <= base
    # Cost-Based is the leaner AIP method: CB/FF 0.84-0.93; require 0.95.
    assert state_mb(qid, COSTBASED) <= 0.95 * state_mb(qid, FEEDFORWARD)
    # Deviation: FF/Baseline 0.99-1.19, the toy-scale Feed-Forward
    # state (see the module docstring); allow 0.95-1.25.
    assert 0.95 <= vs_baseline(state_mb, qid, FEEDFORWARD) <= 1.25
    # Deviation: Magic's state blows up on all five variants (0.57-1.17
    # MB against Baseline's 0.03-0.08 MB, 12.7-37x), not only on Q2C;
    # require 10x.
    assert state_mb(qid, MAGIC) >= 10 * base


@pytest.mark.parametrize("qid", FIG6_QUERIES)
def test_fig10_delay_closes_the_q17_gap_but_aip_finishes_first(qid):
    # Measured FF/Baseline 0.94-0.98 and CB/Baseline 0.94-0.98 delayed
    # (streamed: 0.34-0.43); allow 0.90-0.99.
    for aip in AIP:
        assert 0.90 <= vs_baseline(seconds, qid, aip, True) <= 0.99, aip
    rival = min(seconds(qid, BASELINE, True), seconds(qid, MAGIC, True))
    for aip in AIP:
        assert seconds(qid, aip, True) < rival, aip


@pytest.mark.parametrize("qid", FIG6_QUERIES)
def test_fig12_aip_holds_less_q17_state_under_delay(qid):
    base = state_mb(qid, BASELINE, True)
    # Measured FF 0.006-0.067 MB and CB 0.000-0.062 MB against
    # Baseline's 0.010-0.080 MB: FF/Baseline 0.31-0.84, CB/Baseline
    # 0.001-0.78; require 0.90.
    for aip in AIP:
        assert state_mb(qid, aip, True) <= 0.90 * base, aip
    # Magic still blows up: 14.6-59x Baseline; require 10x.
    assert state_mb(qid, MAGIC, True) >= 10 * base


# -- Figures 13, 14: join and distributed-join queries ------------------


@pytest.mark.parametrize("qid", LOCAL_JOINS)
def test_fig13_aip_speeds_up_local_joins(qid):
    # Measured FF/Baseline 0.44-0.86 and CB/Baseline 0.48-0.80 (Q5A is
    # the slowest FF cell); require 0.90.
    for aip in AIP:
        assert vs_baseline(seconds, qid, aip) <= 0.90, aip


def test_fig13_deviation_q4a_gains_more_than_q4b():
    """The paper's larger gain is on Q4B (its selective supplier cut);
    here Q4A's is: FF/Baseline 0.44 on Q4A vs 0.54 on Q4B, CB 0.48 vs
    0.59."""
    for aip in AIP:
        assert vs_baseline(seconds, "Q4A", aip) < vs_baseline(
            seconds, "Q4B", aip,
        ), aip


def test_fig13_cost_based_declines_q5b_useless_filters():
    """Q5B is the useless-filter case: Cost-Based does not generate the
    filters Feed-Forward builds anyway."""
    ff, cb = cell("Q5B", FEEDFORWARD), cell("Q5B", COSTBASED)
    # Measured: CB builds 3 sets and declines 6; FF builds 30.
    assert cb["aip_sets_created"] >= 1 and cb["aip_sets_declined"] >= 1
    assert ff["aip_sets_created"] >= 5 * cb["aip_sets_created"]


@pytest.mark.parametrize("qid", LOCAL_JOINS)
def test_fig14_aip_cuts_local_join_state(qid):
    # Measured FF/Baseline 0.30-0.94 and CB/Baseline 0.11-0.83 (Q5A is
    # the largest FF cell); require 0.97.
    for aip in AIP:
        assert vs_baseline(state_mb, qid, aip) <= 0.97, aip


def distributed(qid, strategy):
    return cell(qid, strategy, scale=DISTRIBUTED_SCALE)


@pytest.mark.parametrize("qid", DISTRIBUTED_JOINS)
def test_fig13_cost_based_ships_filters_to_the_remote_site(qid):
    """Adaptive Bloomjoin: shipping filters to the remote PARTSUPP site
    cuts the bytes fetched and the time."""
    base, cb = distributed(qid, BASELINE), distributed(qid, COSTBASED)
    # Measured network bytes 1,152,000 -> 677,232 (Q3C) and 735,768
    # (Q1C), CB/Baseline 0.59-0.64; require 0.75.
    assert cb["aip_bytes_shipped"] > 0
    assert cb["network_bytes"] <= 0.75 * base["network_bytes"]
    # Measured time CB/Baseline 0.61-0.64 (36-39% faster); require 0.75.
    assert cb["virtual_seconds"] <= 0.75 * base["virtual_seconds"]
    # Deviation: Feed-Forward ships nothing and fetches every byte.
    ff = distributed(qid, FEEDFORWARD)
    assert ff["aip_bytes_shipped"] == 0
    assert ff["network_bytes"] == base["network_bytes"]


@pytest.mark.parametrize("qid", DISTRIBUTED_JOINS)
def test_fig14_distributed_state(qid):
    base = distributed(qid, BASELINE)["peak_state_mb"]
    # Measured CB/Baseline 0.44 (Q3C) and 0.26 (Q1C); require 0.60.
    assert distributed(qid, COSTBASED)["peak_state_mb"] <= 0.60 * base
    # Deviation: Feed-Forward holds 0.14 MB against Baseline's 0.016
    # (Q3C) and 0.051 MB (Q1C), 2.8-8.7x; require 2x.
    assert distributed(qid, FEEDFORWARD)["peak_state_mb"] >= 2 * base


# -- Ablations ----------------------------------------------------------


# Measured Baseline state growth with the short-circuit off: 22.9x on
# Q2A, 19.4x on Q2C, 4.2x on Q4A; require 15x / 15x / 3x.
@pytest.mark.parametrize("qid, growth", [
    ("Q2A", 15), ("Q2C", 15), ("Q4A", 3),
])
def test_ablation_short_circuit_saves_baseline_state(qid, growth):
    """The pipelined hash join's short-circuit (Section VI-A) is the
    state Magic gives back on Q17: without it Baseline buffers the
    probe side it will never need."""
    off = dict(short_circuit=False)
    assert state_mb(qid, BASELINE, **off) >= growth * state_mb(qid, BASELINE)
    # Measured time +10-30% (Q2A 0.069 -> 0.083 s).
    assert seconds(qid, BASELINE, **off) > seconds(qid, BASELINE)


@pytest.mark.parametrize("qid", ["Q1A", "Q2A"])
def test_ablation_fp_target_trades_state_not_time(qid):
    """Looser Bloom filters are smaller; at this scale the extra false
    positives cost no measurable time."""
    rates = (0.01, 0.05, 0.20)
    states = [state_mb(qid, FEEDFORWARD, fp_rate=r) for r in rates]
    # Measured Q1A 0.152 / 0.037 / 0.017 MB, Q2A 0.080 / 0.056 / 0.052.
    assert states == sorted(states, reverse=True)
    assert states[-1] < states[0]
    # Measured: Q1A 0.005046 s and Q2A 0.025282 s at every target.
    assert len({seconds(qid, FEEDFORWARD, fp_rate=r) for r in rates}) == 1


# Measured Bloom/hash-set time: Q1A 0.79, Q2A 1.00 (a tie), Q4A 0.78;
# require 0.90 / 1.00 / 0.90.
@pytest.mark.parametrize("qid, ratio", [
    ("Q1A", 0.90), ("Q2A", 1.00), ("Q4A", 0.90),
])
def test_ablation_bloom_filters_are_no_slower_than_hash_sets(qid, ratio):
    """Section V: "Bloom filters proved to be superior in performance
    for all cases".  Bloom is Feed-Forward's default summary."""
    assert seconds(qid, FEEDFORWARD) <= ratio * seconds(
        qid, FEEDFORWARD, summary_kind=HASHSET,
    )


@pytest.mark.parametrize("qid", ["Q1A", "Q2A"])
def test_ablation_scan_injection_pays(qid):
    """Injecting published sets at the scans prunes before any
    downstream work (the paper's "after PS2 is read")."""
    # Measured: without it 1.60x slower on Q1A and 1.90x on Q2A;
    # require 1.3x.
    assert seconds(qid, FEEDFORWARD, inject_at_scans=False) >= 1.3 * seconds(
        qid, FEEDFORWARD,
    )


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_ablation_deviation_interest_pruning_changes_nothing(qid):
    """The paper drops candidate sets nobody is interested in; here the
    pass drops none on any Table I query, so time and state are exact
    with it off."""
    off = dict(prune_uninterested=False)
    assert seconds(qid, FEEDFORWARD, **off) == seconds(qid, FEEDFORWARD)
    assert state_mb(qid, FEEDFORWARD, **off) == state_mb(qid, FEEDFORWARD)


MIX = ("Q1A", "Q3A", "Q2A")


@functools.lru_cache(maxsize=None)
def mix(strategy):
    """Aggregate metrics of ``MIX`` run concurrently on one clock."""
    catalog = cached_tpch(scale_factor=SCALE)
    plans = [get_query(qid).build_baseline(catalog) for qid in MIX]
    ctx = ExecutionContext(catalog)
    run_concurrent(plans, ctx, strategies=[make_strategy(strategy)
                                           for _ in plans])
    return ctx.metrics


def test_concurrent_mix_aip_saves_aggregate_state_and_time():
    """Section VI-B/D: the savings matter most when queries share one
    engine."""
    base = mix(BASELINE)
    # Measured aggregate peak: CB 0.064 MB against Baseline's 0.113 MB
    # (0.57x); require 0.75.  (FF: 0.121 MB, the toy-scale FF state.)
    assert mix(COSTBASED).peak_state_bytes <= 0.75 * base.peak_state_bytes
    # Measured clocks: FF 0.035 s and CB 0.038 s against 0.089 s
    # (0.39x / 0.43x); require 0.45.
    for aip in AIP:
        assert mix(aip).clock < 0.45 * base.clock, aip
