"""The multi-query service layer on a mixed Q1/Q17 stream.

A :class:`repro.QueryService` runs a *stream* of queries against one
catalog on one virtual clock, with admission control, a scheduler and
a result cache keyed by plan fingerprint.  Every query runs Feed-Forward
AIP, so sideways information passes *within* each query, as in the
paper.  This example replays a stream that mixes TPC-H 2 (Q1A) and
TPC-H 17 (Q2A) arrivals, the repeated-query shape any real workload mix
produces, first with the result cache off and then with it on: a repeat
that arrives after its twin finished is answered from the cache.

Run with::

    PYTHONPATH=src python examples/query_service.py
"""

from repro import QueryService, cached_tpch, parse_workload

STREAM = """
# a mixed Q1/Q17 stream: arrivals in virtual seconds
Q2A
Q1A
@0.02 Q2A
@0.04 Q1A
@0.06 Q2A
@0.08 select count(*) as n from part where p_size = 1
"""


def run(catalog, result_cache):
    service = QueryService(
        catalog,
        strategy="feedforward",
        scheduler="fifo",
        result_cache=result_cache,
    )
    return service.run_workload(parse_workload(STREAM))


def main():
    catalog = cached_tpch(scale_factor=0.01)

    print("Replaying the stream WITHOUT the result cache...\n")
    off = run(catalog, result_cache=False)
    print(off.render())

    print("\nReplaying the same stream WITH the result cache...\n")
    on = run(catalog, result_cache=True)
    print(on.render())

    s_off, s_on = off.summary(), on.summary()
    print("\nThe result cache on this stream:")
    print("  total virtual time  %.4f s -> %.4f s" % (
        s_off["total_virtual_seconds"], s_on["total_virtual_seconds"],
    ))
    print("  queries/second  %.2f -> %.2f" % (
        s_off["queries_per_second"], s_on["queries_per_second"],
    ))
    print("  hit rate  %.0f%% (%d of %d queries served from the cache)" % (
        100 * s_on["result_cache_hit_rate"],
        sum(o.status == "cached" for o in on.outcomes), s_on["queries"],
    ))


if __name__ == "__main__":
    main()
