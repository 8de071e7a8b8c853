"""Observability: structured tracing, a metrics registry, retained
query profiles, and EXPLAIN ANALYZE.

The paper's adaptivity rests on runtime introspection — "All query
operators are supplemented with cardinality counters" (Section V-A) —
and this package is that idea promoted to a first-class subsystem:

* :mod:`repro.obs.trace` — a structured trace collector.  Spans and
  instant events are stamped with the engine's virtual clock **ticks**
  and exported as Chrome-trace/Perfetto JSON.  Tracing is off by
  default and the disabled path is a single ``is None`` check at every
  hook site, so untraced execution is bit-identical to a build without
  the subsystem (the batch-equivalence suite pins this).
* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  histograms aggregating per-query and service-lifetime views
  (latency percentiles, AIP selectivity, cache hit rates, spill
  traffic).
* :mod:`repro.obs.analyze` — ``EXPLAIN ANALYZE``: execute a plan and
  render its tree annotated with estimated vs actual cardinality,
  attributed CPU ticks, peak state and prune counts per operator.
* :mod:`repro.obs.profiles` — a bounded ring of retained per-query
  profiles (plan signature, est-vs-actual per operator, latency
  breakdown), the substrate of the ``profile`` admin frame and the
  slow-query log.
* :mod:`repro.obs.eventlog` — append-only JSONL lifecycle/slow-query
  log with size rotation.
* :mod:`repro.obs.export` — Prometheus text-format export of the
  registry, with per-tenant labeled series.
"""

from repro.obs.eventlog import EventLog
from repro.obs.export import to_prometheus, validate_prometheus
from repro.obs.profiles import ProfileRing, QueryProfile
from repro.obs.registry import MetricsRegistry, percentile
from repro.obs.trace import Tracer, validate_chrome_trace

__all__ = [
    "EventLog",
    "MetricsRegistry",
    "ProfileRing",
    "QueryProfile",
    "Tracer",
    "percentile",
    "to_prometheus",
    "validate_chrome_trace",
    "validate_prometheus",
]
