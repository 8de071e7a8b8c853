"""The metrics registry: counters, gauges, fixed-bucket histograms.

The engine's :class:`~repro.exec.metrics.Metrics` store is *per
query execution* and deliberately minimal (it sits on the hot path and
its clock must be bit-identical across execution paths).  The registry
is the aggregation layer above it: the service folds each finished
batch's engine counters, latencies and cache/governor observations into
one registry, giving service-lifetime views — p50/p95/p99 latency, AIP
selectivity, spill traffic — without touching per-tuple code.

Histograms use fixed bucket boundaries so aggregation is one integer
increment per observation and quantiles are reproducible: the same
observations always yield the same (interpolated) percentile, which is
what lets tail-latency numbers be baselined in the CI regression gate.

**Labeled children** (``counter.labels(tenant="a").inc()``) carve one
metric into per-label series without ad-hoc name mangling.  A child is
a full metric of the same kind; counter and histogram children *roll
up* into their parent automatically (one ``labels(...).inc()`` feeds
both the per-tenant series and the total), so the parent stays the
aggregate view the service reports have always read.  Gauge children
are independent point-in-time series (summing gauges is rarely
meaningful).  Snapshots nest the children under ``"series"`` keyed by
the canonical ``k="v"`` label string, and the Prometheus exporter
(:mod:`repro.obs.export`) turns them into labeled sample lines.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

#: Default latency buckets (virtual seconds): geometric-ish coverage
#: from sub-millisecond interactive queries to minutes-long scans.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

#: Default ratio buckets (selectivities, fill fractions, hit rates).
RATIO_BUCKETS = tuple(i / 20.0 for i in range(1, 20))


def percentile(values: Sequence[float], q: float) -> float:
    """Exact linear-interpolated percentile of ``values``.

    ``q`` is in [0, 100].  Used where the raw observations are at hand
    (per-run latency lists); histograms answer the same question
    approximately from bucket counts.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]; got %r" % q)
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if frac == 0.0 or low + 1 >= len(ordered):
        return ordered[low]
    return ordered[low] * (1.0 - frac) + ordered[low + 1] * frac


def label_key(labels: Dict[str, object]) -> str:
    """Canonical ``k="v"`` string for one label set (sorted by key)."""
    if not labels:
        raise ValueError("labels() needs at least one label")
    return ",".join(
        '%s="%s"' % (key, labels[key]) for key in sorted(labels)
    )


class _Labeled:
    """Shared child-series machinery for all three metric kinds."""

    __slots__ = ()

    def labels(self, **labels):
        """The child series for one label set, created on first use.

        Children are the same metric kind as their parent; see the
        module docstring for the roll-up rules.
        """
        key = label_key(labels)
        children = self._children
        if children is None:
            children = self._children = {}
        child = children.get(key)
        if child is None:
            # setdefault: two threads racing on first use keep one.
            child = children.setdefault(key, self._make_child())
        return child

    @property
    def series(self) -> Dict[str, "_Labeled"]:
        """Live child metrics keyed by canonical label string."""
        return dict(self._children or {})

    def _series_snapshot(self, snap: Dict) -> Dict:
        if self._children:
            snap["series"] = {
                key: child.snapshot()
                for key, child in sorted(self._children.items())
            }
        return snap


class Counter(_Labeled):
    """A monotonically increasing count.

    A labeled child's ``inc`` also increments its parent, so the
    unlabeled value remains the total across every label set.
    """

    __slots__ = ("value", "_children", "_parent")

    def __init__(self, parent: Optional["Counter"] = None):
        self.value = 0
        self._children = None
        self._parent = parent

    def _make_child(self) -> "Counter":
        return Counter(parent=self)

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; got %r" % amount)
        self.value += amount
        if self._parent is not None:
            self._parent.inc(amount)

    def snapshot(self) -> Dict:
        return self._series_snapshot({"type": "counter", "value": self.value})


class Gauge(_Labeled):
    """A point-in-time value, with its observed extremes kept.

    Gauge children are independent series — a parent gauge is *not*
    the sum of its children (point-in-time values don't roll up the
    way counts do).
    """

    __slots__ = ("value", "max_value", "min_value", "updates", "_children")

    def __init__(self):
        self.value = 0.0
        self.max_value = None
        self.min_value = None
        self.updates = 0
        self._children = None

    def _make_child(self) -> "Gauge":
        return Gauge()

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if self.min_value is None or value < self.min_value:
            self.min_value = value

    def inc(self, delta: float = 1.0) -> None:
        """Adjust relative to the current value (connection counts and
        other net-layer levels move by deltas, not absolutes)."""
        self.set(self.value + delta)

    def snapshot(self) -> Dict:
        return self._series_snapshot({
            "type": "gauge",
            "value": self.value,
            "max": self.max_value,
            "min": self.min_value,
        })


class Histogram(_Labeled):
    """Fixed-boundary bucket histogram with interpolated quantiles.

    ``boundaries`` are the bucket upper bounds; one overflow bucket
    catches everything above the last boundary.  Quantiles interpolate
    linearly inside the winning bucket (the overflow bucket reports the
    maximum observed value, so p99 of a trace with outliers is still
    finite and meaningful).

    A labeled child shares its parent's boundaries, and its ``observe``
    also feeds the parent — the unlabeled distribution remains the
    aggregate across every label set.
    """

    __slots__ = (
        "boundaries", "counts", "count", "total", "vmin", "vmax",
        "_children", "_parent",
    )

    def __init__(self, boundaries: Sequence[float] = LATENCY_BUCKETS,
                 parent: Optional["Histogram"] = None):
        bounds = list(boundaries)
        if not bounds or sorted(bounds) != bounds:
            raise ValueError("histogram boundaries must be sorted, non-empty")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self._children = None
        self._parent = parent

    def _make_child(self) -> "Histogram":
        return Histogram(self.boundaries, parent=self)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        if self._parent is not None:
            self._parent.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate percentile (``q`` in [0, 100]) from buckets."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("quantile must be in [0, 100]; got %r" % q)
        if self.count == 0:
            return 0.0
        target = (q / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative < target:
                continue
            if index >= len(self.boundaries):
                return self.vmax if self.vmax is not None else 0.0
            upper = self.boundaries[index]
            lower = self.boundaries[index - 1] if index else (
                self.vmin if self.vmin is not None else 0.0
            )
            lower = min(lower, upper)
            frac = (target - previous) / bucket_count
            return lower + (upper - lower) * frac
        return self.vmax if self.vmax is not None else 0.0

    def snapshot(self) -> Dict:
        return self._series_snapshot({
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.vmin,
            "max": self.vmax,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "p99": self.quantile(99),
            "buckets": {
                "le:%g" % bound: self.counts[index]
                for index, bound in enumerate(self.boundaries)
                if self.counts[index]
            },
            "overflow": self.counts[-1],
        })


class MetricsRegistry:
    """Name-keyed store of counters, gauges and histograms.

    Metric *updates* are engine-side and effectively single-threaded;
    the lock here only guards metric *creation* and whole-registry
    iteration (``snapshot``/``names``), because a live server's admin
    handler threads snapshot the registry while the dispatcher may be
    registering new names mid-batch.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, factory):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                "metric %r is a %s, not a %s"
                % (name, type(metric).__name__, kind.__name__)
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(
        self, name: str, boundaries: Sequence[float] = LATENCY_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(boundaries))

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def metric(self, name: str):
        """The live metric object under ``name``, or None.

        The Prometheus exporter uses this to reach bucket boundaries
        and label children that a flat snapshot would flatten away.
        """
        return self._metrics.get(name)

    def snapshot(self) -> Dict[str, Dict]:
        """Flat, JSON-ready view of every registered metric."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in items}
