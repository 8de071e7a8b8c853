"""Picklable task specifications shipped to pool workers.

These classes are the *wire format* between the coordinator and the
worker processes (DESIGN.md section 11).  Everything here must survive
``pickle.dumps`` under the spawn start-method: plain data, expression
ASTs and schemas only — never compiled closures, operator trees wired
to a live context, or open handles.  Compiled predicates are rebuilt
worker-side from their ASTs; AIP summaries travel as their existing
``to_payload`` wire form when they have one (Bloom filters) and as
plain pickled value objects otherwise (hash sets, bounds, histograms
hold only sets/lists).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.summaries.bloom import BigIntBloomFilter, BloomFilter

#: Arrival-model constructor kwargs copied into a fragment task.  The
#: mutable cursor fields (``_emitted``/``_link_time``/counters) are
#: deliberately absent: the worker builds a *fresh* model and replays
#: the whole partition from the start, reproducing the serial float
#: accumulation exactly.
ARRIVAL_PARAMS = (
    "initial_delay", "per_tuple", "batch_size", "batch_delay",
    "bandwidth", "row_bytes", "source_read", "fanout",
)

_BLOOM_CLASSES = {
    "BloomFilter": BloomFilter,
    "BigIntBloomFilter": BigIntBloomFilter,
}


def summary_to_spec(summary) -> Tuple:
    """Encode one AIP summary for shipping: Bloom filters use their
    existing wire payload, everything else pickles as a value object."""
    to_payload = getattr(summary, "to_payload", None)
    if to_payload is not None and type(summary).__name__ in _BLOOM_CLASSES:
        return ("payload", type(summary).__name__, to_payload())
    return ("object", summary)


def summary_from_spec(spec: Tuple):
    """Decode :func:`summary_to_spec`'s encoding."""
    if spec[0] == "payload":
        _, class_name, payload = spec
        return _BLOOM_CLASSES[class_name].from_payload(payload)
    return spec[1]


class CatalogSpec:
    """How a worker (re)builds the coordinator's catalog.

    ``("tpch", ...)`` names a deterministic generator — workers call
    :func:`repro.data.tpch.cached_tpch` with the same parameters and
    the :class:`DeterministicRng` guarantees bit-identical rows in
    every process.  ``("object", catalog)`` ships the catalog itself
    (used by tests with small hand-built tables); it is pickled once
    into the worker init payload, not per task.  ``("warm",)`` names
    *whatever catalog the receiving worker warm-loaded at init* — the
    symbolic reference tasks use so an object catalog is shipped once,
    never per task; it resolves only inside a worker process.
    """

    __slots__ = ("kind", "scale_factor", "skew", "seed", "catalog")

    def __init__(self, kind, scale_factor=None, skew=None, seed=None,
                 catalog=None):
        self.kind = kind
        self.scale_factor = scale_factor
        self.skew = skew
        self.seed = seed
        self.catalog = catalog

    @classmethod
    def tpch(cls, scale_factor: float, skew: float = 0.0, seed: int = 7):
        return cls(
            "tpch", scale_factor=scale_factor, skew=skew, seed=seed,
        )

    @classmethod
    def from_object(cls, catalog) -> "CatalogSpec":
        return cls("object", catalog=catalog)

    @classmethod
    def warm(cls) -> "CatalogSpec":
        """The catalog the receiving worker warm-loaded at init."""
        return cls("warm")

    def resolve(self):
        """The catalog this spec denotes, built (or memo-hit) locally."""
        if self.kind == "tpch":
            from repro.data.tpch import cached_tpch
            return cached_tpch(
                scale_factor=self.scale_factor, skew=self.skew,
                seed=self.seed,
            )
        if self.kind == "warm":
            raise ValueError(
                "a warm CatalogSpec resolves only inside a pool worker"
            )
        return self.catalog

    def matches(self, catalog) -> bool:
        """True when ``catalog`` is the very object this spec resolves
        to in *this* process — the guard fragment prefetch uses before
        assuming the workers' warm tables equal the context's."""
        if self.kind == "warm":
            return False
        return self.resolve() is catalog

    def key(self) -> Tuple:
        if self.kind == "tpch":
            return ("tpch", self.scale_factor, self.skew, self.seed)
        if self.kind == "warm":
            return ("warm",)
        return ("object", id(self.catalog))

    def __getstate__(self):
        return (self.kind, self.scale_factor, self.skew, self.seed,
                self.catalog)

    def __setstate__(self, state) -> None:
        (self.kind, self.scale_factor, self.skew, self.seed,
         self.catalog) = state

    def __repr__(self) -> str:
        if self.kind == "tpch":
            return "CatalogSpec(tpch, sf=%s, skew=%s, seed=%s)" % (
                self.scale_factor, self.skew, self.seed,
            )
        return "CatalogSpec(%s)" % self.kind


class FragmentTask:
    """One partition of a fanned-out scan, evaluated in a worker.

    The worker rebuilds the partition's rows from the warm catalog
    (same deterministic split), walks the arrival model over them
    (identical float accumulation to the serial engine, so arrival
    times match to the bit), probes the shipped scan-level AIP
    summaries, applies the post-merge filter chain, and streams back
    the surviving ``(arrival_time, row)`` pairs as ordered pages.
    """

    __slots__ = (
        "catalog_spec", "table_name", "schema", "spec_fields",
        "partition_index", "arrival_params", "scan_filters", "chain",
        "page_rows",
    )

    def __init__(
        self,
        catalog_spec: CatalogSpec,
        table_name: str,
        schema,
        spec_fields: Tuple,
        partition_index: int,
        arrival_params: Dict,
        scan_filters: List[Tuple],
        chain: List[Tuple],
        page_rows: int = 4096,
    ):
        self.catalog_spec = catalog_spec
        self.table_name = table_name
        #: Scan *output* schema (post-rename): filter predicates and
        #: shipped summaries address attributes by these names.
        self.schema = schema
        #: ``(table, key, sites, scheme, bounds)`` — enough to rebuild
        #: the :class:`PartitionSpec` value-identically.
        self.spec_fields = spec_fields
        self.partition_index = partition_index
        self.arrival_params = arrival_params
        #: ``[(attr_name, summary_spec), ...]`` — AIP filters injected
        #: on the scan at prefetch time, in registration order.
        self.scan_filters = scan_filters
        #: ``[(node_id, predicate_ast), ...]`` — the stacked filters
        #: directly above the partition merge, bottom-up.
        self.chain = chain
        self.page_rows = page_rows

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def __repr__(self) -> str:
        return "FragmentTask(%s[%d], %d filters, chain=%d)" % (
            self.table_name, self.partition_index,
            len(self.scan_filters), len(self.chain),
        )


class QueryTask:
    """One whole admitted query, executed start-to-finish in a worker.

    Ships the *logical* plan (plain AST — site/partition stamps
    included) plus the strategy name and engine flags; the worker
    feeds them to :func:`repro.service.executor.execute_batch` — the
    function the inline backend calls — against its warm catalog and
    returns the resulting ``BatchRun``.
    """

    __slots__ = (
        "catalog_spec", "plan", "strategy_name", "options", "trace", "label",
    )

    def __init__(
        self,
        catalog_spec: CatalogSpec,
        plan,
        strategy_name: str,
        options: Optional[dict] = None,
        trace: bool = False,
        label: str = "",
    ):
        self.catalog_spec = catalog_spec
        self.plan = plan
        self.strategy_name = strategy_name
        #: ``execute_batch``'s engine keyword arguments (short_circuit,
        #: batch_execution, strategy_kwargs, network), forwarded
        #: untouched: an engine flag is not re-declared per hop.
        self.options = options or {}
        self.trace = trace
        self.label = label

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    def __repr__(self) -> str:
        return "QueryTask(%s, strategy=%s)" % (
            self.label or "<unlabelled>", self.strategy_name,
        )


class CrashTask:
    """Fault injection: the receiving worker acknowledges the task and
    then dies with ``os._exit(exit_code)``.  Exists so the crash-
    recovery path (dead-worker detection, task failure, respawn) is
    exercised by tests and drills rather than only by real faults."""

    __slots__ = ("exit_code",)

    def __init__(self, exit_code: int = 17):
        self.exit_code = exit_code

    def __getstate__(self):
        return (self.exit_code,)

    def __setstate__(self, state) -> None:
        (self.exit_code,) = state
