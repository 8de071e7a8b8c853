"""Picklable task specifications shipped to pool workers.

These classes are the *wire format* between the coordinator and the
worker processes (DESIGN.md section 11).  Everything here must survive
``pickle.dumps`` under the spawn start-method: plain data, logical
plans (expression ASTs and schemas) only — never physical operators,
compiled closures, or open handles.  A worker translates the logical
plan itself, so nothing compiled ever crosses the boundary.
"""

from __future__ import annotations

from typing import Optional, Tuple


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
        #: strategy_kwargs, network), forwarded
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
