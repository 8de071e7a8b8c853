"""Service configuration: one typed object instead of ~15 loose kwargs.

:class:`QueryService` grew one keyword argument per PR until callers
had to thread fifteen loose knobs through every layer.  The
:class:`ServiceConfig` dataclass is now the single source of service
configuration: the CLI builds one, the socket front door embeds one,
and tests can construct/`replace()` them without re-listing defaults.
``QueryService(catalog, **old_kwargs)`` still works — the constructor
folds loose kwargs into a config via a compatibility shim — so every
pre-config call site keeps running unchanged.

Per-tenant **quotas** live here too.  Unlike the fair interleaving the
parallel service already does (which only reorders admission), a
:class:`TenantQuota` is a *hard cap*: a tenant at its concurrent-query
cap, or whose aggregate estimated state would exceed its byte cap, has
the overflow query **shed** — while other tenants' queries in the same
dispatch round proceed.  The socket front door translates those sheds
into ``shed`` frames carrying retry hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Union

#: Sentinel tenant key applying a quota to queries submitted with no
#: tenant tag (the anonymous tenant).
ANONYMOUS = None


@dataclass(frozen=True)
class TenantQuota:
    """Hard per-tenant caps, enforced at admission.

    ``max_concurrent`` bounds how many of the tenant's queries may run
    concurrently (be packed into one dispatch round); ``None`` leaves
    the axis uncapped.  ``max_state_bytes`` bounds the tenant's
    aggregate *estimated* intermediate state in flight — the same
    estimate the admission controller budgets globally.  Queries over
    either cap are shed (status ``shed``, reason ``quota:*``), never
    queued: a hard quota that silently queued would be fair
    interleaving with extra steps.
    """

    max_concurrent: Optional[int] = None
    max_state_bytes: Optional[float] = None

    def __post_init__(self):
        if self.max_concurrent is not None and self.max_concurrent < 0:
            raise ValueError("max_concurrent must be >= 0")
        if self.max_state_bytes is not None and self.max_state_bytes < 0:
            raise ValueError("max_state_bytes must be >= 0")


@dataclass
class ServiceConfig:
    """Everything a :class:`~repro.service.QueryService` can be told.

    Field meanings are documented on the service attributes they feed;
    defaults here are *the* defaults (the service holds none of its
    own).  ``scheduler`` accepts a name or a Scheduler instance;
    ``quotas`` maps tenant name (or ``None`` for the anonymous tenant)
    to :class:`TenantQuota`.
    """

    strategy: str = "feedforward"
    scheduler: Union[str, Any] = "fifo"
    #: Admission controller's intermediate-state *estimate* budget.
    memory_budget_bytes: Optional[float] = None
    max_concurrent: int = 4
    aip_cache: bool = True
    result_cache: bool = True
    strategy_kwargs: Optional[dict] = None
    short_circuit: bool = True
    batch_execution: bool = True
    placement: Any = None
    network: Any = None
    #: Enforced engine budget (memory governor; spills under pressure).
    memory_budget: Optional[int] = None
    tracer: Any = None
    parallel: Optional[int] = None
    pool: Any = None
    catalog_spec: Any = None
    slo_seconds: Optional[float] = None
    #: Hard per-tenant caps (see :class:`TenantQuota`).
    quotas: Dict[Optional[str], TenantQuota] = field(default_factory=dict)
    #: How many completed query profiles the service retains for the
    #: ``profile`` admin frame and the slow-query log.
    profile_retention: int = 128
    #: Latency threshold (milliseconds, service virtual clock) above
    #: which a completed query gets a ``slow_query`` event-log entry
    #: embedding its profile; None disables the slow-query log.
    slow_query_ms: Optional[float] = None
    #: Structured JSONL event log: a path, an
    #: :class:`~repro.obs.eventlog.EventLog`, or None (disabled).
    event_log: Any = None
    #: Size-rotation threshold for a path-configured event log.
    event_log_max_bytes: int = 4 * 1024 * 1024

    def validate(self) -> "ServiceConfig":
        """Fail fast on contradictory settings; returns self."""
        if (
            (self.parallel or self.pool is not None)
            and self.memory_budget is not None
        ):
            raise ValueError(
                "parallel service execution cannot share one enforced "
                "memory governor across worker processes; drop "
                "memory_budget or parallel"
            )
        if self.parallel is not None and self.parallel < 1:
            raise ValueError(
                "parallel must be >= 1; got %r" % (self.parallel,)
            )
        for tenant, quota in (self.quotas or {}).items():
            if not isinstance(quota, TenantQuota):
                raise ValueError(
                    "quota for tenant %r must be a TenantQuota; got %r"
                    % (tenant, quota)
                )
        if self.profile_retention < 1:
            raise ValueError(
                "profile_retention must be >= 1; got %r"
                % (self.profile_retention,)
            )
        if self.slow_query_ms is not None and self.slow_query_ms < 0:
            raise ValueError(
                "slow_query_ms must be >= 0; got %r" % (self.slow_query_ms,)
            )
        return self

    def evolve(self, **overrides) -> "ServiceConfig":
        """A copy with ``overrides`` applied (kwargs-shim helper)."""
        return replace(self, **overrides)


#: The exact kwarg names the pre-config QueryService accepted; the shim
#: routes them (and only them) into ServiceConfig fields.
CONFIG_FIELDS = tuple(f.name for f in fields(ServiceConfig))


def coerce_config(config, kwargs: Dict[str, Any]) -> ServiceConfig:
    """The compatibility shim behind ``QueryService.__init__``.

    Accepts any of the historical calling conventions:

    * ``QueryService(catalog)`` — all defaults;
    * ``QueryService(catalog, "costbased")`` — positional strategy;
    * ``QueryService(catalog, strategy=..., max_concurrent=...)`` —
      loose kwargs, the pre-config surface;
    * ``QueryService(catalog, ServiceConfig(...))`` — the config
      object, optionally with kwarg overrides on top.
    """
    if isinstance(config, str):
        # Old positional-strategy convention.
        if "strategy" in kwargs:
            raise TypeError("strategy given positionally and by keyword")
        kwargs = dict(kwargs, strategy=config)
        config = None
    unknown = set(kwargs) - set(CONFIG_FIELDS)
    if unknown:
        raise TypeError(
            "unknown QueryService option(s): %s"
            % ", ".join(sorted(unknown))
        )
    if config is None:
        config = ServiceConfig(**kwargs)
    elif isinstance(config, ServiceConfig):
        if kwargs:
            config = config.evolve(**kwargs)
    else:
        raise TypeError(
            "config must be a ServiceConfig (or legacy strategy string); "
            "got %r" % (config,)
        )
    return config.validate()
