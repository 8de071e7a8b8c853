"""Service configuration: one typed object instead of ~15 loose kwargs.

The :class:`ServiceConfig` dataclass is the single source of service
configuration: the CLI builds one, the socket front door embeds one,
and tests can construct/`replace()` them without re-listing defaults.
``QueryService(catalog, config)`` takes one; ``QueryService(catalog,
**fields)`` is sugar for ``QueryService(catalog,
ServiceConfig(**fields))``.

Per-tenant **quotas** live here too.  Unlike the fair interleaving
dispatch always does (which only reorders admission), a
:class:`TenantQuota` is a *hard cap*: a tenant at its concurrent-query
cap, or whose aggregate estimated state would exceed its byte cap, has
the overflow query **shed** — while other tenants' queries in the same
dispatch round proceed.  The socket front door translates those sheds
into ``shed`` frames carrying retry hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union


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
    to :class:`TenantQuota`.  A field is something a caller sets; what
    none does is a constant of the part it sizes (profile retention,
    result-cache capacity, the admission EWMA weight), and every plan
    runs with the strategy's own settings.
    """

    strategy: str = "feedforward"
    scheduler: Union[str, Any] = "fifo"
    #: Admission controller's intermediate-state *estimate* budget.
    memory_budget_bytes: Optional[float] = None
    max_concurrent: int = 4
    #: Accepted and ignored: AIP sets live and die with their query.
    aip_cache: bool = True
    result_cache: bool = True
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
    #: Latency threshold (milliseconds, service virtual clock) above
    #: which a completed query gets a ``slow_query`` event-log entry
    #: embedding its profile; None disables the slow-query log.
    slow_query_ms: Optional[float] = None
    #: Structured JSONL event log: a path, an
    #: :class:`~repro.obs.eventlog.EventLog`, or None (disabled).
    event_log: Any = None

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
        for name in ("memory_budget_bytes", "slo_seconds", "slow_query_ms"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError("%s must be >= 0; got %r" % (name, value))
        return self


def coerce_config(config, kwargs: Dict[str, Any]) -> ServiceConfig:
    """The validated config behind ``QueryService(catalog, config)`` or
    ``QueryService(catalog, **fields)`` — one or the other.  A
    misspelt field is the dataclass constructor's ``TypeError``."""
    if config is None:
        config = ServiceConfig(**kwargs)
    elif not isinstance(config, ServiceConfig):
        raise TypeError(
            "config must be a ServiceConfig; got %r" % (config,)
        )
    elif kwargs:
        raise TypeError(
            "pass a ServiceConfig or keyword fields, not both; got "
            "config and %s" % ", ".join(sorted(kwargs))
        )
    return config.validate()
