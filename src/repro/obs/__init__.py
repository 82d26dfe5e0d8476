"""repro.obs — observability shared by the simulator and the serving stack.

The paper's claims are claims about *event counts* — reuses detected,
tag-only allocations, ``DataRepl`` demotions, memory refetches — and the
ROADMAP's performance goals need per-path measurements to aim at.  This
package is the one place both live:

* :mod:`repro.obs.registry` — named counters/gauges/log-bucketed histograms
  with labels, snapshot/diff/merge, Prometheus-text and JSON exporters;
* :mod:`repro.obs.tracing` — typed event tracing through a sampling ring
  buffer, exported as JSONL or Chrome ``trace_event`` JSON (opens directly
  in ``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.logging` — the repo-wide ``configure()`` /
  ``get_logger()`` helpers (``REPRO_LOG_LEVEL`` env var);
* :mod:`repro.obs.dist` — distributed causal tracing: the wire trace
  field, per-node span ids, cross-node trace merging, topology
  normalization and the per-key ``repro explain`` audit;
* :mod:`repro.obs.top` — renders the live ``repro top`` dashboard (and
  its ``--cluster`` variant) from STATS/CSTATUS snapshots (the CLI loops
  live in :mod:`repro.obs.cli`);
* :mod:`repro.obs.timeseries` — delta-encoded, tier-downsampled history
  of registry samples, queryable as ``(metric, labels) → [(t, value)]``;
* :mod:`repro.obs.alerts` — declarative alert rules (threshold / delta /
  rate / ratio over trailing windows, for-duration + hysteresis) driven
  through a ``pending → firing → resolved`` lifecycle;
* :mod:`repro.obs.http` — the dependency-free ``--obs-port`` HTTP
  endpoint (``/metrics`` ``/healthz`` ``/readyz`` ``/varz`` ``/history``
  ``/alertz``);
* :mod:`repro.obs.flight` — the crash flight recorder: atomic forensic
  bundles of time-series tail + trace ring + stats, rendered by
  ``repro obs flight``.

:class:`Observability` bundles one registry and one tracer so constructors
thread a single handle.  The disabled bundle is a true no-op: null metrics,
a disabled tracer, and hot paths that only pay an attribute load plus a
branch (asserted by ``tests/test_obs_overhead.py``).

Instrumented layers: :mod:`repro.core.reuse_cache`,
:mod:`repro.cache.conventional`, :mod:`repro.cache.ncid`,
:mod:`repro.coherence.protocol`, :mod:`repro.hierarchy.system` and the whole
request path of :mod:`repro.service`.  See ``docs/observability.md``.
"""

from __future__ import annotations

from .alerts import AlertEngine, AlertRule, AlertState, builtin_rules
from .dist import (
    ADMISSION_DENIED,
    ADMITTED,
    DELETED,
    REPLICA_INVALIDATED,
    UPDATED,
    SpanIds,
    TraceContext,
    current_context,
    explain_key,
    format_explain,
    merge_node_traces,
    trace_topology,
    use_context,
)
from .flight import FlightRecorder, load_flight, render_flight
from .http import ObsHTTPServer
from .prof import (
    NULL_PHASE_TIMER,
    PhaseTimer,
    phase_shape,
)
from .registry import (
    LATENCY_BOUNDS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SLOTracker,
    diff_snapshots,
    format_prometheus,
    log_bounds,
    merge_registry_snapshots,
)
from .timeseries import (
    DEFAULT_TIERS,
    TelemetrySampler,
    Tier,
    TimeSeriesStore,
)
from .tracing import (
    COHERENCE_TRANSITION,
    DATA_REPL,
    EVICTION,
    FILL,
    NULL_TRACER,
    REUSE_DETECTED,
    TAG_ONLY_ALLOC,
    TAG_REPL,
    TraceEvent,
    Tracer,
    validate_chrome_trace,
)

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "TraceEvent",
    "NULL_TRACER",
    "PhaseTimer",
    "NULL_PHASE_TIMER",
    "phase_shape",
    "diff_snapshots",
    "merge_registry_snapshots",
    "format_prometheus",
    "log_bounds",
    "validate_chrome_trace",
    "LATENCY_BOUNDS_S",
    "REUSE_DETECTED",
    "TAG_ONLY_ALLOC",
    "DATA_REPL",
    "TAG_REPL",
    "FILL",
    "EVICTION",
    "COHERENCE_TRANSITION",
    "SLOTracker",
    "TraceContext",
    "SpanIds",
    "current_context",
    "use_context",
    "merge_node_traces",
    "trace_topology",
    "explain_key",
    "format_explain",
    "ADMISSION_DENIED",
    "ADMITTED",
    "UPDATED",
    "DELETED",
    "REPLICA_INVALIDATED",
    "TimeSeriesStore",
    "TelemetrySampler",
    "Tier",
    "DEFAULT_TIERS",
    "AlertRule",
    "AlertEngine",
    "AlertState",
    "builtin_rules",
    "ObsHTTPServer",
    "FlightRecorder",
    "load_flight",
    "render_flight",
]


class Observability:
    """One registry + one tracer + one phase timer, threaded as a unit."""

    def __init__(self, registry: MetricsRegistry, tracer, prof=None):
        self.registry = registry
        self.tracer = tracer
        #: phase timer (``with obs.prof.phase("simulate")``); defaults to
        #: the shared no-op so existing two-argument callers stay valid
        self.prof = prof if prof is not None else NULL_PHASE_TIMER

    @classmethod
    def disabled(cls) -> "Observability":
        """The no-op bundle: null metrics, disabled tracer, null phases."""
        return cls(MetricsRegistry(enabled=False), NULL_TRACER,
                   NULL_PHASE_TIMER)

    @classmethod
    def enabled(
        cls,
        tracing: bool = False,
        trace_capacity: int = 65536,
        sample_every: int = 1,
        time_unit: str = "cycles",
        profile: bool = False,
    ) -> "Observability":
        """Metrics on; tracing and phase profiling optional.

        With ``profile=True`` the bundle carries a live
        :class:`~repro.obs.prof.PhaseTimer` feeding the registry's
        ``repro_phase_seconds`` histograms.
        """
        registry = MetricsRegistry(enabled=True)
        tracer = (
            Tracer(
                capacity=trace_capacity,
                sample_every=sample_every,
                time_unit=time_unit,
            )
            if tracing
            else NULL_TRACER
        )
        prof = (
            PhaseTimer(enabled=True, registry=registry)
            if profile
            else NULL_PHASE_TIMER
        )
        return cls(registry, tracer, prof)

    @property
    def active(self) -> bool:
        """True when the registry, tracer or phase timer does real work."""
        return self.registry.enabled or self.tracer.enabled or self.prof.enabled
