"""Zero-dependency metrics registry: counters, gauges, log-bucketed histograms.

The registry is the single sink for every number the repo wants to expose —
simulator event counts, serving hit rates, latency distributions — behind a
uniform naming/labelling scheme and two exporters (Prometheus text and
JSON).  Design constraints, in order:

1. **hot paths stay hot** — code on the simulator's per-access path never
   calls the registry per event.  Instead it keeps plain int counters (the
   existing idiom) and registers a *collector*, a callback the registry runs
   at snapshot time to mirror those ints into metrics.  Per-event calls
   (``Counter.inc``, ``Histogram.observe``) are reserved for paths that can
   afford a method call, such as the service's per-request accounting;
2. **no-op mode is near-free** — a registry built with ``enabled=False``
   hands out shared null metrics whose methods do nothing, registers no
   collectors, and snapshots to an empty dict, so instrumented code needs no
   ``if`` guards;
3. **snapshots are values** — :meth:`MetricsRegistry.snapshot` returns a
   plain JSON-safe dict; :func:`diff_snapshots` and :func:`merge_snapshots`
   operate on those dicts, so rate computation ("requests since the last
   ``repro top`` frame") and cross-process aggregation need no live registry.

Metric identity is ``(name, labels)``; all series of one name form a family
sharing a type and help string, exactly the Prometheus data model.
"""

from __future__ import annotations

import json
import math

#: metric family types understood by the exporters
METRIC_TYPES = ("counter", "gauge", "histogram")


def log_bounds(lo: float, hi: float, growth: float = 2.0) -> tuple:
    """Geometric histogram bucket bounds from ``lo`` up to at least ``hi``.

    ``log_bounds(1e-6, 1.0)`` gives power-of-two buckets spanning a microsecond
    to a second — 21 buckets instead of the thousands a linear grid would need
    for the same dynamic range.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if growth <= 1.0:
        raise ValueError(f"growth must exceed 1, got {growth}")
    bounds = []
    bound = lo
    while bound < hi * (1.0 - 1e-12):
        bounds.append(bound)
        bound *= growth
    bounds.append(bound)
    return tuple(bounds)


#: default request-latency buckets: 1 µs .. ~16 s, factor 2
LATENCY_BOUNDS_S = log_bounds(1e-6, 16.0)


class Counter:
    """Monotonically increasing count (requests served, events seen)."""

    __slots__ = ("name", "labels", "value")

    metric_type = "counter"

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount

    def set_total(self, value) -> None:
        """Overwrite the running total.

        For *collectors only*: a collector mirroring a plain int counter
        (e.g. ``ReuseCache.to_hits``) re-states the authoritative total each
        snapshot rather than tracking increments.
        """
        self.value = value

    def sample(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Point-in-time value (bytes stored, open connections, loop lag)."""

    __slots__ = ("name", "labels", "value", "fn")

    metric_type = "gauge"

    def __init__(self, name: str, labels: dict, fn=None):
        self.name = name
        self.labels = labels
        self.value = 0.0
        #: optional callable polled at sample time (callback gauge)
        self.fn = fn

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def sample(self) -> dict:
        value = self.fn() if self.fn is not None else self.value
        return {"value": value}


class Histogram:
    """Log-bucketed distribution (latencies, value sizes).

    Buckets are cumulative-at-export like Prometheus, but stored per-bucket;
    an implicit ``+Inf`` bucket catches overflows.  :meth:`quantile` gives a
    bucket-interpolated estimate good to one bucket's relative width (a
    factor-2 grid bounds the error at 2x, plenty for dashboards and for the
    STATS percentiles of :mod:`repro.service.stats`).
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    metric_type = "histogram"

    def __init__(self, name: str, labels: dict, bounds=LATENCY_BOUNDS_S):
        bounds = tuple(bounds)
        if not bounds or any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
            raise ValueError(f"bounds must be strictly increasing, got {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        # linear scan: bounds are few (~20) and observations cluster low,
        # so this beats bisect's call overhead for latency-shaped data
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                hi = self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                frac = (rank - previous) / bucket_count
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
        return self.bounds[-1]

    def sample(self) -> dict:
        cumulative = 0
        buckets = []
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", self.count])
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


class _NullMetric:
    """Shared do-nothing metric handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def set_total(self, value):
        pass

    def observe(self, value):
        pass

    def quantile(self, q):
        return 0.0


NULL_METRIC = _NullMetric()


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, labelled metrics with collectors and two exporters."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families = {}  # name -> (type, help)
        self._metrics = {}  # (name, label_key) -> metric
        self._collectors = []

    # -- creation / lookup ----------------------------------------------------

    def _get_or_create(self, cls, name, help_text, labels, **kwargs):
        if not self.enabled:
            return NULL_METRIC
        family = self._families.get(name)
        if family is None:
            self._families[name] = (cls.metric_type, help_text)
        elif family[0] != cls.metric_type:
            raise ValueError(
                f"metric {name!r} already registered as a {family[0]}, "
                f"cannot re-register as a {cls.metric_type}"
            )
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, {str(k): str(v) for k, v in labels.items()}, **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get_or_create(Gauge, name, help, labels)

    def gauge_callback(self, name: str, fn, help: str = "", **labels) -> Gauge:
        """A gauge whose value is read from ``fn()`` at sample time."""
        gauge = self._get_or_create(Gauge, name, help, labels)
        if gauge is not NULL_METRIC:
            gauge.fn = fn
        return gauge

    def histogram(
        self, name: str, help: str = "", bounds=LATENCY_BOUNDS_S, **labels
    ) -> Histogram:
        """Get or create the log-bucketed histogram ``name`` with ``labels``."""
        return self._get_or_create(Histogram, name, help, labels, bounds=bounds)

    # -- collectors ------------------------------------------------------------

    def register_collector(self, fn) -> None:
        """Add ``fn(registry)``, run before every snapshot/export.

        Collectors mirror externally-owned counters (simulator stats dicts,
        per-shard ``ShardStats``) into the registry without putting registry
        calls on the owners' hot paths.  Registering the same function twice
        is a no-op, so re-entrant wiring (e.g. server restart) stays safe.
        """
        if not self.enabled:
            return
        if fn not in self._collectors:
            self._collectors.append(fn)

    def collect(self) -> None:
        """Run every registered collector once."""
        for fn in self._collectors:
            fn(self)

    # -- snapshots --------------------------------------------------------------

    def snapshot(self, run_collectors: bool = True) -> dict:
        """JSON-safe view: ``{name: {type, help, series: [...]}}``."""
        if not self.enabled:
            return {}
        if run_collectors:
            self.collect()
        out = {}
        for (name, _), metric in sorted(self._metrics.items()):
            family_type, help_text = self._families[name]
            family = out.setdefault(
                name, {"type": family_type, "help": help_text, "series": []}
            )
            family["series"].append({"labels": metric.labels, **metric.sample()})
        return out

    # -- exporters ---------------------------------------------------------------

    def to_json(self, run_collectors: bool = True) -> str:
        """The snapshot as an indented JSON document."""
        return json.dumps(self.snapshot(run_collectors), indent=2)

    def to_prometheus(self, run_collectors: bool = True) -> str:
        """Prometheus text exposition format (``/metrics`` payload)."""
        return format_prometheus(self.snapshot(run_collectors))


class SLOTracker:
    """Error-budget burn rate for one service-level objective.

    ``objective`` is the target good/total ratio (e.g. ``0.999`` for
    "99.9% of reads are not stale").  Feed it cumulative ``(good, total)``
    counters with :meth:`observe`; the burn rate is the observed error
    rate divided by the budgeted error rate, so ``1.0`` means the budget
    is being consumed exactly on schedule, ``>1`` means faster (a burn
    rate of 10 exhausts a 30-day budget in 3 days), and ``0`` means no
    errors at all.  With a ``registry`` the *windowed* rate — computed
    from the delta between consecutive observations — is published as
    the gauge ``repro_slo_burn_rate{slo=<name>}``, which is what the
    ``repro top --cluster`` burn-gauge line and the ``slo_burn`` alert
    read.  A window with no new requests publishes ``0.0`` (healthy):
    quiet is not burning, and carrying a stale lifetime ratio forward
    would hold an alert firing forever after traffic stops.
    :meth:`observe` still *returns* the lifetime rate, which is the
    end-of-run summary number.
    """

    __slots__ = ("name", "objective", "good", "total", "_gauge",
                 "_prev_good", "_prev_total", "window_burn")

    def __init__(self, name: str, objective: float, registry=None, **labels):
        if not 0.0 < objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {objective} for {name!r}"
            )
        self.name = name
        self.objective = objective
        self.good = 0
        self.total = 0
        self._prev_good = 0
        self._prev_total = 0
        #: burn rate of the most recent observation window (0.0 when the
        #: window saw no traffic)
        self.window_burn = 0.0
        self._gauge = None
        if registry is not None:
            self._gauge = registry.gauge(
                "repro_slo_burn_rate",
                help="error-budget burn rate (1.0 = on budget)",
                slo=name, **labels,
            )

    def observe(self, good, total) -> float:
        """Record cumulative counters; returns the current burn rate.

        ``good``/``total`` are lifetime totals (the natural shape of
        CSTATUS/STATS counters), not deltas — each call replaces the
        previous observation.
        """
        if total < good:
            raise ValueError(f"good ({good}) cannot exceed total ({total})")
        self._prev_good, self._prev_total = self.good, self.total
        self.good = good
        self.total = total
        window_total = max(0, total - self._prev_total)
        window_good = max(0, good - self._prev_good)
        if window_total == 0:
            self.window_burn = 0.0  # zero-request window: healthy
        else:
            window_bad = window_total - min(window_good, window_total)
            self.window_burn = (
                (window_bad / window_total) / (1.0 - self.objective)
            )
        if self._gauge is not None:
            self._gauge.set(self.window_burn)
        return self.burn_rate

    @property
    def error_rate(self) -> float:
        """Observed bad/total ratio (0.0 before any traffic)."""
        if self.total == 0:
            return 0.0
        return (self.total - self.good) / self.total

    @property
    def burn_rate(self) -> float:
        """``error_rate / (1 - objective)`` — how fast the budget burns."""
        return self.error_rate / (1.0 - self.objective)


# -- snapshot algebra ---------------------------------------------------------


def _series_map(family: dict) -> dict:
    return {_label_key(s["labels"]): s for s in family["series"]}


def _sub_series(new: dict, old: dict | None) -> dict:
    out = {"labels": new["labels"]}
    if "buckets" in new:
        old_buckets = {}
        if old is not None:
            old_buckets = {str(le): c for le, c in old["buckets"]}
        out["count"] = new["count"] - (old["count"] if old else 0)
        out["sum"] = new["sum"] - (old["sum"] if old else 0.0)
        out["buckets"] = [
            [le, c - old_buckets.get(str(le), 0)] for le, c in new["buckets"]
        ]
    else:
        out["value"] = new["value"] - (old["value"] if old else 0)
    return out


def diff_snapshots(new: dict, old: dict) -> dict:
    """Counter/histogram deltas ``new - old``; gauges keep their new value.

    The basis of rate displays: diff two STATS/METRICS polls and divide by
    the interval.  Series present only in ``new`` diff against zero.
    """
    out = {}
    for name, family in new.items():
        old_series = _series_map(old[name]) if name in old else {}
        if family["type"] == "gauge":
            out[name] = {**family, "series": [dict(s) for s in family["series"]]}
            continue
        out[name] = {
            **family,
            "series": [
                _sub_series(s, old_series.get(_label_key(s["labels"])))
                for s in family["series"]
            ],
        }
    return out


def merge_registry_snapshots(snapshots) -> dict:
    """Sum counters/histograms (and gauges) across snapshots, matching series
    by ``(name, labels)`` — aggregation across shards or processes."""
    out = {}
    for snap in snapshots:
        for name, family in snap.items():
            target = out.setdefault(
                name, {"type": family["type"], "help": family["help"], "series": []}
            )
            merged = _series_map(target)
            for series in family["series"]:
                key = _label_key(series["labels"])
                if key not in merged:
                    target["series"].append(json.loads(json.dumps(series)))
                    continue
                acc = merged[key]
                if "buckets" in series:
                    acc["count"] += series["count"]
                    acc["sum"] += series["sum"]
                    old = {str(le): c for le, c in acc["buckets"]}
                    acc["buckets"] = [
                        [le, old.get(str(le), 0) + c] for le, c in series["buckets"]
                    ]
                else:
                    acc["value"] += series["value"]
    return out


# -- Prometheus text format ----------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _label_str(labels: dict, extra: dict | None = None) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(items.items())
    )
    return "{" + inner + "}"


def _fmt_value(value) -> str:
    if isinstance(value, float) and (math.isinf(value) or math.isnan(value)):
        return str(value)
    return repr(value) if isinstance(value, float) else str(value)


def format_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot in Prometheus text exposition format."""
    lines = []
    for name, family in snapshot.items():
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for series in family["series"]:
            labels = series["labels"]
            if "buckets" in series:
                for le, count in series["buckets"]:
                    lines.append(
                        f"{name}_bucket{_label_str(labels, {'le': le})} {count}"
                    )
                lines.append(f"{name}_sum{_label_str(labels)} {_fmt_value(series['sum'])}")
                lines.append(f"{name}_count{_label_str(labels)} {series['count']}")
            else:
                lines.append(
                    f"{name}{_label_str(labels)} {_fmt_value(series['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
