"""Continuous telemetry for a serving node: sampling, HTTP, alerts, flight.

:class:`ServiceTelemetry` is the composition root the CLIs use: given a
running :class:`~repro.service.server.CacheServer` it assembles

* a :class:`~repro.obs.timeseries.TimeSeriesStore` sampling the server's
  metrics registry every ``interval`` seconds,
* an :class:`~repro.obs.alerts.AlertEngine` evaluated after each sample
  (so alert decisions see exactly the history that exists — no racing),
* an :class:`~repro.obs.http.ObsHTTPServer` on ``--obs-port`` whose
  ``/healthz``/``/readyz`` are bound to live server state (DRAIN flips
  them with no polling), and
* a :class:`~repro.obs.flight.FlightRecorder` triggered by ``SIGUSR2``
  or explicitly on fatal errors (:meth:`dump_flight`).

Alert transitions are logged as they happen (warning on firing, info
otherwise), so a headless node leaves an incident trail even when nobody
scrapes ``/alertz``.

Everything here is optional plumbing around the server: a node started
without ``--obs-port`` never constructs one of these, and a constructed
one changes no serving behaviour — it only reads.
"""

from __future__ import annotations

import asyncio
import signal

from ..obs.alerts import AlertEngine, builtin_rules
from ..obs.flight import FlightRecorder
from ..obs.http import ObsHTTPServer
from ..obs.logging import get_logger
from ..obs.timeseries import TelemetrySampler, TimeSeriesStore

log = get_logger(__name__)

__all__ = ["ServiceTelemetry"]


class ServiceTelemetry:
    """Telemetry plane for one server: sampler + HTTP + alerts + flight.

    ``health`` overrides the default health callable (the cluster node
    passes one that consults ring membership); ``rules`` overrides the
    built-in alert pack.  ``http_host`` defaults to the server's bind
    host so the scrape endpoint is reachable wherever the service is.
    """

    def __init__(self, server, port=0, host=None, interval=1.0,
                 flight_dir=".", rules=None, health=None, window_s=30.0,
                 signal_handler=True):
        self.server = server
        #: install a SIGUSR2 handler on start() (a multi-node process
        #: sets False and installs one aggregate handler itself, since
        #: add_signal_handler replaces rather than chains)
        self.signal_handler = signal_handler
        registry = server.obs.registry
        self.timeseries = TimeSeriesStore(registry=registry)
        self.alerts = AlertEngine(
            self.timeseries,
            builtin_rules(window_s=window_s) if rules is None else rules,
        )
        self.alerts.on_transition(self._log_transition)
        self.sampler = TelemetrySampler(self.timeseries, interval=interval)
        self.sampler.on_sample(self.alerts.evaluate)
        self.recorder = FlightRecorder(
            out_dir=flight_dir,
            timeseries=self.timeseries,
            tracer=server.obs.tracer,
            alerts=self.alerts,
            stats_fn=server.stats_snapshot,
        )
        self.http = ObsHTTPServer(
            registry=registry,
            timeseries=self.timeseries,
            alerts=self.alerts,
            health=health if health is not None else self._health,
            varz=server.server_info,
            host=host if host is not None else server.host,
            port=port,
        )
        self._signal_installed = False

    # -- server-state bindings -------------------------------------------------

    def _health(self) -> dict:
        serving = self.server._server is not None
        draining = self.server.draining
        return {
            "healthy": serving and not draining,
            "ready": serving and not draining,
            "draining": draining,
            "uptime_s": self.server.uptime_s,
        }

    def _log_transition(self, event) -> None:
        message = "alert %s: %s -> %s (value=%s)"
        fields = (event["alert"], event["from"], event["to"], event["value"])
        if event["to"] == "firing":
            log.warning(message, *fields)
        else:
            log.info(message, *fields)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        await self.http.start()
        self.sampler.start()
        self._install_signal()
        log.info("telemetry on http://%s:%d (/metrics /healthz /readyz "
                 "/varz /history /alertz)", self.http.host, self.http.port)

    async def stop(self) -> None:
        self._remove_signal()
        self.sampler.stop()
        await self.http.stop()

    def _install_signal(self) -> None:
        if not self.signal_handler:
            return
        try:
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(
                signal.SIGUSR2, self._on_sigusr2
            )
            self._signal_installed = True
        except (NotImplementedError, RuntimeError, AttributeError, ValueError):
            # no SIGUSR2 on this platform / not the main thread — the
            # recorder still works via dump_flight()
            self._signal_installed = False

    def _remove_signal(self) -> None:
        if not self._signal_installed:
            return
        try:
            asyncio.get_running_loop().remove_signal_handler(signal.SIGUSR2)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
        self._signal_installed = False

    def _on_sigusr2(self) -> None:
        path = self.dump_flight("sigusr2")
        log.warning("SIGUSR2: flight bundle written to %s", path)

    def dump_flight(self, reason: str) -> str:
        """Write a flight bundle now; returns its path."""
        return self.recorder.dump(reason=reason)
