"""Service and cluster workloads: closed-loop callers against a server process.

Load model.  The simulator's 8 blocking in-order cores (paper Table 4)
become 8 read-through callers: each GETs its core's next line address and,
on a miss, SETs the value a backing store would return (``svc-batch``:
MGET and MSET 64 addresses at a time).  A caller waits for each reply
before its next call, so the loop is closed with 8 callers.
All callers share one asyncio loop in one thread of the bench process and,
for ``svc-*``, one v2 connection; the cluster client keeps one connection
per node.  The servers run in a separate process started through the
shipped CLI, which is what splits CPU into client and server cost.  With
two CPUs the bench process keeps one and the server process the other.

The timed phase starts once the server has answered PING; stores start
empty.  Every call is timed at the client API, SETs included.  Every
SAMPLE_S of load, every caller waits, with no call in flight, while the
bench samples the host's slowness on both CPUs (``hostspeed``); every
WINDOW_S it also reads the server's CPU time.  The pauses are not part of
any timing.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import statistics
import subprocess
import sys
from time import perf_counter as clock
from time import process_time as cpu_clock

from harness import (BENCH_DIR, OUT_DIR, ROOT, SRC, LatencyLog, Outcome,
                     Window, adjusted, facts, latency_ms, ratio)
from hostspeed import HostSpeed
from spans import SpanRecorder

from repro.cluster.client import ClusterClient, ClusterError
from repro.cluster.consistency import decode_counter, encode_value
from repro.cluster.node import PeerClient
from repro.service.client import CacheClient
from repro.service.loadgen import key_of, value_of
from repro.service.server import ProtocolError
from repro.service.transport import ServerError, Transport
from repro.workloads.mixes import EXAMPLE_MIX, build_workload

SCALE = 32
SETUP_REPS = 5
BATCH = 64
#: seconds of load in one window, and between two slowness samples
WINDOW_S = 1.0
SAMPLE_S = 0.1
#: the cluster CLI's default ring seed; clients must route with the same
RING_SEED = 2013
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

SERVE = ["serve", "--port", "0", "--shards", "4", "--data-capacity", "512"]
CLUSTER_SERVE = ["cluster", "serve", "--nodes", "2", "--replicas", "2",
                 "--data-capacity", "256", "--shards", "2"]

#: an operation that raises one of these failed; the caller stops
FAILURES = (ConnectionError, OSError, asyncio.TimeoutError, ServerError,
            ClusterError, ProtocolError)

#: span names the traced pass records, per layer
CLIENT = ("CacheClient.get", "CacheClient.set", "CacheClient.mget",
          "CacheClient.mset")
CLUSTER_CLIENT = ("ClusterClient.get", "ClusterClient.set")
SHARDING = ("ShardedStore.get", "ShardedStore.set", "ShardedStore.delete")
STORE = ("ReuseStore.get", "ReuseStore.set", "ReuseStore.delete")
DECODE = ("decode_request_fields", "decode_trace")
ENCODE = ("FrameEncoder.simple", "FrameEncoder.finish")


class Tally:
    """Operation counts and output checks of one timed phase."""

    def __init__(self, prefix: int):
        self.attempted = 0
        #: operations whose reply has arrived (a batch item is one)
        self.done = 0
        self.failed = 0
        self.gets = 0
        self.hits = 0
        self.stale = 0
        #: the hit rate is taken over the first ``prefix`` GETs, so it does
        #: not depend on how many GETs the phase let through
        self.prefix = prefix
        self.prefix_hits = None
        self.errors = []

    def got(self, gets: int, hits: int) -> None:
        self.done += gets
        self.gets += gets
        self.hits += hits
        # GETs arrive one or BATCH at a time and the prefix is a multiple
        # of BATCH, so the count passes through ``prefix`` exactly
        if self.gets == self.prefix:
            self.prefix_hits = self.hits

    @property
    def hit_rate(self) -> float:
        if self.prefix_hits is None:  # every caller failed before the prefix
            return ratio(self.hits, self.gets)
        return self.prefix_hits / self.prefix


class PhaseOver(Exception):
    """Raised at the gate once the phase is over: the caller stops."""


class Gate:
    """Holds every caller before its next request, with none in flight.

    A closed gate holds the callers in the order their last replies
    arrived, and reopening it releases them in that order, which is the
    order they would have sent in.  Over one connection a pause therefore
    changes when requests are sent, not their order: the store sees the
    same operations in the same order, and the hit rate repeats exactly.
    """

    def __init__(self):
        self.inflight = 0
        self.stopped = False
        self._open = asyncio.Event()
        self._open.set()
        self._idle = asyncio.Event()

    async def __aenter__(self) -> None:
        if not self._open.is_set():
            await self._open.wait()
        if self.stopped:
            raise PhaseOver
        self.inflight += 1

    async def __aexit__(self, *exc) -> None:
        self.inflight -= 1
        if not self.inflight:
            self._idle.set()

    async def close(self) -> None:
        """Hold new requests and wait for those in flight."""
        self._open.clear()
        if self.inflight:
            self._idle.clear()
            await self._idle.wait()

    def reopen(self, stop: bool = False) -> None:
        self.stopped = stop
        self._open.set()


class _Load:
    """What the callers of one phase share: the gate, counts, latencies."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.gate = Gate()
        self.log = LatencyLog()

    async def call(self, ops: int, fn, *args, log: bool = True):
        """Send one request of ``ops`` operations through the gate.

        Returns ``(reply, seconds)``; ``log`` adds the seconds to the
        latencies.
        """
        async with self.gate:
            self.tally.attempted += ops
            t0 = clock()
            reply = await fn(*args)
            t1 = clock()
        if log:
            self.log.add(t1, t1 - t0)
        return reply, t1 - t0


async def _guarded(caller, tally: Tally) -> None:
    try:
        await caller
    except PhaseOver:
        pass
    except FAILURES as exc:
        tally.failed += 1
        tally.errors.append(f"{type(exc).__name__}: {exc}")


# -- callers ------------------------------------------------------------------


async def _read_through(client, trace, load: _Load) -> None:
    """One caller: GET each address in turn, SET its value on a miss."""
    tally = load.tally
    addrs = trace.addrs
    n = len(addrs)
    i = 0
    while True:
        addr = addrs[i % n]
        i += 1
        key = key_of(addr)
        value, _ = await load.call(1, client.get, key)
        if value is not None:
            tally.got(1, 1)
            if value != value_of(addr):
                tally.failed += 1
            continue
        tally.got(1, 0)
        await load.call(1, client.set, key, value_of(addr))
        tally.done += 1


async def _read_through_batched(client, trace, load: _Load) -> None:
    """One caller: MGET ``BATCH`` addresses, MSET the misses' values.

    The workload runs one such caller per core, as the others do: with a
    single caller, client and server only take turns, and every batch pays
    two cross-CPU wakeups, whose cost swings with the host's load.

    One latency sample is a chunk's MGET and MSET times together: timing
    the two calls apart would mix two modes of nearly equal counts, and
    the median of such a mix jumps between them from run to run.
    """
    tally = load.tally
    addrs = trace.addrs
    n = len(addrs)
    pos = 0
    while True:
        chunk = [addrs[(pos + j) % n] for j in range(BATCH)]
        pos += BATCH
        keys = [key_of(addr) for addr in chunk]
        values, took = await load.call(BATCH, client.mget, keys, log=False)
        misses = []
        for addr, key, value in zip(chunk, keys, values):
            if value is None:
                misses.append((key, value_of(addr)))
            elif value != value_of(addr):
                tally.failed += 1
        tally.got(BATCH, BATCH - len(misses))
        if misses:
            _, more = await load.call(len(misses), client.mset, misses,
                                      log=False)
            took += more
            tally.done += len(misses)
        load.log.add(clock(), took)


async def _versioned(client, trace, load: _Load) -> None:
    """One cluster caller: write refs SET, read refs GET (SET on a miss).

    Values carry a per-key counter.  This caller is the only writer of its
    keys (each core's address space is disjoint), so a read returning a
    counter below the last acknowledged one, noted before the read, is
    stale — the rule of ``repro.cluster.consistency``.
    """
    tally = load.tally
    addrs, writes = trace.addrs, trace.writes
    n = len(addrs)
    counters = {}
    acked = {}
    i = 0
    while True:
        addr, is_write = addrs[i % n], writes[i % n]
        i += 1
        key = key_of(addr)
        if not is_write:
            floor = acked.get(key, 0)
            value, _ = await load.call(1, client.get, key)
            if value is not None:
                tally.got(1, 1)
                try:
                    seen = decode_counter(key, value)
                except ValueError:
                    tally.failed += 1
                    continue
                if seen < floor:
                    tally.failed += 1
                    tally.stale += 1
                continue
            tally.got(1, 0)
        counter = counters.get(key, 0) + 1
        counters[key] = counter
        await load.call(1, client.set, key, encode_value(key, counter))
        tally.done += 1
        acked[key] = counter


#: workload -> (references per core, server CLI, caller, GETs per second of
#: the phase over which the hit rate is taken).  One caller runs per core.
#: A caller that reaches the end of its trace starts it again; only
#: ``svc-batch`` does so within 15 s (about twice).  The GET rates are
#: about half of what the host this was written on sustained when slow,
#: so the prefix is nearly always reached within the phase; when it is
#: not, the phase goes on, a window at a time, until it is.
WORKLOADS = {
    # per-op framing, dispatch and event-loop cost dominate; the client
    # costs about as much as the server
    "svc-get-set": (32_000, SERVE, _read_through, 4_000),
    # 64 ops per frame: tag lookup, admission and Clock eviction in the
    # store dominate server time
    "svc-batch": (160_000, SERVE, _read_through_batched, 40_000),
    # every write to a replicated key waits for INVAL acks and a REPL push
    "cluster-write": (12_000, CLUSTER_SERVE, _versioned, 1_500),
}


# -- the server process ---------------------------------------------------------


class ServerProcess:
    """One server started through the shipped CLI, on the server CPU;
    output goes to a log."""

    _ADDRESS = {
        "serve": re.compile(r"listening on (\S+):(\d+)$", re.M),
        "cluster": re.compile(r"^repro\.cluster:\s+(\S+) @ (\S+):(\d+)$",
                              re.M),
    }

    def __init__(self, argv: list, log_path, host: HostSpeed,
                 spans_out=None):
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   str(spans_out), *argv]
        self.kind = argv[0]
        self.nodes = 1 if self.kind == "serve" else int(
            argv[argv.index("--nodes") + 1])
        self.log_path = log_path
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        try:
            host.pin(self.proc.pid)
        except OSError:  # it exited already; addresses() reports why
            pass

    def output(self) -> str:
        return self.log_path.read_text(encoding="utf-8", errors="replace")

    async def addresses(self) -> dict:
        """name -> (host, port), once the server has printed them all."""
        deadline = clock() + READY_TIMEOUT_S
        pattern = self._ADDRESS[self.kind]
        while True:
            found = pattern.findall(self.output())
            if len(found) >= self.nodes:
                if self.kind == "serve":
                    return {"server": (found[0][0], int(found[0][1]))}
                return {name: (host, int(port)) for name, host, port in found}
            if self.proc.poll() is not None or clock() > deadline:
                raise RuntimeError(
                    f"server did not start (exit {self.proc.poll()}):\n"
                    + self.output()[-2000:])
            await asyncio.sleep(0.005)

    def stop(self) -> list:
        """SIGTERM, wait; returns the failed shutdown checks."""
        problems = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
            problems.append("server ignored SIGTERM and was killed")
        if code != 0:
            problems.append(f"server exited with status {code}")
        if "drained and stopped" not in self.output():
            problems.append("server did not report 'drained and stopped'")
        return problems


def _client(addresses: dict):
    if "server" in addresses:
        host, port = addresses["server"]
        return CacheClient(host, port, pool_size=1, protocol="v2")
    return ClusterClient(addresses, replicas=2, read_replicas=True,
                         pool_size=1, seed=RING_SEED)


async def _ready(client) -> None:
    if isinstance(client, CacheClient):
        ok = await client.ping()
    else:
        ok = all((await client.ping_all()).values())
    if not ok:
        raise RuntimeError("server did not answer PING")


async def _start(argv, log_path, host: HostSpeed, spans_out=None):
    """Spawn a server and wait for PING.

    Returns (server, client, set-up seconds divided by the server CPU's
    slowness around the start).
    """
    slow = host.slowness(server=True)
    t0 = clock()
    server = ServerProcess(argv, log_path, host, spans_out)
    client = None
    try:
        client = _client(await server.addresses())
        await _ready(client)
        elapsed = clock() - t0
        slow = (slow + host.slowness(server=True)) / 2
    except BaseException:
        if client is not None:
            await client.close()
        server.stop()
        raise
    return server, client, elapsed / slow


async def _server_view(client) -> dict:
    """The server process's STATS, summed over nodes for a cluster."""
    raw = await client.stats()
    snaps = raw["nodes"].values() if "nodes" in raw else [raw]
    view = {"cpu_s": 0.0, "peak_rss_kb": 0, "connections_v1": 0}
    for snap in snaps:
        # cluster nodes share one process: take its latest reading
        view["cpu_s"] = max(view["cpu_s"], snap["process"]["cpu_s"])
        view["peak_rss_kb"] = max(view["peak_rss_kb"],
                                  snap["process"]["peak_rss_kb"])
        view["connections_v1"] += snap["server"]["connections_v1"]
        for key in ("busy_s", "latency_samples", "reuse_admissions",
                    "data_evictions", "tag_evictions"):
            view[key] = view.get(key, 0) + snap["total"][key]
    return view


class _Pause:
    """A pause of the load, with nothing in flight: counters and samples.

    The load before it stopped at ``end`` (bench CPU time ``cpu_end``)
    and resumes at ``start`` (``cpu_start``), after the samples and, at a
    window's edge, the STATS call that reads the server's CPU time.
    """

    __slots__ = ("end", "cpu_end", "start", "cpu_start", "done",
                 "server_cpu", "slow", "server_slow")

    @classmethod
    async def take(cls, client, tally: Tally, host: HostSpeed,
                   edge: bool) -> "_Pause":
        pause = cls()
        pause.end, pause.cpu_end, pause.done = (clock(), cpu_clock(),
                                                tally.done)
        pause.server_cpu = ((await _server_view(client))["cpu_s"]
                            if edge else None)
        pause.slow = host.slowness()
        pause.server_slow = host.slowness(server=True)
        pause.start, pause.cpu_start = clock(), cpu_clock()
        return pause


def _window(pauses: list, log: LatencyLog) -> Window:
    """The window from the first pause to the last, without the pauses.

    Each stretch of load between two pauses gets the mean of their
    samples; the window's slowness is the mean over stretches, weighted
    by their length.
    """
    first, last = pauses[0], pauses[-1]
    wall = cpu = slow = server_slow = 0.0
    for a, b in zip(pauses, pauses[1:]):
        stretch = b.end - a.start
        wall += stretch
        cpu += b.cpu_end - a.cpu_start
        slow += stretch * (a.slow + b.slow) / 2
        server_slow += stretch * (a.server_slow + b.server_slow) / 2
    return Window(
        wall=wall, ops=last.done - first.done, cpu=cpu,
        server_cpu=last.server_cpu - first.server_cpu,
        slow=slow / wall, server_slow=server_slow / wall,
        latencies=log.between(first.start, last.end))


class _Phase:
    """Totals of one timed phase against one server."""

    def __init__(self, tally, log, windows, before, after):
        self.tally = tally
        self.log = log
        self.windows = windows
        self.before = before
        self.after = after

    @property
    def metrics(self) -> dict:
        return adjusted(self.windows)

    def delta(self, key):
        return self.after[key] - self.before[key]


async def _measure(client, workload, caller, gets_per_s: int,
                   seconds: float, host: HostSpeed) -> _Phase:
    """About ``seconds`` of load, in whole windows, and at least the prefix.

    The load pauses every SAMPLE_S for the slowness samples.
    """
    before = await _server_view(client)
    tally = Tally(prefix=max(1, int(gets_per_s * seconds) // BATCH) * BATCH)
    load = _Load(tally)
    per_window = round(WINDOW_S / SAMPLE_S)
    count = max(1, round(seconds / WINDOW_S))
    pauses = [await _Pause.take(client, tally, host, edge=True)]
    callers = asyncio.gather(
        *[_guarded(caller(client, trace, load), tally)
          for trace in workload.traces])
    try:
        while True:
            await asyncio.wait([callers], timeout=max(
                0.0, pauses[-1].start + SAMPLE_S - clock()))
            await load.gate.close()
            edge = len(pauses) % per_window == 0
            pauses.append(await _Pause.take(client, tally, host, edge))
            if callers.done() or (edge and len(pauses) > count * per_window
                                  and tally.prefix_hits is not None):
                break
            load.gate.reopen()
    finally:
        load.gate.reopen(stop=True)
        await callers
    after = await _server_view(client)
    windows = [_window(pauses[i:i + per_window + 1], load.log)
               for i in range(0, len(pauses) - per_window, per_window)]
    return _Phase(tally, load.log, windows, before, after)


async def _stopped(server, client, out: Outcome) -> None:
    await client.close()
    for problem in server.stop():
        out.problem(problem)


def _account(out: Outcome, phase: _Phase) -> None:
    tally = phase.tally
    out.attempted += tally.attempted
    out.failed += tally.failed
    for error in tally.errors[:5]:
        out.problem(error)
    if phase.after["connections_v1"]:
        out.problem("a client or peer connection fell back to wire v1")


async def _run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    refs, argv, caller, gets_per_s = WORKLOADS[name]
    out = Outcome(name, seed)
    host = HostSpeed()
    workload = build_workload(EXAMPLE_MIX, refs, seed=seed, scale=SCALE)
    OUT_DIR.mkdir(exist_ok=True)
    log_path = OUT_DIR / f"{name}-server.log"

    if not trace:
        setups = []
        for rep in range(SETUP_REPS):
            server, client, setup = await _start(argv, log_path, host)
            setups.append(setup)
            if rep < SETUP_REPS - 1:
                await _stopped(server, client, out)
        try:
            phase = await _measure(client, workload, caller, gets_per_s,
                                   seconds, host)
        finally:
            await _stopped(server, client, out)
        _account(out, phase)
        tally = phase.tally
        out.metrics = dict(
            phase.metrics,
            hit_rate=tally.hit_rate,
            setup_s=statistics.median(setups),
            peak_rss_mb=phase.after["peak_rss_kb"] / 1024)
        out.extra.update(facts(phase.windows))
        out.extra.update({
            # too unsteady between runs of one commit to gate (README)
            "latency_p99_ms": latency_ms(phase.windows, 0.99),
            "ops": tally.done, "latency_samples": len(phase.log),
            "hit_rate_gets": tally.prefix, "stale_reads": tally.stale,
        })
        return out

    server, client, _ = await _start(argv, log_path, host)
    try:
        plain = await _measure(client, workload, caller, gets_per_s,
                               seconds / 2, host)
    finally:
        await _stopped(server, client, out)
    _account(out, plain)

    spans_path = OUT_DIR / f"{name}-server-spans.json"
    server, client, _ = await _start(argv, log_path, host,
                                     spans_out=spans_path)
    recorder = SpanRecorder(pid=0)
    for cls, attrs in ((CacheClient, ("get", "set", "mget", "mset")),
                       (Transport, ("call",)),
                       (ClusterClient, ("get", "set")),
                       (PeerClient, ("rget",))):
        for attr in attrs:
            recorder.patch(cls, attr)
    try:
        traced = await _measure(client, workload, caller, gets_per_s,
                                seconds / 2, host)
    finally:
        await _stopped(server, client, out)
    _account(out, traced)
    with open(spans_path, encoding="utf-8") as fh:
        server_spans = SpanRecorder.load(json.load(fh), pid=1)
    out.metrics = _layers(traced, recorder, server_spans, plain)
    wall = sum(w.wall for w in traced.windows)
    out.recorders = [("bench", recorder, wall),
                     ("server", server_spans, wall)]
    out.extra.update({
        "untraced_ops_per_s": plain.metrics["throughput_ops_per_s"],
        "traced_ops_per_s": traced.metrics["throughput_ops_per_s"]})
    return out


def _layers(phase: _Phase, client: SpanRecorder, server: SpanRecorder,
            plain: _Phase) -> dict:
    """Per-layer numbers of the traced phase (spans plus STATS deltas)."""
    encode_s = server.self_s(*ENCODE)
    busy_s = phase.delta("busy_s")
    # busy_s is request service time; what the store, the encoder and the
    # cluster write path did not take of it is the server's own dispatch
    covered = server.root_s(*SHARDING, *ENCODE, "ClusterNode.handle_set")
    writes = server.calls("ClusterNode.handle_set")
    return {
        "service.client.calls": client.calls(*CLIENT),
        "service.client.time_s": client.total_s(*CLIENT),
        "service.transport.calls": client.calls("Transport.call"),
        "service.transport.time_s": client.total_s("Transport.call"),
        "service.protocol.decode_s": server.total_s(*DECODE),
        "service.protocol.encode_s": encode_s,
        "service.protocol.read_wait_s": server.total_s("read_frame"),
        "service.server.busy_s": busy_s,
        "service.server.requests": phase.delta("latency_samples"),
        "service.server.self_s": max(0.0, busy_s - covered),
        "service.sharding.calls": server.calls(*SHARDING),
        "service.sharding.self_s": server.self_s(*SHARDING),
        "service.store.calls": server.calls(*STORE),
        "service.store.self_s": server.self_s(*STORE),
        "service.store.admit_ratio": ratio(
            phase.delta("reuse_admissions"), server.calls("ReuseStore.set")),
        "service.store.data_evictions": phase.delta("data_evictions"),
        "service.store.tag_evictions": phase.delta("tag_evictions"),
        "cluster.node.set_s": server.total_s("ClusterNode.handle_set"),
        "cluster.node.rget_s": server.total_s("ClusterNode.handle_rget"),
        "cluster.node.inval_s": server.total_s("ClusterNode.handle_inval"),
        "cluster.node.repl_s": server.total_s("ClusterNode.handle_repl"),
        "cluster.node.inval_per_write": ratio(
            server.calls("PeerClient.inval"), writes),
        "cluster.peer.inval_calls": server.calls("PeerClient.inval"),
        "cluster.peer.inval_wait_s": server.total_s("PeerClient.inval"),
        "cluster.peer.repl_calls": server.calls("PeerClient.repl"),
        "cluster.peer.repl_wait_s": server.total_s("PeerClient.repl"),
        "cluster.client.calls": client.calls(*CLUSTER_CLIENT),
        "cluster.client.time_s": client.total_s(*CLUSTER_CLIENT),
        "cluster.client.replica_read_ratio": ratio(
            client.calls("PeerClient.rget"), client.calls("ClusterClient.get")),
        "bench.tracing_slowdown": (plain.metrics["throughput_ops_per_s"]
                                   / phase.metrics["throughput_ops_per_s"]),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(_run(name, seed, seconds, trace))
