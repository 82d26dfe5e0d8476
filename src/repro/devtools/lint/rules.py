"""Repo-specific lint rules (REP001–REP013, FLOW001–FLOW003).

Each rule targets a hazard class that corrupts simulation results or
serving behaviour *without failing any test*: nondeterminism (REP001,
REP002), event-loop stalls (REP3/4), Python foot-guns (REP005–REP007),
architecture erosion (REP008), observability bypass (REP009),
decentralised parallelism (REP010), unaccounted host timing (REP011),
raw transport outside the serving/cluster stack (REP012) and
manually-managed span/timer lifecycles (REP013).  The FLOW rules are
whole-project: declared here, judged by
:class:`repro.devtools.flow.checks.ProjectAnalysis`.
``docs/devtools.md`` documents the rule set and how to add one.
"""

from __future__ import annotations

import ast

from .engine import Rule, register

#: packages whose results must be bit-reproducible given a seed
SIMULATOR_SCOPE = (
    "repro.cache",
    "repro.coherence",
    "repro.core",
    "repro.dram",
    "repro.hierarchy",
    "repro.metrics",
    "repro.replacement",
    "repro.runner",
    "repro.workloads",
)

#: the serving data path — shares the determinism rules (the admission
#: decision must replay identically) but not the wall-clock ban (stats
#: deliberately time the host, through ``repro.obs.prof.clock``)
SERVICE_SCOPE = ("repro.service",)


def dotted_name(node) -> str:
    """``a.b.c`` for a Name/Attribute chain; ``""`` when not a plain chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@register
class UnseededRandomRule(Rule):
    """Global/unseeded RNG use makes runs non-replayable.

    Simulator and service code must draw randomness from an explicitly
    seeded generator (``random.Random(seed)`` / ``np.random.default_rng(seed)``)
    that is threaded through constructors, never from the process-global
    state of the ``random`` or ``numpy.random`` modules.
    """

    id = "REP001"
    name = "unseeded-random"
    scope = SIMULATOR_SCOPE + SERVICE_SCOPE + ("repro.obs",)

    _GLOBAL_FNS = frozenset(
        {
            "betavariate", "choice", "choices", "expovariate", "gauss",
            "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
            "randbytes", "randint", "random", "randrange", "sample", "seed",
            "shuffle", "triangular", "uniform", "vonmisesvariate",
            "weibullvariate",
        }
    )
    _NP_LEGACY_FNS = frozenset(
        {
            "choice", "normal", "permutation", "rand", "randint", "randn",
            "random", "seed", "shuffle", "uniform",
        }
    )

    def check_Call(self, node: ast.Call, ctx) -> None:
        name = dotted_name(node.func)
        if name == "random.Random" and not node.args and not node.keywords:
            ctx.report(self, node, "random.Random() without an explicit seed")
        elif (
            name in ("numpy.random.default_rng", "np.random.default_rng")
            and not node.args
            and not node.keywords
        ):
            ctx.report(self, node, "default_rng() without an explicit seed")
        elif name.startswith("random.") and name.count(".") == 1:
            fn = name.split(".", 1)[1]
            if fn in self._GLOBAL_FNS:
                ctx.report(
                    self,
                    node,
                    f"module-global random.{fn}() shares unseeded process "
                    "state; use an injected random.Random(seed)",
                )
        elif name.startswith(("numpy.random.", "np.random.")):
            fn = name.rsplit(".", 1)[1]
            if fn in self._NP_LEGACY_FNS:
                ctx.report(
                    self,
                    node,
                    f"legacy global numpy.random.{fn}(); use "
                    "np.random.default_rng(seed)",
                )


@register
class WallClockRule(Rule):
    """Wall-clock reads in simulator code leak real time into results.

    Simulated time must come from the model's own cycle counters; stats
    that genuinely need to time the host use the monotonic interval clock
    behind :func:`repro.obs.prof.clock` (REP011 routes them there).
    """

    id = "REP002"
    name = "wall-clock"
    scope = SIMULATOR_SCOPE

    def check_Attribute(self, node: ast.Attribute, ctx) -> None:
        name = dotted_name(node)
        if name in ("time.time", "time.time_ns"):
            ctx.report(
                self, node,
                f"{name} reads the wall clock; simulator paths must use "
                "model cycle counts (or repro.obs.prof.clock for host "
                "timing)",
            )
        elif name.endswith((".now", ".utcnow", ".today")) and (
            "datetime" in name or name.startswith("date.")
        ):
            ctx.report(self, node, f"wall-clock {name} in simulator code")


@register
class BlockingInAsyncRule(Rule):
    """Synchronous blocking calls inside ``async def`` stall the event loop.

    One blocked coroutine freezes every connection on the shard — the
    serving path must use ``await asyncio.sleep`` and the streams API.
    """

    id = "REP003"
    name = "blocking-in-async"

    _BLOCKING = frozenset(
        {
            "time.sleep",
            "socket.socket",
            "socket.create_connection",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "subprocess.Popen",
            "urllib.request.urlopen",
            "open",
            "input",
        }
    )

    def check_Call(self, node: ast.Call, ctx) -> None:
        if not ctx.in_async_function:
            return
        name = dotted_name(node.func)
        if name in self._BLOCKING or name.startswith("requests."):
            ctx.report(
                self, node,
                f"blocking {name}() inside async def blocks the event loop "
                "(use the asyncio equivalent or run_in_executor)",
            )


@register
class UnawaitedCoroutineRule(Rule):
    """A coroutine called without ``await`` silently does nothing.

    Flags expression statements whose value is a call to a coroutine
    function defined in the same module (or a well-known asyncio
    coroutine) with the returned coroutine object discarded.  Attribute
    calls only match on ``self.method()`` — an arbitrary receiver (say a
    ``StreamWriter``) may legitimately share a method name, like
    ``close``, with a local ``async def``.
    """

    id = "REP004"
    name = "unawaited-coroutine"

    _ASYNCIO_COROS = frozenset(
        {
            "asyncio.sleep", "asyncio.wait_for", "asyncio.gather",
            "asyncio.wait", "asyncio.open_connection", "asyncio.start_server",
            "asyncio.to_thread",
        }
    )

    def check_Expr(self, node: ast.Expr, ctx) -> None:
        call = node.value
        if not isinstance(call, ast.Call):
            return
        name = dotted_name(call.func)
        local_coro = (
            name in ctx.async_defs
            or (
                name.startswith("self.")
                and name.count(".") == 1
                and name.split(".", 1)[1] in ctx.async_defs
            )
        )
        if name in self._ASYNCIO_COROS or local_coro:
            ctx.report(
                self, node, f"call to coroutine {name}() is never awaited"
            )


@register
class MutableDefaultRule(Rule):
    """Mutable default arguments alias state across calls."""

    id = "REP005"
    name = "mutable-default"

    def _is_mutable(self, default) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(default, ast.Call)
            and dotted_name(default.func) in ("list", "dict", "set", "bytearray")
        )

    def _check_function(self, node, ctx) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                ctx.report(
                    self, default,
                    f"mutable default in {node.name}(); use None and "
                    "initialise inside the body",
                )

    check_FunctionDef = _check_function
    check_AsyncFunctionDef = _check_function


@register
class FloatEqualityRule(Rule):
    """``==``/``!=`` against float literals is brittle in metrics code.

    Accumulated hit rates, IPC ratios and latency quantiles carry rounding
    error; compare with ``math.isclose`` / ``pytest.approx`` instead.
    """

    id = "REP006"
    name = "float-eq"
    scope = ("repro.metrics", "repro.service.stats")

    def check_Compare(self, node: ast.Compare, ctx) -> None:
        operands = [node.left] + list(node.comparators)
        for op, (lhs, rhs) in zip(node.ops, zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (lhs, rhs):
                if isinstance(side, ast.Constant) and isinstance(
                    side.value, float
                ):
                    ctx.report(
                        self, node,
                        f"float literal {side.value!r} compared with "
                        "==/!=; use math.isclose",
                    )
                    break


@register
class BareExceptRule(Rule):
    """``except:`` swallows KeyboardInterrupt/SystemExit and hides bugs."""

    id = "REP007"
    name = "bare-except"

    def check_ExceptHandler(self, node: ast.ExceptHandler, ctx) -> None:
        if node.type is None:
            ctx.report(
                self, node,
                "bare except catches SystemExit/KeyboardInterrupt; name "
                "the exceptions you expect",
            )


#: package -> layer index.  An import is legal when it targets a *lower*
#: layer, the same package, or a whitelisted peer pair.  See
#: docs/devtools.md for the rationale of each level.
LAYERS = {
    "repro.utils": 0,
    # the obs CLI (dashboard/export) sits above the simulator and the
    # service it drives; the longer prefix must precede "repro.obs"
    # because layer_package() returns the first match
    "repro.obs.cli": 5,
    "repro.obs": 1,
    # perf compares bench/run.py result files and imports nothing from
    # repro, so it sits with the leaf packages
    "repro.perf": 1,
    "repro.coherence": 1,
    "repro.replacement": 1,
    "repro.workloads": 1,
    "repro.dram": 1,
    "repro.metrics": 1,
    "repro.cache": 2,
    "repro.core": 2,
    "repro.hierarchy": 3,
    # the runner executes simulator cells; the experiment drivers sit on
    # top of it, so they moved up a layer when the engine was introduced
    "repro.runner": 4,
    "repro.service": 4,
    # the cluster composes service nodes behind a hash ring, so it sits
    # one layer above repro.service alongside the experiment drivers
    "repro.cluster": 5,
    "repro.experiments": 5,
    "repro.devtools": 5,
    "repro.__main__": 6,
}

#: same-layer cross-package imports that are explicitly allowed: the
#: decoupled tag/data machinery is shared between the set-associative
#: models (cache) and the reuse cache proper (core)
ALLOWED_PEERS = {
    ("repro.cache", "repro.core"),
    ("repro.core", "repro.cache"),
    # the coherence protocol emits trace events; the obs dashboard
    # reuses the plotting helpers of repro.metrics
    ("repro.coherence", "repro.obs"),
    ("repro.obs", "repro.metrics"),
    # the cluster-scaling experiment drives a LocalCluster; both sit at
    # layer 5, with the experiment registry on the consuming side
    ("repro.experiments", "repro.cluster"),
    # repro top --cluster fans CSTATUS/STATS in through ClusterClient;
    # both sit at layer 5, with the obs CLI on the consuming side
    ("repro.obs.cli", "repro.cluster"),
}


def layer_package(module: str):
    """The ``LAYERS`` key owning dotted ``module``, or ``None``."""
    for prefix in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return prefix
    return None


@register
class LayerImportRule(Rule):
    """Cross-layer imports must point downward in the architecture.

    ``repro.cache`` importing ``repro.service`` would let serving concerns
    leak into the simulator; the layering table in this module is the
    single source of truth for what may import what.
    """

    id = "REP008"
    name = "layer-import"
    scope = ("repro",)

    def _check_target(self, node, ctx, target: str) -> None:
        src_pkg = layer_package(ctx.module)
        dst_pkg = layer_package(target)
        if src_pkg is None or dst_pkg is None or src_pkg == dst_pkg:
            return
        if (src_pkg, dst_pkg) in ALLOWED_PEERS:
            return
        if LAYERS[dst_pkg] >= LAYERS[src_pkg]:
            ctx.report(
                self, node,
                f"{ctx.module} (layer {LAYERS[src_pkg]}, {src_pkg}) must "
                f"not import {target} (layer {LAYERS[dst_pkg]}, {dst_pkg})",
            )

    def check_Import(self, node: ast.Import, ctx) -> None:
        for alias in node.names:
            if alias.name == "repro" or alias.name.startswith("repro."):
                self._check_target(node, ctx, alias.name)

    def check_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if node.level == 0:
            target = node.module or ""
            if target == "repro" or target.startswith("repro."):
                self._check_target(node, ctx, target)
            return
        # resolve a relative import against the importing module's package
        parts = ctx.module.split(".")
        pkg_parts = parts if ctx.is_package else parts[:-1]
        base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
        if not base:
            return
        target = ".".join(base + node.module.split(".")) if node.module else (
            ".".join(base)
        )
        if node.module is None:
            # ``from . import x`` — each name is a submodule of base
            for alias in node.names:
                self._check_target(node, ctx, target + "." + alias.name)
        else:
            self._check_target(node, ctx, target)


@register
class CounterBypassRule(Rule):
    """Stat counters on *other* objects must go through their recorder API.

    The instrumented modules own their counters behind ``record_*``
    methods (service) or publish them through the obs registry collector
    (simulator); reaching *into* another object and bumping a counter
    attribute directly (``self.stats.hits += 1``) bypasses both, so the
    mutation never shows up in METRICS/STATS and silently diverges from
    the registry.  Plain counters on ``self`` (``self.hits += 1``) stay
    legal — they are the object's own state and the collectors read them.
    Genuinely non-metric nested mutation can opt out with
    ``# repro: noqa=REP009``.
    """

    id = "REP009"
    name = "counter-bypass"
    scope = (
        "repro.cache",
        "repro.core",
        "repro.coherence",
        "repro.hierarchy",
        "repro.service",
    )

    def check_AugAssign(self, node: ast.AugAssign, ctx) -> None:
        target = node.target
        if not isinstance(target, ast.Attribute):
            return
        if not isinstance(target.value, ast.Attribute):
            return
        name = dotted_name(target) or f"<expr>.{target.attr}"
        ctx.report(
            self, node,
            f"augmented assignment to nested attribute {name}; mutate "
            "counters through the owner's record_* API or the obs "
            "registry (# repro: noqa=REP009 if this is not a metric)",
        )


@register
class DecentralisedParallelismRule(Rule):
    """Threads and processes belong to :mod:`repro.runner` alone.

    The engine guarantees that parallel execution is deterministic (cells
    carry their own seeds, results return in submission order) and
    observable (cells run/cached/failed counters, latency histogram).  A
    stray ``ProcessPoolExecutor`` or ``multiprocessing`` pool elsewhere
    would fork work that no cache key covers and no counter counts —
    every fan-out must go through ``Runner.run_cells``.

    ``threading`` is banned on the same terms.  The service store takes no
    lock: it is owned by the server's event-loop thread, so a thread that
    touched it would race.
    """

    id = "REP010"
    name = "decentralised-parallelism"
    scope = ("repro",)

    _BANNED = ("multiprocessing", "concurrent", "threading")
    _ADVICE = (
        "submit cells through repro.runner.Runner so parallelism stays "
        "seeded, cached and counted, and leave the service store to its "
        "event-loop thread"
    )

    def _allowed(self, ctx) -> bool:
        return ctx.module == "repro.runner" or ctx.module.startswith(
            "repro.runner."
        )

    def _is_banned(self, module: str) -> bool:
        return any(
            module == root or module.startswith(root + ".")
            for root in self._BANNED
        )

    def check_Import(self, node: ast.Import, ctx) -> None:
        if self._allowed(ctx):
            return
        for alias in node.names:
            if self._is_banned(alias.name):
                ctx.report(
                    self, node,
                    f"import of {alias.name} outside repro.runner; "
                    + self._ADVICE,
                )

    def check_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if self._allowed(ctx) or node.level:
            return
        if self._is_banned(node.module or ""):
            ctx.report(
                self, node,
                f"import from {node.module} outside repro.runner; "
                + self._ADVICE,
            )


@register
class UnaccountedHostTimingRule(Rule):
    """Host interval clocks must flow through :mod:`repro.obs.prof`.

    ``repro.obs.prof.clock`` / ``cpu_clock`` are the sanctioned access
    points for ``time.perf_counter`` / ``time.process_time``: timing that
    goes through them can land in the obs registry and show up in the
    runner's per-cell accounts.  A direct clock read anywhere else
    produces a number no dashboard will ever see.  :mod:`repro.obs` and
    :mod:`repro.runner` host the wrappers and the per-cell measurement
    loop, so they are exempt; a rare justified site elsewhere opts out
    with ``# repro: noqa=REP011``.
    """

    id = "REP011"
    name = "unaccounted-host-timing"
    scope = ("repro",)

    _BANNED = frozenset(
        {
            "time.perf_counter", "time.perf_counter_ns",
            "time.process_time", "time.process_time_ns",
        }
    )
    _BANNED_NAMES = frozenset(
        {
            "perf_counter", "perf_counter_ns",
            "process_time", "process_time_ns",
        }
    )

    def _allowed(self, ctx) -> bool:
        return any(
            ctx.module == pkg or ctx.module.startswith(pkg + ".")
            for pkg in ("repro.obs", "repro.runner")
        )

    def check_Attribute(self, node: ast.Attribute, ctx) -> None:
        if self._allowed(ctx):
            return
        name = dotted_name(node)
        if name in self._BANNED:
            ctx.report(
                self, node,
                f"direct {name} bypasses the perf accounting layer; use "
                "repro.obs.prof.clock (wall) or cpu_clock (CPU) so the "
                "interval can be accounted and baselined",
            )

    def check_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if self._allowed(ctx) or node.level or node.module != "time":
            return
        for alias in node.names:
            if alias.name in self._BANNED_NAMES:
                ctx.report(
                    self, node,
                    f"importing time.{alias.name} bypasses the perf "
                    "accounting layer; use repro.obs.prof.clock / "
                    "cpu_clock instead",
                )


@register
class RawTransportRule(Rule):
    """Network transport belongs to :mod:`repro.service` / :mod:`repro.cluster`.

    The serving stack owns the wire: its framing enforces value/frame size
    limits, its connections are counted and drained on shutdown, and its
    requests land in the obs registry and trace lanes.  A stray ``socket``
    or ``asyncio.start_server`` elsewhere opens a transport endpoint none
    of that covers — unbounded frames, connections no DRAIN ever sees,
    traffic invisible to METRICS.  Anything that needs bytes on the wire
    goes through :class:`~repro.service.client.CacheClient`,
    :class:`~repro.cluster.client.ClusterClient` or a server subclass.

    One named exception: :mod:`repro.obs.http`, the read-only
    observability endpoint.  It is itself part of the accountability
    story (bounded request lines, per-path request counts, torn down by
    ``ServiceTelemetry.stop``) and must stay dependency-free, so it is
    a sanctioned second transport rather than a stray one.
    """

    id = "REP012"
    name = "raw-transport"
    scope = ("repro",)

    _BANNED_CALLS = frozenset(
        {
            "asyncio.start_server",
            "asyncio.start_unix_server",
            "asyncio.open_connection",
            "asyncio.open_unix_connection",
        }
    )

    def _allowed(self, ctx) -> bool:
        if ctx.module == "repro.obs.http":  # the sanctioned obs endpoint
            return True
        return any(
            ctx.module == pkg or ctx.module.startswith(pkg + ".")
            for pkg in ("repro.service", "repro.cluster")
        )

    def check_Import(self, node: ast.Import, ctx) -> None:
        if self._allowed(ctx):
            return
        for alias in node.names:
            if alias.name == "socket" or alias.name.startswith("socket."):
                ctx.report(
                    self, node,
                    "import of socket outside repro.service/repro.cluster; "
                    "talk to the cache through CacheClient/ClusterClient so "
                    "framing limits, drain and metrics apply",
                )

    def check_ImportFrom(self, node: ast.ImportFrom, ctx) -> None:
        if self._allowed(ctx) or node.level:
            return
        if node.module == "socket" or (node.module or "").startswith("socket."):
            ctx.report(
                self, node,
                "import from socket outside repro.service/repro.cluster; "
                "talk to the cache through CacheClient/ClusterClient so "
                "framing limits, drain and metrics apply",
            )

    def check_Attribute(self, node: ast.Attribute, ctx) -> None:
        if self._allowed(ctx):
            return
        name = dotted_name(node)
        if name in self._BANNED_CALLS:
            ctx.report(
                self, node,
                f"{name} opens a raw transport endpoint outside "
                "repro.service/repro.cluster; use CacheClient/ClusterClient "
                "or subclass CacheServer so the connection is framed, "
                "drained and counted",
            )


@register
class UnscopedSpanRule(Rule):
    """Spans must be context-managed outside :mod:`repro.obs`.

    ``tracer.span(...)`` returns a context manager whose exit records the
    timed event; calling it without ``with`` either silently records
    nothing (the generator never runs) or, with a manual
    ``.start()``/``.stop()`` pair, leaks the span on any exception
    between the two — a trace with holes exactly where the
    interesting failures happened.  :mod:`repro.obs` itself implements
    the managers, so it is exempt.
    """

    id = "REP013"
    name = "unscoped-span"
    scope = ("repro",)

    #: attribute calls that produce a context-managed timing scope
    _SCOPE_FACTORIES = frozenset({"span"})
    #: receiver-name fragments that mark a manual lifecycle call as a
    #: span/timer object (``span.start()``, ``timer.stop()``)
    _SCOPED_RECEIVERS = ("span", "timer")

    def _exempt(self, ctx) -> bool:
        return ctx.module == "repro.obs" or ctx.module.startswith("repro.obs.")

    def check_Module(self, node: ast.Module, ctx) -> None:
        # per-file state on a shared rule instance: the context
        # expressions of every with-item, so check_Call can tell
        # ``with tracer.span(...):`` from a bare ``tracer.span(...)``
        self._with_items = {
            id(item.context_expr)
            for wnode in ast.walk(node)
            if isinstance(wnode, (ast.With, ast.AsyncWith))
            for item in wnode.items
        }

    def check_Call(self, node: ast.Call, ctx) -> None:
        if self._exempt(ctx) or not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        if attr in self._SCOPE_FACTORIES:
            if id(node) not in getattr(self, "_with_items", ()):
                ctx.report(
                    self, node,
                    f".{attr}(...) outside a 'with' block records nothing "
                    "(or leaks on exceptions); use "
                    f"'with ...{attr}(...):' so the scope always closes",
                )
        elif attr in ("start", "stop"):
            receiver = dotted_name(node.func.value).rsplit(".", 1)[-1].lower()
            if any(frag in receiver for frag in self._SCOPED_RECEIVERS):
                ctx.report(
                    self, node,
                    f"manual {receiver}.{attr}() lifecycle leaks the scope "
                    "on exceptions; use the context-manager form instead",
                )


# -- whole-project flow rules ------------------------------------------------


@register
class AsyncAtomicityRule(Rule):
    """Read-modify-write of shared state spanning a suspension point.

    Between the read and the dependent write another coroutine can run
    and change the location, so the write commits a stale value (as do
    version counters and replica directories mutated around an
    INVAL/ack fan-out).  Hold one ``asyncio.Lock`` across the
    whole gap, or state the protecting invariant with
    ``# repro: atomic=<reason>``.
    """

    id = "FLOW001"
    name = "async-atomicity"
    project = True


@register
class LockDisciplineRule(Rule):
    """Lock acquire/release imbalance, lock-bypassing writes, re-entry.

    Manual ``.acquire()`` must be paired with a ``finally``-guaranteed
    ``.release()`` (or replaced by ``async with``); awaiting a callee
    that takes a lock you already hold deadlocks (asyncio locks are not
    reentrant); and writing a location whose FLOW001 safety argument
    *is* a lock, without holding that lock, breaks the argument.
    """

    id = "FLOW002"
    name = "lock-discipline"
    project = True


@register
class ProtocolConformanceRule(Rule):
    """Wire verbs must match the declarative spec on both ends.

    Every verb a server registers a handler for must be declared in
    ``repro.devtools.flow.protocol_spec`` and have at least one client
    sender; every declared verb must be handled and present in the
    codec's ``VERB_IDS`` / ``REQUEST_FIELDS`` tables.  A new verb lands
    by touching spec, codec tables and handler together — drift fails
    CI.
    """

    id = "FLOW003"
    name = "protocol-conformance"
    project = True
