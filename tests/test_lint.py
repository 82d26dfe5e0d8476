"""Tests for the repo linter: engine mechanics and every built-in rule.

Each rule gets a positive fixture (must fire), a negative fixture (must
stay silent) and a suppression fixture (``# repro: noqa=CODE`` silences
it).  The JSON report schema is pinned so CI consumers can rely on it.
"""

import json
import textwrap

import pytest

from repro.devtools.lint import (
    Finding,
    LintEngine,
    RULES,
    Rule,
    default_rules,
    format_json,
    module_name_for,
    run_lint,
)
from repro.devtools.lint.rules import ALLOWED_PEERS, LAYERS, layer_package


#: the per-node rules; the whole-project FLOW rules live in test_flow.py
REP_RULES = {rule_id for rule_id, cls in RULES.items() if not cls.project}


def lint_snippet(source, module="repro.cache.fixture", select=None):
    """Lint a dedented source string as if it were ``module``'s file."""
    engine = LintEngine(default_rules(select or REP_RULES))
    path = "src/" + module.replace(".", "/") + ".py"
    return engine.lint_source(textwrap.dedent(source), path)


def codes(findings):
    return [f.rule for f in findings]


# -- engine mechanics --------------------------------------------------------


class TestModuleNaming:
    def test_src_layout(self):
        assert module_name_for(
            __import__("pathlib").Path("src/repro/cache/vway.py")
        ) == "repro.cache.vway"

    def test_init_resolves_to_package(self):
        assert module_name_for(
            __import__("pathlib").Path("src/repro/coherence/__init__.py")
        ) == "repro.coherence"

    def test_outside_repro_falls_back_to_stem(self):
        assert module_name_for(
            __import__("pathlib").Path("/tmp/whatever/script.py")
        ) == "script"


class TestEngine:
    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_snippet("def broken(:\n")
        assert codes(findings) == ["REP000"]
        assert "syntax error" in findings[0].message

    def test_registry_has_the_thirteen_repo_rules(self):
        assert sorted(REP_RULES) == [f"REP{i:03d}" for i in range(1, 14)]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule ids"):
            default_rules({"REP999"})

    def test_select_limits_rules(self):
        src = """
        import time
        def f(x=[]):
            return time.time()
        """
        all_codes = set(codes(lint_snippet(src)))
        assert all_codes == {"REP002", "REP005"}
        only = codes(lint_snippet(src, select={"REP005"}))
        assert only == ["REP005"]

    def test_findings_sorted_and_located(self, tmp_path):
        bad = tmp_path / "repro" / "cache" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nx = time.time()\n")
        findings, engine = run_lint([tmp_path])
        assert engine.files_checked == 1
        assert [f.line for f in findings] == [2]
        assert findings[0].path.endswith("bad.py")

    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("import time\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "junk.py").write_text("import time\n")
        findings, engine = run_lint([tmp_path])
        assert engine.files_checked == 0 and findings == []


class TestSuppression:
    SRC = """
    import time
    x = time.time()  # repro: noqa=REP002
    """

    def test_noqa_specific_code(self):
        assert lint_snippet(self.SRC) == []

    def test_noqa_counts_suppressions(self):
        engine = LintEngine(default_rules())
        engine.lint_source(textwrap.dedent(self.SRC), "src/repro/cache/x.py")
        assert engine.suppressed == 1

    def test_noqa_bare_suppresses_everything(self):
        src = "import time\nx = time.time()  # repro: noqa\n"
        assert lint_snippet(src) == []

    def test_noqa_other_code_does_not_suppress(self):
        src = "import time\nx = time.time()  # repro: noqa=REP001\n"
        assert codes(lint_snippet(src)) == ["REP002"]

    def test_noqa_list_of_codes(self):
        src = (
            "import time\n"
            "def f(x=[]):\n"
            "    return 1\n"
            "y = time.time()  # repro: noqa=REP001, REP002\n"
        )
        assert codes(lint_snippet(src)) == ["REP005"]

    def test_plain_flake8_noqa_is_not_ours(self):
        src = "import time\nx = time.time()  # noqa\n"
        assert codes(lint_snippet(src)) == ["REP002"]


class TestJsonSchema:
    def test_report_shape(self):
        findings = lint_snippet("import time\nx = time.time()\n")
        engine = LintEngine(default_rules())
        report = json.loads(format_json(findings, 3, engine.rules))
        assert report["version"] == 1
        assert report["files_checked"] == 3
        rule_ids = {r["id"] for r in report["rules"]}
        assert rule_ids == set(RULES)
        for rule in report["rules"]:
            assert set(rule) == {"id", "name", "severity", "description"}
            assert rule["severity"] in ("error", "warning")
        (finding,) = report["findings"]
        assert set(finding) == {
            "rule", "severity", "path", "line", "col", "message",
        }
        assert finding["rule"] == "REP002" and finding["line"] == 2


# -- rule fixtures -----------------------------------------------------------


class TestUnseededRandom:
    def test_flags_unseeded_random(self):
        assert codes(lint_snippet("""
        import random
        rng = random.Random()
        """)) == ["REP001"]

    def test_flags_global_module_functions(self):
        findings = lint_snippet("""
        import random
        def pick(ways):
            return random.randint(0, ways - 1)
        """)
        assert codes(findings) == ["REP001"]
        assert "random.randint" in findings[0].message

    def test_flags_unseeded_default_rng_and_legacy_numpy(self):
        assert codes(lint_snippet("""
        import numpy as np
        a = np.random.default_rng()
        b = np.random.rand(4)
        """)) == ["REP001", "REP001"]

    def test_seeded_generators_pass(self):
        assert lint_snippet("""
        import random
        import numpy as np
        rng = random.Random(42)
        g = np.random.default_rng(seed=42)
        x = rng.random()
        """) == []

    def test_out_of_scope_module_ignored(self):
        src = "import random\nrng = random.Random()\n"
        assert codes(lint_snippet(src, module="repro.experiments.f")) == []

    def test_suppression(self):
        src = (
            "import random\n"
            "rng = random.Random()  # repro: noqa=REP001\n"
        )
        assert lint_snippet(src) == []


class TestWallClock:
    def test_flags_time_time_in_simulator(self):
        assert codes(lint_snippet("""
        import time
        def stamp():
            return time.time()
        """)) == ["REP002"]

    def test_flags_datetime_now(self):
        assert codes(lint_snippet("""
        import datetime
        t = datetime.datetime.now()
        """)) == ["REP002"]

    def test_perf_counter_allowed(self):
        # REP002 tolerates the interval clock; routing it through
        # repro.obs.prof is REP011's job, so only REP002 runs here
        assert lint_snippet("""
        import time
        t = time.perf_counter()
        """, select={"REP002"}) == []

    def test_cli_is_out_of_scope(self):
        src = "import time\nt = time.time()\n"
        assert codes(lint_snippet(src, module="repro.__main__")) == []

    def test_suppression(self):
        src = "import time\nt = time.time()  # repro: noqa=REP002\n"
        assert lint_snippet(src) == []


class TestBlockingInAsync:
    def test_flags_sleep_and_open_in_async(self):
        findings = lint_snippet("""
        import time
        async def handler():
            time.sleep(0.1)
            with open("f") as fh:
                return fh.read()
        """)
        assert codes(findings) == ["REP003", "REP003"]

    def test_sync_function_not_flagged(self):
        assert lint_snippet("""
        import time
        def handler():
            time.sleep(0.1)
        """) == []

    def test_nested_sync_def_resets_context(self):
        assert lint_snippet("""
        import time
        async def handler():
            def helper():
                time.sleep(0.1)
            return helper
        """) == []

    def test_asyncio_sleep_allowed(self):
        assert lint_snippet("""
        import asyncio
        async def handler():
            await asyncio.sleep(0.1)
        """) == []

    def test_suppression(self):
        assert lint_snippet("""
        import time
        async def handler():
            time.sleep(0.1)  # repro: noqa=REP003
        """) == []


class TestUnawaitedCoroutine:
    def test_flags_bare_local_coroutine_call(self):
        findings = lint_snippet("""
        async def refill():
            pass
        def kick():
            refill()
        """)
        assert codes(findings) == ["REP004"]
        assert "refill" in findings[0].message

    def test_flags_self_method_and_asyncio_sleep(self):
        assert codes(lint_snippet("""
        import asyncio
        class Server:
            async def drain(self):
                pass
            async def stop(self):
                self.drain()
                asyncio.sleep(1)
        """)) == ["REP004", "REP004"]

    def test_awaited_and_scheduled_calls_pass(self):
        assert lint_snippet("""
        import asyncio
        async def refill():
            pass
        async def main():
            await refill()
            task = asyncio.create_task(refill())
            return task
        """) == []

    def test_foreign_receiver_sharing_name_not_flagged(self):
        # StreamWriter.close() is synchronous even if the module also
        # defines an ``async def close`` (the repro.service.client case).
        assert lint_snippet("""
        async def close():
            pass
        def shutdown(writer):
            writer.close()
        """) == []

    def test_suppression(self):
        assert lint_snippet("""
        async def refill():
            pass
        def kick():
            refill()  # repro: noqa=REP004
        """) == []


class TestMutableDefault:
    def test_flags_literal_and_constructor_defaults(self):
        assert codes(lint_snippet("""
        def f(a, b=[], c=dict()):
            return a
        """)) == ["REP005", "REP005"]

    def test_flags_kwonly_and_async_defaults(self):
        assert codes(lint_snippet("""
        async def f(*, cache={}):
            return cache
        """)) == ["REP005"]

    def test_none_default_passes(self):
        assert lint_snippet("""
        def f(a, b=None, c=()):
            return a
        """) == []

    def test_suppression(self):
        assert lint_snippet("""
        def f(a, b=[]):  # repro: noqa=REP005
            return a
        """) == []


class TestFloatEquality:
    def test_flags_float_literal_comparison_in_metrics(self):
        findings = lint_snippet("""
        def check(rate):
            return rate == 0.5
        """, module="repro.metrics.perf")
        assert codes(findings) == ["REP006"]

    def test_flags_in_service_stats(self):
        src = "def f(p99):\n    return p99 != 1.5\n"
        assert codes(lint_snippet(src, module="repro.service.stats")) == [
            "REP006"
        ]

    def test_int_comparison_and_inequalities_pass(self):
        assert lint_snippet("""
        def check(rate):
            return rate == 0 or rate >= 0.5
        """, module="repro.metrics.perf") == []

    def test_out_of_scope(self):
        src = "def f(x):\n    return x == 0.5\n"
        assert lint_snippet(src, module="repro.cache.vway") == []

    def test_suppression(self):
        src = (
            "def f(x):\n"
            "    return x == 0.5  # repro: noqa=REP006\n"
        )
        assert lint_snippet(src, module="repro.metrics.perf") == []


class TestBareExcept:
    def test_flags_bare_except(self):
        assert codes(lint_snippet("""
        try:
            x = 1
        except:
            pass
        """)) == ["REP007"]

    def test_typed_except_passes(self):
        assert lint_snippet("""
        try:
            x = 1
        except (ValueError, KeyError):
            pass
        """) == []

    def test_suppression(self):
        assert lint_snippet("""
        try:
            x = 1
        except:  # repro: noqa=REP007
            pass
        """) == []


class TestLayerImport:
    def test_simulator_must_not_import_service(self):
        findings = lint_snippet(
            "from repro.service.store import ReuseStore\n",
            module="repro.cache.vway",
        )
        assert codes(findings) == ["REP008"]
        assert "repro.service" in findings[0].message

    def test_relative_parent_import_resolved(self):
        findings = lint_snippet(
            "from ..service import store\n", module="repro.cache.vway"
        )
        assert codes(findings) == ["REP008"]

    def test_from_dot_import_names_resolved(self):
        # ``from .. import service`` inside repro.cache
        findings = lint_snippet(
            "from .. import service\n", module="repro.cache.vway"
        )
        assert codes(findings) == ["REP008"]

    def test_downward_and_peer_imports_pass(self):
        assert lint_snippet("""
        from repro.coherence.states import State
        from ..replacement import make_policy
        from ..core.reuse_cache import ReuseCache
        from ..utils import require_power_of_two
        """, module="repro.cache.vway") == []

    def test_nothing_below_cli_imports_devtools(self):
        findings = lint_snippet(
            "from repro.devtools.lint import run_lint\n",
            module="repro.experiments.fig5",
        )
        assert codes(findings) == ["REP008"]

    def test_main_may_import_devtools(self):
        assert lint_snippet(
            "from .devtools import cli as devtools_cli\n",
            module="repro.__main__",
        ) == []

    def test_layer_table_is_consistent(self):
        # every whitelisted peer pair is same-layer, and the helper
        # resolves submodules to their owning package
        for src, dst in ALLOWED_PEERS:
            assert LAYERS[src] == LAYERS[dst]
        assert layer_package("repro.cache.vway") == "repro.cache"
        assert layer_package("repro.nonexistent") is None

    def test_suppression(self):
        src = (
            "from repro.service import store"
            "  # repro: noqa=REP008\n"
        )
        assert lint_snippet(src, module="repro.cache.vway") == []


class TestCounterBypass:
    def test_flags_nested_counter_mutation(self):
        findings = lint_snippet("""
        class Shard:
            def hit(self):
                self.stats.hits += 1
        """, module="repro.service.store")
        assert codes(findings) == ["REP009"]
        assert "self.stats.hits" in findings[0].message

    def test_flags_deeper_chains(self):
        src = """
        def bump(server):
            server.shard.stats.misses += 1
        """
        assert codes(lint_snippet(src, module="repro.hierarchy.system")) == [
            "REP009"
        ]

    def test_own_counters_and_subscripts_pass(self):
        assert lint_snippet("""
        class Bank:
            def access(self):
                self.hits += 1
                self.counts[3] += 1
                total = 0
                total += 1
                return total
        """, module="repro.cache.vway") == []

    def test_out_of_scope_module_ignored(self):
        src = "def f(r):\n    r.stats.hits += 1\n"
        assert lint_snippet(src, module="repro.experiments.fig5") == []
        assert lint_snippet(src, module="repro.obs.registry") == []

    def test_suppression(self):
        assert lint_snippet("""
        class Shard:
            def tick(self):
                self.clock.hand += 1  # repro: noqa=REP009
        """, module="repro.service.store") == []


class TestObsLayering:
    def test_obs_is_layer_one_and_cli_sits_above(self):
        assert LAYERS["repro.obs"] == 1
        assert LAYERS["repro.obs.cli"] == 5
        assert layer_package("repro.obs.cli") == "repro.obs.cli"
        assert layer_package("repro.obs.registry") == "repro.obs"

    def test_simulator_may_import_obs(self):
        assert lint_snippet(
            "from ..obs.tracing import NULL_TRACER\n",
            module="repro.cache.llc_base",
        ) == []

    def test_coherence_peer_pair_allowed(self):
        assert lint_snippet(
            "from ..obs.tracing import NULL_TRACER\n",
            module="repro.coherence.protocol",
        ) == []

    def test_obs_must_not_import_simulator(self):
        findings = lint_snippet(
            "from repro.cache.vway import VWayLLC\n",
            module="repro.obs.registry",
        )
        assert codes(findings) == ["REP008"]

    def test_obs_cli_may_import_hierarchy_and_service(self):
        assert lint_snippet("""
        from repro.hierarchy.system import System
        from repro.service.client import CacheClient
        """, module="repro.obs.cli") == []

    def test_obs_uses_seeded_random_rules(self):
        src = "import random\nrng = random.Random()\n"
        assert codes(lint_snippet(src, module="repro.obs.registry")) == [
            "REP001"
        ]


# -- plugin API --------------------------------------------------------------


class TestPluginAPI:
    def test_custom_rule_runs_through_engine(self):
        class NoPrintRule(Rule):
            id = "X001"
            name = "no-print"
            description = "print() in library code"

            def check_Call(self, node, ctx):
                import ast

                if isinstance(node.func, ast.Name) and node.func.id == "print":
                    ctx.report(self, node, "print() call")

        engine = LintEngine([NoPrintRule()])
        findings = engine.lint_source(
            "print('hi')\n", "src/repro/cache/x.py"
        )
        assert codes(findings) == ["X001"]
        assert isinstance(findings[0], Finding)

    def test_scoped_rule_skips_other_modules(self):
        class ScopedRule(Rule):
            id = "X002"
            name = "scoped"
            scope = ("repro.metrics",)

            def check_Module(self, node, ctx):
                ctx.report(self, node, "saw a module")

        engine = LintEngine([ScopedRule()])
        assert engine.lint_source("x = 1\n", "src/repro/metrics/a.py")
        assert not engine.lint_source("x = 1\n", "src/repro/cache/a.py")


class TestDecentralisedParallelism:
    def test_flags_executor_import_outside_runner(self):
        findings = lint_snippet(
            "from concurrent.futures import ProcessPoolExecutor\n",
            module="repro.experiments.fig7",
        )
        assert codes(findings) == ["REP010"]
        assert "repro.runner" in findings[0].message

    def test_flags_multiprocessing_import(self):
        findings = lint_snippet(
            "import multiprocessing\n", module="repro.service.server"
        )
        assert codes(findings) == ["REP010"]

    def test_flags_submodule_imports(self):
        assert codes(lint_snippet(
            "import multiprocessing.pool\n", module="repro.hierarchy.system"
        )) == ["REP010"]
        assert codes(lint_snippet(
            "import concurrent.futures as cf\n", module="repro.obs.registry"
        )) == ["REP010"]

    def test_flags_threading_in_service(self):
        # the service store takes no lock: no thread may reach it
        findings = lint_snippet(
            "import threading\n", module="repro.service.store"
        )
        assert codes(findings) == ["REP010"]
        assert "event-loop thread" in findings[0].message
        assert codes(lint_snippet(
            "from threading import Lock\n", module="repro.service.sharding"
        )) == ["REP010"]

    def test_runner_package_is_exempt(self):
        src = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "import multiprocessing\n"
            "import threading\n"
            "from threading import Lock\n"
        )
        assert lint_snippet(src, module="repro.runner.engine") == []
        assert lint_snippet(src, module="repro.runner") == []

    def test_concurrent_prefix_does_not_overmatch(self):
        # a third-party package that merely starts with "concurrent" is fine
        assert lint_snippet(
            "import concurrently\n", module="repro.experiments.fig7"
        ) == []

    def test_suppression(self):
        assert lint_snippet(
            "import multiprocessing  # repro: noqa=REP010\n",
            module="repro.experiments.fig7",
        ) == []


class TestUnaccountedHostTiming:
    def test_flags_direct_perf_counter(self):
        findings = lint_snippet(
            "import time\nt = time.perf_counter()\n",
            module="repro.service.loadgen",
        )
        assert codes(findings) == ["REP011"]
        assert "repro.obs.prof.clock" in findings[0].message

    def test_flags_process_time_and_ns_variants(self):
        for fn in ("process_time", "perf_counter_ns", "process_time_ns"):
            findings = lint_snippet(
                f"import time\nt = time.{fn}()\n",
                module="repro.experiments.fig5",
            )
            assert codes(findings) == ["REP011"], fn

    def test_flags_from_import(self):
        findings = lint_snippet(
            "from time import perf_counter\n",
            module="repro.service.server",
        )
        assert codes(findings) == ["REP011"]

    def test_obs_and_runner_are_exempt(self):
        src = (
            "import time\n"
            "a = time.perf_counter()\n"
            "b = time.process_time()\n"
        )
        assert lint_snippet(src, module="repro.obs.prof") == []
        assert lint_snippet(src, module="repro.runner.engine") == []

    def test_other_time_functions_stay_legal(self):
        # the rule bans the two interval clocks only; monotonic and sleep
        # have non-measurement uses outside the accounting layer
        src = "import time\ntime.sleep(0)\nm = time.monotonic()\n"
        assert lint_snippet(src, module="repro.service.client") == []

    def test_suppression(self):
        assert lint_snippet(
            "import time\n"
            "t = time.perf_counter()  # repro: noqa=REP011\n",
            module="repro.service.loadgen",
        ) == []

    def test_perf_layer_sits_below_experiments(self):
        # the benchmark gate reads result files and drives nothing
        assert LAYERS["repro.perf"] < LAYERS["repro.experiments"]
        assert LAYERS["repro.__main__"] > LAYERS["repro.perf"]
        assert lint_snippet(
            "from repro.perf import compare_runs\n",
            module="repro.__main__",
        ) == []
        # the gate reaching up into the experiment registry is a violation
        assert codes(lint_snippet(
            "from repro.experiments import registry\n",
            module="repro.perf.compare",
        )) == ["REP008"]


class TestRawTransport:
    def test_flags_socket_import_outside_the_serving_stack(self):
        findings = lint_snippet(
            "import socket\n", module="repro.experiments.fig7"
        )
        assert codes(findings) == ["REP012"]
        assert "ClusterClient" in findings[0].message

    def test_flags_socket_from_import(self):
        assert codes(lint_snippet(
            "from socket import create_connection\n",
            module="repro.obs.exporter",
        )) == ["REP012"]

    def test_flags_asyncio_server_primitives(self):
        for fn in ("start_server", "open_connection"):
            findings = lint_snippet(
                "import asyncio\n"
                f"async def go():\n"
                f"    return await asyncio.{fn}()\n",
                module="repro.experiments.fig7",
            )
            assert "REP012" in codes(findings), fn

    def test_service_and_cluster_are_exempt(self):
        src = (
            "import asyncio\n"
            "import socket\n"
            "async def go():\n"
            "    return await asyncio.open_connection('h', 1)\n"
        )
        assert lint_snippet(src, module="repro.service.server") == []
        assert lint_snippet(src, module="repro.cluster.node") == []

    def test_socketserver_does_not_overmatch(self):
        # a module merely *starting with* "socket" is a different package
        assert lint_snippet(
            "import socketserver\n", module="repro.experiments.fig7"
        ) == []

    def test_suppression(self):
        assert lint_snippet(
            "import socket  # repro: noqa=REP012\n",
            module="repro.experiments.fig7",
        ) == []

    def test_cluster_layering(self):
        # the cluster sits above the service it composes...
        assert LAYERS["repro.cluster"] > LAYERS["repro.service"]
        assert lint_snippet(
            "from repro.service.client import CacheClient\n",
            module="repro.cluster.node",
        ) == []
        # ...the experiments may drive it as a whitelisted peer...
        assert lint_snippet(
            "from repro.cluster import LocalCluster\n",
            module="repro.experiments.cluster_scaling",
        ) == []
        # ...but the service must never reach up into the cluster
        assert codes(lint_snippet(
            "from repro.cluster import ClusterClient\n",
            module="repro.service.server",
        )) == ["REP008"]


class TestUnscopedSpan:
    def test_flags_bare_span_call(self):
        findings = lint_snippet(
            "def handle(tracer):\n"
            "    tracer.span('request')\n",
            module="repro.service.server",
        )
        assert codes(findings) == ["REP013"]
        assert "with" in findings[0].message

    def test_flags_manual_start_stop_lifecycle(self):
        findings = lint_snippet(
            "def run(span, timer):\n"
            "    span.start()\n"
            "    timer.stop()\n",
            module="repro.service.server",
        )
        assert codes(findings) == ["REP013", "REP013"]

    def test_with_block_is_legal(self):
        assert lint_snippet(
            "def handle(tracer):\n"
            "    with tracer.span('request'):\n"
            "        pass\n",
            module="repro.service.server",
        ) == []

    def test_async_with_is_legal(self):
        assert lint_snippet(
            "async def handle(tracer):\n"
            "    async with tracer.span('request'):\n"
            "        pass\n",
            module="repro.service.server",
        ) == []

    def test_repro_obs_is_exempt(self):
        src = (
            "def span_impl(self):\n"
            "    self.span('x')\n"
            "    timer.start()\n"
        )
        assert lint_snippet(src, module="repro.obs.tracing") == []

    def test_unrelated_start_receivers_stay_legal(self):
        assert lint_snippet(
            "async def boot(node, server):\n"
            "    await node.start()\n"
            "    await server.stop()\n",
            module="repro.cluster.local",
        ) == []

    def test_suppression(self):
        assert lint_snippet(
            "def handle(tracer):\n"
            "    tracer.span('request')  # repro: noqa=REP013\n",
            module="repro.service.server",
        ) == []

    def test_obs_cli_may_import_the_cluster_client(self):
        # repro top --cluster fans in over ClusterClient: peer-listed
        assert ("repro.obs.cli", "repro.cluster") in ALLOWED_PEERS
        assert lint_snippet(
            "from repro.cluster.client import ClusterClient\n",
            module="repro.obs.cli",
        ) == []
