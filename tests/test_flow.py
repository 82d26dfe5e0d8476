"""Tests for the whole-project FLOW rules that ``repro lint`` runs.

Each FLOW rule gets seeded-violation fixtures (must fire), negative
fixtures (must stay silent) and an annotation fixture (``# repro:
atomic=<reason>`` silences it with a stated invariant).  The rules run
through the same engine as the REP rules: one parse per file, one sorted
report in the lint schema, pinned byte-deterministic.
"""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.devtools.lint import RULES, LintEngine, default_rules, run_lint
from repro.devtools.flow.protocol_spec import (
    CLIENT_FILES,
    CODEC_FILE,
    SPEC,
    documented_verbs,
    verbs_for_layer,
)
from repro.devtools.lint.engine import format_json
from repro.service.protocol import REQUEST_FIELDS

#: the real source tree, wherever the package was imported from
SRC_DIR = Path(repro.__file__).resolve().parent

#: the whole-project rules, in registration order
FLOW_RULES = {rule_id: cls for rule_id, cls in RULES.items() if cls.project}


def flow_engine(select=None):
    """The lint engine running the FLOW rules (or ``select`` of them)."""
    return LintEngine(default_rules(select or set(FLOW_RULES)))


def analyze_snippet(source, module="repro.cache.fixture", select=None):
    """Analyze a dedented source string as if it were ``module``'s file."""
    engine = flow_engine(select)
    path = "src/" + module.replace(".", "/") + ".py"
    return engine.lint_sources({path: textwrap.dedent(source)})


def codes(findings):
    return [f.rule for f in findings]


# -- FLOW001: async atomicity -------------------------------------------------


class TestAsyncAtomicity:
    RMW = """
    import asyncio

    class Counter:
        async def bump(self):
            v = self.count
            await asyncio.sleep(0)
            self.count = v + 1
    """

    def test_rmw_across_await_fires(self):
        findings = analyze_snippet(self.RMW)
        assert codes(findings) == ["FLOW001"]
        assert "Counter.count" in findings[0].message
        assert "suspension point" in findings[0].message

    def test_no_suspension_between_is_silent(self):
        assert analyze_snippet("""
        import asyncio

        class Counter:
            async def bump(self):
                v = self.count
                self.count = v + 1
                await asyncio.sleep(0)
        """) == []

    def test_lock_held_across_the_gap_is_silent(self):
        assert analyze_snippet("""
        import asyncio

        class Counter:
            def __init__(self):
                self._lock = asyncio.Lock()
                self.count = 0

            async def bump(self):
                async with self._lock:
                    v = self.count
                    await asyncio.sleep(0)
                    self.count = v + 1
        """) == []

    def test_deadline_block_is_not_a_lock(self):
        # a request deadline bounds time; it excludes no other task, so a
        # read-modify-write across an await inside it is still a race
        findings = analyze_snippet("""
        import asyncio

        class Counter:
            async def bump(self):
                async with asyncio.timeout(self.timeout):
                    v = self.count
                    await asyncio.sleep(0)
                    self.count = v + 1
        """)
        assert codes(findings) == ["FLOW001"]

    def test_inflight_count_around_a_deadline_block_is_silent(self):
        # the serving codecs' shape: single-statement counter bumps
        # around an in-task deadline
        assert analyze_snippet("""
        import asyncio

        class Server:
            async def serve(self, request):
                self._inflight += 1
                try:
                    async with asyncio.timeout(self.request_timeout):
                        await request()
                except asyncio.TimeoutError:
                    pass
                finally:
                    self._inflight -= 1
        """) == []

    def test_lock_released_before_the_write_fires(self):
        findings = analyze_snippet("""
        import asyncio

        class Counter:
            def __init__(self):
                self._lock = asyncio.Lock()

            async def bump(self):
                async with self._lock:
                    v = self.count
                    await asyncio.sleep(0)
                self.count = v + 1
        """)
        assert "FLOW001" in codes(findings)

    def test_non_async_class_is_not_shared(self):
        # no async method anywhere: single-coroutine by construction
        assert analyze_snippet("""
        class Plain:
            def bump(self):
                v = self.count
                self.count = v + 1
        """) == []

    def test_module_global_rmw_fires(self):
        findings = analyze_snippet("""
        import asyncio

        REGISTRY = {}

        async def register(name):
            n = REGISTRY.get(name, 0)
            await asyncio.sleep(0)
            REGISTRY[name] = n + 1
        """)
        assert codes(findings) == ["FLOW001"]
        assert "REGISTRY" in findings[0].message

    def test_interprocedural_read_through_helper(self):
        # the read happens in a sync helper; one level of call-graph
        # inlining still connects it to the post-await write
        findings = analyze_snippet("""
        import asyncio

        class Counter:
            def peek(self):
                return self.count

            async def bump(self):
                v = self.peek()
                await asyncio.sleep(0)
                self.count = v + 1
        """)
        assert codes(findings) == ["FLOW001"]

    def test_trailing_annotation_suppresses(self):
        findings = analyze_snippet("""
        import asyncio

        class Counter:
            async def bump(self):
                v = self.count
                await asyncio.sleep(0)
                self.count = v + 1  # repro: atomic=single writer task owns this counter
        """)
        assert findings == []

    def test_own_line_annotation_covers_the_next_line(self):
        findings = analyze_snippet("""
        import asyncio

        class Counter:
            async def bump(self):
                v = self.count
                await asyncio.sleep(0)
                # repro: atomic=single writer task owns this counter
                self.count = v + 1
        """)
        assert findings == []

    def test_def_line_annotation_covers_the_function(self):
        findings = analyze_snippet("""
        import asyncio

        class Counter:
            async def bump(self):  # repro: atomic=bump is only called from one task
                v = self.count
                await asyncio.sleep(0)
                self.count = v + 1
        """)
        assert findings == []

    def test_annotation_without_reason_does_not_suppress(self):
        findings = analyze_snippet("""
        import asyncio

        class Counter:
            async def bump(self):
                v = self.count
                await asyncio.sleep(0)
                self.count = v + 1  # repro: atomic=
        """)
        assert codes(findings) == ["FLOW001"]

    def test_paired_counter_augassigns_are_not_flagged(self):
        # each augassign reads and writes on its own line; pairing the
        # decrement with the increment's read would ban every in-flight
        # counter (the server's _handle_connection pattern)
        assert analyze_snippet("""
        import asyncio

        class Gate:
            async def handle(self):
                self.inflight += 1
                try:
                    await asyncio.sleep(0)
                finally:
                    self.inflight -= 1
        """) == []


# -- FLOW002: lock discipline -------------------------------------------------


class TestLockDiscipline:
    def test_manual_acquire_without_release_fires(self):
        findings = analyze_snippet("""
        import asyncio

        class S:
            def __init__(self):
                self._lock = asyncio.Lock()

            async def go(self):
                await self._lock.acquire()
                self.x = 1
        """)
        assert "FLOW002" in codes(findings)
        assert any("release" in f.message for f in findings)

    def test_release_in_finally_is_silent(self):
        assert analyze_snippet("""
        import asyncio

        class S:
            def __init__(self):
                self._lock = asyncio.Lock()

            async def go(self):
                await self._lock.acquire()
                try:
                    self.x = 1
                finally:
                    self._lock.release()
        """) == []

    def test_awaiting_a_callee_that_reacquires_the_held_lock(self):
        findings = analyze_snippet("""
        import asyncio

        class S:
            def __init__(self):
                self._lock = asyncio.Lock()

            async def inner(self):
                async with self._lock:
                    self.x = 1

            async def outer(self):
                async with self._lock:
                    await self.inner()
        """)
        assert "FLOW002" in codes(findings)
        assert any("reentrant" in f.message for f in findings)

    def test_write_bypassing_a_relied_on_lock_fires(self):
        findings = analyze_snippet("""
        import asyncio

        class S:
            def __init__(self):
                self._lock = asyncio.Lock()
                self.count = 0

            async def bump(self):
                async with self._lock:
                    v = self.count
                    await asyncio.sleep(0)
                    self.count = v + 1

            async def reset(self):
                self.count = 0
        """)
        assert codes(findings) == ["FLOW002"]
        assert "without" in findings[0].message
        assert "self._lock" in findings[0].message

    def test_constructor_writes_are_exempt_from_reliance(self):
        # __init__ runs before the instance is shared; only the
        # post-construction bypass in ``reset`` would fire (absent here)
        assert analyze_snippet("""
        import asyncio

        class S:
            def __init__(self):
                self._lock = asyncio.Lock()
                self.count = 0

            async def bump(self):
                async with self._lock:
                    v = self.count
                    await asyncio.sleep(0)
                    self.count = v + 1
        """) == []


# -- FLOW003: wire-protocol conformance --------------------------------------


def fake_server_source(verbs):
    """A minimal server whose verb table is exactly ``verbs``."""
    lines = [
        "from repro.service.server import wire_verb",
        "",
        "class CacheServer:",
    ]
    for verb in verbs:
        lines.append(f"    @wire_verb({verb!r})")
        lines.append(f"    async def _verb_{verb.lower()}(self):")
        lines.append(f"        return {verb!r}")
    return "\n".join(lines) + "\n"


def fake_sender_source(verbs):
    """A minimal client sending exactly ``verbs`` through its transport."""
    lines = ["class Client:"]
    for verb in verbs:
        lines.append(f"    async def send_{verb.lower()}(self):")
        lines.append(f"        return await self.transport.call({verb!r})")
    return "\n".join(lines) + "\n"


def analyze_tree(sources, select=None):
    return flow_engine(select).lint_sources(sources)


class TestProtocolConformance:
    """The verb-table half: handlers and senders against the spec."""

    SERVICE_VERBS = sorted(verbs_for_layer("service"))
    SERVER = "src/repro/service/server.py"

    def test_spec_layers_are_known(self):
        assert documented_verbs() >= {"GET", "SET", "DEL", "QUIT", "DRAIN"}
        for verb in SPEC:
            assert verb.layers and set(verb.layers) <= {"service", "cluster"}

    def test_conforming_fake_server_is_silent(self):
        sources = {self.SERVER: fake_server_source(self.SERVICE_VERBS)}
        assert analyze_tree(sources, select={"FLOW003"}) == []

    def test_undeclared_dispatch_fires(self):
        # the acceptance gate: a handler for a verb missing from the spec
        sources = {
            self.SERVER: fake_server_source(self.SERVICE_VERBS + ["FROB"])
        }
        findings = analyze_tree(sources, select={"FLOW003"})
        assert codes(findings) == ["FLOW003"]
        assert "'FROB'" in findings[0].message
        assert "add a spec entry" in findings[0].message

    def test_declared_but_never_dispatched_fires(self):
        verbs = [v for v in self.SERVICE_VERBS if v != "QUIT"]
        sources = {self.SERVER: fake_server_source(verbs)}
        findings = analyze_tree(sources, select={"FLOW003"})
        assert codes(findings) == ["FLOW003"]
        assert "'QUIT'" in findings[0].message
        assert "never handles" in findings[0].message

    def test_undocumented_client_send_fires(self):
        sources = {
            self.SERVER: fake_server_source(self.SERVICE_VERBS),
            "src/repro/cluster/client.py": fake_sender_source(["FROB"]),
        }
        findings = analyze_tree(sources, select={"FLOW003"})
        assert codes(findings) == ["FLOW003"]
        assert "'FROB'" in findings[0].message
        assert "does not document" in findings[0].message

    def test_no_sender_check_needs_every_client_file(self):
        # with only one of the client files present, a handled verb
        # without a visible sender is NOT dead surface — the sender may
        # live in a file outside the analyzed tree
        sources = {
            self.SERVER: fake_server_source(self.SERVICE_VERBS),
            "src/repro/service/client.py": fake_sender_source(["GET"]),
        }
        findings = analyze_tree(sources, select={"FLOW003"})
        assert findings == []

    def test_dispatched_verb_with_no_sender_fires_when_clients_complete(self):
        sources = {self.SERVER: fake_server_source(self.SERVICE_VERBS)}
        for client in CLIENT_FILES:
            sources.setdefault(
                "src/" + client,
                fake_sender_source([v for v in self.SERVICE_VERBS
                                    if v != "QUIT"]),
            )
        findings = analyze_tree(sources, select={"FLOW003"})
        assert any(
            "no client ever sends" in f.message and "'QUIT'" in f.message
            for f in findings
        )

    def test_real_tree_conforms(self):
        findings, _ = run_lint([SRC_DIR], select={"FLOW003"})
        assert findings == []


class TestFramingConformance:
    """The codec half: ``VERB_IDS`` and ``REQUEST_FIELDS`` fix every
    verb's frame, so they must cover exactly the documented verbs."""

    SERVER = "src/repro/service/server.py"
    SERVICE_VERBS = TestProtocolConformance.SERVICE_VERBS

    def _table_source(self, *tables):
        out = []
        for name, verbs in tables:
            entries = ", ".join(f"{v!r}: {i}" for i, v in enumerate(verbs))
            out.append(f"{name} = {{{entries}}}\n")
        return "".join(out)

    def _codec(self, verb_ids=None, request_fields=None):
        every = sorted(documented_verbs())
        return {
            "src/" + CODEC_FILE: self._table_source(
                ("VERB_IDS", every if verb_ids is None else verb_ids),
                ("REQUEST_FIELDS",
                 every if request_fields is None else request_fields),
            )
        }

    def test_spec_declares_batch_verbs_v2_only(self):
        # the batch verbs are declared, and framed as batches
        assert {"MGET", "MSET", "MDEL"} <= documented_verbs()
        assert {REQUEST_FIELDS[verb] for verb in ("MGET", "MSET", "MDEL")} \
            == {("keys",), ("items",)}

    def test_conforming_framed_server_is_silent(self):
        sources = self._codec()
        sources[self.SERVER] = fake_server_source(self.SERVICE_VERBS)
        assert analyze_tree(sources, select={"FLOW003"}) == []

    def test_call_sender_with_undocumented_verb_fires(self):
        sources = {
            self.SERVER: fake_server_source(self.SERVICE_VERBS),
            "src/repro/service/client.py": textwrap.dedent("""
                class CacheClient:
                    async def frob(self):
                        return await self.transport.call("FROB", "k")
            """),
        }
        findings = analyze_tree(sources, select={"FLOW003"})
        assert codes(findings) == ["FLOW003"]
        assert "'FROB'" in findings[0].message
        assert "does not document" in findings[0].message

    def test_codec_table_missing_verb_fires(self):
        verbs = sorted(documented_verbs() - {"MDEL"})
        findings = analyze_tree(self._codec(verb_ids=verbs),
                                select={"FLOW003"})
        assert codes(findings) == ["FLOW003"]
        assert "'MDEL'" in findings[0].message
        assert "VERB_IDS" in findings[0].message

    def test_codec_table_extra_verb_fires(self):
        verbs = sorted(documented_verbs()) + ["FROB"]
        findings = analyze_tree(self._codec(verb_ids=verbs),
                                select={"FLOW003"})
        assert codes(findings) == ["FLOW003"]
        assert "'FROB'" in findings[0].message

    def test_request_fields_table_is_checked(self):
        verbs = sorted(documented_verbs() - {"QUIT"})
        findings = analyze_tree(self._codec(request_fields=verbs),
                                select={"FLOW003"})
        assert codes(findings) == ["FLOW003"]
        assert "'QUIT'" in findings[0].message
        assert "REQUEST_FIELDS" in findings[0].message

    def test_stub_codec_without_tables_is_silent(self):
        # a partial tree (no table dicts at all) proves nothing
        sources = {"src/" + CODEC_FILE: "class Frame:\n    pass\n"}
        assert analyze_tree(sources, select={"FLOW003"}) == []


# -- engine mechanics ---------------------------------------------------------


class TestEngine:
    def test_syntax_error_is_reported_not_raised(self):
        findings = analyze_snippet("def broken(:\n")
        assert codes(findings) == ["REP000"]
        assert "syntax error" in findings[0].message

    def test_registry_has_the_three_flow_rules(self):
        assert sorted(FLOW_RULES) == ["FLOW001", "FLOW002", "FLOW003"]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="unknown rule ids"):
            default_rules({"FLOW999"})

    def test_select_limits_rules(self):
        src = """
        import asyncio

        class S:
            def __init__(self):
                self._lock = asyncio.Lock()

            async def go(self):
                await self._lock.acquire()
                v = self.x
                await asyncio.sleep(0)
                self.x = v + 1
        """
        all_codes = set(codes(analyze_snippet(src)))
        assert all_codes == {"FLOW001", "FLOW002"}
        only = codes(analyze_snippet(src, select={"FLOW002"}))
        assert set(only) == {"FLOW002"}

    def test_json_report_matches_the_lint_schema(self):
        findings = analyze_snippet(TestAsyncAtomicity.RMW)
        engine = flow_engine()
        report = json.loads(format_json(findings, 1, engine.rules))
        assert report["version"] == 1
        assert {r["id"] for r in report["rules"]} == set(FLOW_RULES)
        (finding,) = report["findings"]
        assert set(finding) == {
            "rule", "severity", "path", "line", "col", "message",
        }
        assert finding["rule"] == "FLOW001"

    def test_output_is_deterministic_across_runs_and_input_order(self):
        a = {
            "src/repro/cache/a.py": textwrap.dedent(TestAsyncAtomicity.RMW),
            "src/repro/cache/b.py": (
                "import asyncio\n"
                "class Gauge:\n"
                "    async def tick(self):\n"
                "        v = self.level\n"
                "        await asyncio.sleep(0)\n"
                "        self.level = v + 1\n"
            ),
        }
        b = dict(reversed(list(a.items())))  # same files, reversed order

        def render(sources):
            engine = flow_engine()
            findings = engine.lint_sources(sources)
            return format_json(findings, engine.files_checked, engine.rules)

        first, second, reordered = render(a), render(a), render(b)
        assert first == second == reordered
        assert json.loads(first)["findings"]


# -- the CLI ------------------------------------------------------------------


class TestAnalyzeCommand:
    """The FLOW rules judged through the ``repro lint`` command."""

    def seeded_tree(self, tmp_path):
        bad = tmp_path / "repro" / "cache" / "seeded.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(textwrap.dedent(TestAsyncAtomicity.RMW))
        return bad

    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(SRC_DIR)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        self.seeded_tree(tmp_path)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FLOW001" in out and "seeded.py" in out

    def test_json_output_parses(self, tmp_path, capsys):
        self.seeded_tree(tmp_path)
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert [f["rule"] for f in report["findings"]] == ["FLOW001"]

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id, cls in FLOW_RULES.items():
            assert rule_id in out
            first_doc_line = (cls.__doc__ or "").strip().splitlines()[0]
            assert first_doc_line.strip() in out

    def test_unknown_select_code_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--select", "FLOW999"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err
