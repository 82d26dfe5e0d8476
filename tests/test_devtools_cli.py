"""Tests for ``repro lint`` / ``repro check-protocol`` as CLI commands.

The acceptance contract: both exit 0 on the merged tree, exit nonzero
when a violation is present, and emit machine-readable JSON on demand.
"""

import json
from pathlib import Path

import repro
from repro.__main__ import main
from repro.devtools import cli as devtools_cli
from repro.devtools import protocol_check
from repro.devtools.lint import RULES

#: the real source tree, wherever the package was imported from
SRC_DIR = Path(repro.__file__).resolve().parent


class TestLintCommand:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(SRC_DIR)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "replacement" / "seeded.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrng = random.Random()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "seeded.py" in out

    def test_json_output_parses(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "cache" / "seeded.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert [f["rule"] for f in report["findings"]] == ["REP002"]

    def test_select_runs_only_chosen_rules(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "cache" / "seeded.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert main(
            ["lint", str(tmp_path), "--select", "rep007"]
        ) == 0  # case-insensitive select; REP002 not run
        assert main(["lint", str(tmp_path), "--select", "REP002"]) == 1
        capsys.readouterr()

    def test_unknown_select_code_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--select", "REP999"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_list_rules_and_json_describe_each_rule_alike(
            self, tmp_path, capsys):
        # one description per rule: its docstring's first line
        assert main(["lint", "--list-rules"]) == 0
        listed = {}
        for line in capsys.readouterr().out.splitlines():
            rule_id, _, rest = line.partition(" ")
            listed[rule_id] = rest.split("] ", 1)[1]
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        described = {rule["id"]: rule["description"]
                     for rule in report["rules"]}
        assert len(described) == len(RULES) == 16
        assert listed == described
        for rule_id, cls in RULES.items():
            assert described[rule_id] == \
                cls.__doc__.strip().splitlines()[0].strip() != ""


#: an await-spanning read-modify-write of shared state (one FLOW001)
FLOW001_SOURCE = """\
import asyncio


class Counter:
    async def bump(self):
        v = self.count
        await asyncio.sleep(0)
        self.count = v + 1
"""


def seeded_tree(tmp_path):
    """A tree with one REP002 file, one FLOW001 file and one clean file."""
    pkg = tmp_path / "repro" / "cache"
    pkg.mkdir(parents=True)
    (pkg / "clock.py").write_text("import time\nt = time.time()\n")
    (pkg / "counter.py").write_text(FLOW001_SOURCE)
    (pkg / "clean.py").write_text("x = 1\n")
    return tmp_path


class TestOneEngine:
    """``repro lint`` runs the per-node REP and whole-project FLOW rules
    in one pass and writes one report."""

    def test_rep_and_flow_findings_share_one_sorted_report(
        self, tmp_path, capsys
    ):
        root = seeded_tree(tmp_path)
        assert main(["lint", str(root), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["files_checked"] == 3
        assert {r["id"] for r in report["rules"]} == set(RULES)
        found = [(Path(f["path"]).name, f["rule"]) for f in report["findings"]]
        assert found == [("clock.py", "REP002"), ("counter.py", "FLOW001")]

    def test_syntax_error_is_one_rep000(self, tmp_path, capsys):
        root = seeded_tree(tmp_path)
        (root / "repro" / "cache" / "broken.py").write_text("def f(:\n")
        assert main(["lint", str(root), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        broken = [f["rule"] for f in report["findings"]
                  if f["path"].endswith("broken.py")]
        assert broken == ["REP000"]
        assert report["files_checked"] == 4

    def test_select_flow003_runs_only_flow003(self, tmp_path, capsys):
        assert main(
            ["lint", "--select", "FLOW003", "--format", "json", str(SRC_DIR)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["id"] for r in report["rules"]] == ["FLOW003"]
        # the seeded REP002 and FLOW001 are not judged
        assert main(
            ["lint", "--select", "FLOW003", str(seeded_tree(tmp_path))]
        ) == 0
        capsys.readouterr()

    def test_noqa_does_not_suppress_flow_rules(self, tmp_path, capsys):
        src = FLOW001_SOURCE.replace(
            "self.count = v + 1", "self.count = v + 1  # repro: noqa"
        )
        bad = tmp_path / "repro" / "cache" / "counter.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(src)
        assert main(["lint", str(tmp_path)]) == 1
        assert "FLOW001" in capsys.readouterr().out

    def test_analyze_is_an_unknown_command(self, capsys):
        assert main(["analyze", str(SRC_DIR)]) == 2
        assert "unknown command 'analyze'" in capsys.readouterr().err


class TestCheckProtocolCommand:
    def test_shipped_tables_exit_zero(self, capsys):
        assert main(["check-protocol"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out and "TO-MOSI" in out

    def test_json_output_parses(self, capsys):
        assert main(["check-protocol", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {p["name"] for p in report["protocols"]} == {
            "TO-MSI", "TO-MOSI",
        }

    def test_cluster_flag_adds_the_distributed_table(self, capsys):
        assert main(["check-protocol", "--cluster"]) == 0
        assert "TO-MSI-cluster" in capsys.readouterr().out

    def test_cluster_json_output_parses(self, capsys):
        assert main(["check-protocol", "--cluster", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {p["name"] for p in report["protocols"]} == {
            "TO-MSI", "TO-MOSI", "TO-MSI-cluster",
        }
        assert report["findings"] == []

    def test_seeded_violation_exits_nonzero(self, monkeypatch, capsys):
        from repro.coherence.states import Event, State

        spec = protocol_check.base_spec()
        table = dict(spec.table)
        del table[(State.TO, Event.GETS)]
        broken = protocol_check.with_table(spec, table)
        monkeypatch.setattr(
            protocol_check, "all_specs", lambda cluster=False: [broken]
        )
        assert main(["check-protocol"]) == 1
        assert "unhandled" in capsys.readouterr().out


class TestDispatch:
    def test_list_advertises_static_checks(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in devtools_cli.DEVTOOLS_COMMANDS:
            assert name in out

    def test_default_paths_fall_back_sensibly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert devtools_cli.default_lint_paths() == ["."]
        (tmp_path / "src").mkdir()
        assert devtools_cli.default_lint_paths() == ["src"]
