"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import _jsonable, build_run_parser, main
from repro.experiments import registry


class TestParser:
    def test_defaults(self):
        args = build_run_parser().parse_args(["fig5"])
        assert args.experiments == ["fig5"]
        assert args.workloads > 0 and args.refs > 0

    def test_overrides(self):
        args = build_run_parser().parse_args(
            ["table6", "--workloads", "2", "--refs", "999", "--seed", "3"]
        )
        assert (args.workloads, args.refs, args.seed) == (2, 999, 3)


class TestMain:
    def test_unknown_command_prints_command_groups(self, capsys):
        assert main(["list"]) == 2
        err = capsys.readouterr().err
        assert "unknown command 'list'" in err
        for command in ("run", "list-experiments", "serve", "lint", "obs",
                        "perf", "cluster"):
            assert command in err

    def test_help_prints_command_groups(self, capsys):
        assert main(["--help"]) == 0
        assert "list-experiments" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit, match="unknown experiment 'fig99'"):
            main(["run", "fig99", "--no-cache"])

    def test_registry_covers_every_paper_artifact(self):
        paper_artifacts = {
            "fig1a", "fig1b", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "table2", "table3", "table5",
            "table6", "bandwidth",
        }
        assert paper_artifacts <= set(registry.names())
        extensions = {"zoo", "energy", "traffic", "opt", "prefetch", "robustness", "mlp"}
        assert extensions <= set(registry.names())
        ablations = {"ablation-tag", "ablation-data", "ablation-alloc",
                     "ablation-threshold"}
        assert ablations <= set(registry.names())

    @pytest.mark.parametrize("value, message", [
        ("-3", "REPRO_PARALLEL must be >= 0, got '-3'"),
        ("abc", "REPRO_PARALLEL must be an integer, got 'abc'"),
    ])
    def test_bad_repro_parallel_is_one_error_line(
        self, value, message, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PARALLEL", value)
        with pytest.raises(SystemExit) as exc:
            main(["run", "table2", "--no-cache"])
        assert str(exc.value) == message

    def test_run_analytic_experiment(self, capsys):
        assert main(["run", "table2", "--no-cache"]) == 0
        assert "69888" in capsys.readouterr().out.replace(" ", "")

    @pytest.mark.parametrize("name", ["fig6", "table6"])
    def test_run_simulation_experiment(self, name, capsys):
        argv = ["run", name, "--workloads", "1", "--refs", "1200", "--no-cache"]
        assert main(argv) == 0
        assert "[cells: " in capsys.readouterr().out

    def test_out_capture(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["run", "table3", "--no-cache", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "RC-8/4" in out.read_text()
        assert "RC-8/4" in captured  # still printed to the console

    def test_json_export(self, tmp_path, capsys):
        out = tmp_path / "t2.json"
        assert main(["run", "table2", "--no-cache", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "table2" in data
        assert data["table2"]["conv-8MB"]["tag_entry_bits"] == 34


class TestJsonable:
    def test_primitives_and_containers(self):
        assert _jsonable({"a": (1, 2.5, None, True)}) == {"a": [1, 2.5, None, True]}

    def test_numpy_arrays(self):
        import numpy as np

        assert _jsonable(np.arange(3)) == [0, 1, 2]

    def test_dataclasses(self):
        from repro.core.latency_model import LatencyComparison

        d = _jsonable(LatencyComparison("x", 0.1, -0.2, 0.0))
        assert d == {"label": "x", "tag_delta": 0.1, "data_delta": -0.2,
                     "total_delta": 0.0}

    def test_fallback_to_str(self):
        class Odd:
            def __repr__(self):
                return "odd!"

        assert isinstance(_jsonable(Odd()), str)
