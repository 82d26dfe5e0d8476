"""Tests for the experiment registry and the ``repro run`` front door."""

import json

import pytest

from repro.__main__ import main
from repro.experiments import registry
from repro.experiments.common import ExperimentParams
from repro.runner import ResultCache, Runner, cell_key

TINY = ["--workloads", "1", "--refs", "1200"]


class TestRegistry:
    def test_every_experiment_enumerable(self):
        names = registry.names()
        assert len(names) == len(set(names)) >= 26
        for name in names:
            spec = registry.get(name)
            assert spec.name == name
            assert spec.title
            assert callable(spec.run) and callable(spec.format)

    def test_all_specs_preserves_order(self):
        assert tuple(s.name for s in registry.all_specs()) == registry.names()

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(KeyError, match="fig7"):
            registry.get("fig99")

    def test_duplicate_registration_rejected(self):
        spec = registry.get("fig7")
        with pytest.raises(ValueError, match="twice"):
            registry.register(spec)

    def test_analytical_spec_executes_without_params(self):
        result = registry.get("table2").execute()
        assert "conv-8MB" in result

    def test_ablation_formatters_are_distinct(self):
        result = {"a": 1.0}
        texts = {
            name: registry.get(name).format(result)
            for name in ("ablation-tag", "ablation-data", "ablation-alloc",
                         "ablation-threshold")
        }
        assert len(set(texts.values())) == 4

    def test_cell_enumerator_matches_driver(self, tmp_path):
        # the fig7 plan preview must enumerate exactly the cells the
        # driver executes — including the record_generations flag
        params = ExperimentParams(n_workloads=1, n_refs=1200)
        spec = registry.get("fig7")
        runner = Runner(cache=ResultCache(tmp_path))
        spec.execute(params, runner=runner)
        cells = spec.cells(params)
        assert len(cells) == runner.stats.total
        assert all(
            runner.cache.contains(cell_key(c, runner._fingerprint))
            for c in cells
        )


class TestRunCLI:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out

    def test_run_round_trips_a_registered_spec(self, capsys):
        assert main(["run", "table3", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "[cells:" in out

    def test_run_unknown_name_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig99", "--no-cache"])

    def test_run_simulation_with_cache(self, tmp_path, capsys):
        argv = ["run", "fig1a", *TINY, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "3 run, 0 cached" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 run, 3 cached" in second

    def test_stats_json_and_json_export(self, tmp_path, capsys):
        stats_file = tmp_path / "stats.json"
        json_file = tmp_path / "result.json"
        assert main([
            "run", "fig1a", *TINY, "--cache-dir", str(tmp_path / "cache"),
            "--stats-json", str(stats_file), "--json", str(json_file),
        ]) == 0
        capsys.readouterr()
        stats = json.loads(stats_file.read_text())
        assert stats["run"] == 3 and stats["cached"] == 0
        assert stats["hit_rate"] == 0.0
        assert "fig1a" in json.loads(json_file.read_text())

    def test_force_recomputes(self, tmp_path, capsys):
        argv = ["run", "fig1a", *TINY, "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--force"]) == 0
        assert "3 run, 0 cached" in capsys.readouterr().out

    def test_plan_reports_cache_state_without_running(self, tmp_path, capsys):
        plan = ["run", "fig7", *TINY, "--cache-dir", str(tmp_path), "--plan"]
        assert main(plan) == 0
        out = capsys.readouterr().out
        assert "8 cell(s), 0 already cached" in out
        assert main(["run", "fig7", *TINY, "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(plan) == 0
        assert "8 cell(s), 8 already cached" in capsys.readouterr().out

    def test_bare_experiment_name_is_an_unknown_command(self, capsys):
        assert main(["fig1a", *TINY]) == 2
        captured = capsys.readouterr()
        assert "unknown command 'fig1a'" in captured.err
        assert "run, list-experiments" in captured.err
        assert captured.out == ""


class TestFromEnvValidation:
    @pytest.mark.parametrize("var", ["REPRO_WORKLOADS", "REPRO_REFS",
                                     "REPRO_SCALE"])
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_zero_or_negative_rejected(self, monkeypatch, var, bad):
        monkeypatch.setenv(var, bad)
        with pytest.raises(ValueError, match=var):
            ExperimentParams.from_env()

    def test_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_REFS", "many")
        with pytest.raises(ValueError, match="REPRO_REFS"):
            ExperimentParams.from_env()

    def test_seed_may_be_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "0")
        assert ExperimentParams.from_env().seed == 0

    def test_valid_values_pass(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "2")
        monkeypatch.setenv("REPRO_REFS", "1500")
        p = ExperimentParams.from_env()
        assert (p.n_workloads, p.n_refs) == (2, 1500)
