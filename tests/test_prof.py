"""Tests for repro.obs.prof: the sanctioned clocks, resource snapshots and
phase timers (identical runs → identical phase trees)."""

import sys

import pytest

from repro.obs import Observability
from repro.obs.prof import (
    NULL_PHASE_TIMER,
    PhaseTimer,
    clock,
    cpu_clock,
    peak_rss_kb,
    phase_shape,
    process_resources,
)


# -- clocks and resources ----------------------------------------------------


class TestClocks:
    def test_clock_is_monotonic(self):
        a = clock()
        b = clock()
        assert b >= a

    def test_cpu_clock_advances_under_work(self):
        start = cpu_clock()
        sum(i * i for i in range(200_000))
        assert cpu_clock() > start

    def test_peak_rss_positive_on_posix(self):
        if sys.platform.startswith(("linux", "darwin")):
            assert peak_rss_kb() > 0
        else:
            assert peak_rss_kb() >= 0

    def test_process_resources_shape(self):
        snap = process_resources()
        assert set(snap) == {"cpu_s", "peak_rss_kb"}
        assert snap["cpu_s"] >= 0.0


# -- phase timers ------------------------------------------------------------


class TestPhaseTimer:
    def test_records_count_and_seconds(self):
        prof = PhaseTimer()
        for _ in range(3):
            with prof.phase("work"):
                pass
        table = prof.table()
        assert table["work"]["count"] == 3
        assert table["work"]["seconds"] >= 0.0

    def test_nesting_builds_slash_paths(self):
        prof = PhaseTimer()
        with prof.phase("cell"):
            with prof.phase("build"):
                pass
            with prof.phase("simulate"):
                with prof.phase("warmup"):
                    pass
        assert set(prof.table()) == {
            "cell", "cell/build", "cell/simulate", "cell/simulate/warmup",
        }

    def test_tree_view(self):
        prof = PhaseTimer()
        with prof.phase("a"):
            with prof.phase("b"):
                pass
            with prof.phase("b"):
                pass
        tree = prof.tree()
        assert tree["a"]["count"] == 1
        assert tree["a"]["children"]["b"]["count"] == 2

    def test_phase_shape_strips_seconds(self):
        prof = PhaseTimer()
        with prof.phase("a"):
            with prof.phase("b"):
                pass
        shape = phase_shape(prof.tree())
        assert shape == {
            "a": {"count": 1, "children": {"b": {"count": 1, "children": {}}}}
        }

    def test_disabled_timer_is_noop(self):
        with NULL_PHASE_TIMER.phase("anything"):
            pass
        assert NULL_PHASE_TIMER.table() == {}

    def test_registry_receives_histogram(self):
        obs = Observability.enabled(profile=True)
        with obs.prof.phase("tag_lookup"):
            pass
        snap = obs.registry.snapshot()
        family = snap["repro_phase_seconds"]
        (series,) = family["series"]
        assert series["labels"] == {"phase": "tag_lookup"}
        assert series["count"] == 1

    def test_clear_requires_closed_phases(self):
        prof = PhaseTimer()
        ctx = prof.phase("open")
        ctx.__enter__()
        with pytest.raises(RuntimeError, match="phases still open"):
            prof.clear()
        ctx.__exit__(None, None, None)
        prof.clear()
        assert prof.table() == {}

    def test_exception_still_records_and_unwinds(self):
        prof = PhaseTimer()
        with pytest.raises(ValueError):
            with prof.phase("outer"):
                with prof.phase("inner"):
                    raise ValueError("boom")
        assert prof.table()["outer/inner"]["count"] == 1
        # the stack fully unwound: a new phase lands at the root again
        with prof.phase("after"):
            pass
        assert "after" in prof.table()
