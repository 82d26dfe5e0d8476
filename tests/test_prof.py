"""Tests for repro.obs.prof: the sanctioned clocks and resource snapshots."""

import sys

from repro.obs.prof import clock, cpu_clock, peak_rss_kb, process_resources


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

