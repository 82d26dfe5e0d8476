"""Tests for the generalized reuse-allocation threshold."""

import random

import pytest

from repro.coherence import State
from repro.core.reuse_cache import ReuseCache


def make(threshold, tag_lines=32, data_lines=8):
    return ReuseCache(
        tag_lines, 4, data_lines, num_cores=4,
        reuse_threshold=threshold, rng=random.Random(0),
    )


class TestThresholdZero:
    """threshold=0: a decoupled but *non-selective* cache."""

    def test_first_access_allocates_data(self):
        rc = make(0)
        rc.access(0x10, 0, False, 0)
        assert rc.state_of(0x10) is State.S
        assert rc.data_fills == 1

    def test_never_reloads(self):
        rc = make(0)
        for a in range(6):
            rc.access(a, 0, False, a)
            rc.notify_private_eviction(a, 0, False)
        for a in range(6):
            rc.access(a, 0, False, 10 + a)
        assert rc.reuse_reloads == 0

    def test_pointer_consistency(self):
        rc = make(0, data_lines=4)
        for a in range(12):
            rc.access(a, a % 4, False, a)
        assert rc.check_pointer_consistency()


class TestThresholdOne:
    """threshold=1 must be exactly the paper's design (regression guard)."""

    def test_second_access_allocates(self):
        rc = make(1)
        rc.access(0x10, 0, False, 0)
        assert rc.state_of(0x10) is State.TO
        rc.access(0x10, 1, False, 1)
        assert rc.state_of(0x10) is State.S

    def test_default_is_one(self):
        rc = ReuseCache(32, 4, 8, num_cores=4, rng=random.Random(0))
        assert rc.reuse_threshold == 1


class TestHigherThresholds:
    def test_threshold_two_needs_third_access(self):
        rc = make(2)
        rc.access(0x10, 0, False, 0)
        rc.notify_private_eviction(0x10, 0, False)
        res = rc.access(0x10, 0, False, 1)  # 1st reuse: still tag-only
        assert rc.state_of(0x10) is State.TO
        assert res.dram_reads == 1
        rc.notify_private_eviction(0x10, 0, False)
        rc.access(0x10, 0, False, 2)  # 2nd reuse: allocate
        assert rc.state_of(0x10) is State.S
        assert rc.data_fills == 1

    def test_deferred_reuse_still_counts_reloads(self):
        rc = make(2)
        rc.access(0x10, 0, False, 0)
        rc.notify_private_eviction(0x10, 0, False)
        rc.access(0x10, 0, False, 1)
        assert rc.reuse_reloads == 1  # re-fetched from memory, not allocated

    def test_deferred_reuse_serves_from_peer(self):
        rc = make(2)
        rc.access(0x10, 0, False, 0)  # core 0 keeps it privately
        res = rc.access(0x10, 1, False, 1)
        assert res.source == "peer"
        assert rc.state_of(0x10) is State.TO

    def test_write_during_deferral_keeps_coherence(self):
        rc = make(3)
        rc.access(0x10, 0, False, 0)
        res = rc.access(0x10, 1, True, 1)  # GETX while below threshold
        assert res.coherence_invals == (0,)
        assert rc.state_of(0x10) is State.TO

    def test_count_resets_after_demotion(self):
        rc = make(1, data_lines=1)
        for a in (0x10, 0x20):  # 0x20's allocation demotes 0x10
            rc.access(a, 0, False, 0)
            rc.notify_private_eviction(a, 0, False)
            rc.access(a, 0, False, 1)
            rc.notify_private_eviction(a, 0, False)
        assert rc.state_of(0x10) is State.TO
        rc.access(0x10, 0, False, 5)  # one reuse re-allocates (threshold 1)
        assert rc.state_of(0x10) is State.S

    def test_demoted_line_needs_fresh_reuses_at_threshold_two(self):
        """The simulator restarts the reuse count on DataRepl: at threshold
        2 a demoted line re-allocates only after two more reuses."""
        rc = make(2, data_lines=1)
        for a in (0x10, 0x20):  # 0x20's allocation demotes 0x10
            for t in range(3):
                rc.access(a, 0, False, t)
                rc.notify_private_eviction(a, 0, False)
            assert rc.state_of(a) is State.S
        assert rc.state_of(0x10) is State.TO
        rc.access(0x10, 0, False, 5)  # first fresh reuse: still tag-only
        rc.notify_private_eviction(0x10, 0, False)
        assert rc.state_of(0x10) is State.TO
        rc.access(0x10, 0, False, 6)  # second fresh reuse: allocates
        assert rc.state_of(0x10) is State.S

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make(-1)


class TestSpecPlumbing:
    def test_threshold_reaches_banks(self):
        from repro.hierarchy.config import LLCSpec, SystemConfig
        from repro.hierarchy.system import build_llc_banks

        cfg = SystemConfig(llc=LLCSpec.reuse(4, 1, reuse_threshold=2))
        banks = build_llc_banks(cfg)
        assert all(b.reuse_threshold == 2 for b in banks)

    def test_threshold_ablation_driver(self):
        from repro.experiments import ExperimentParams
        from repro.experiments.ablation import run_threshold_ablation

        r = run_threshold_ablation(ExperimentParams(n_workloads=1, n_refs=1500))
        assert set(r) == {"threshold=0", "threshold=1", "threshold=2", "threshold=3"}
