"""Tests for the generic TagStore."""

import pytest

from repro.cache.set_assoc import TagStore


@pytest.fixture
def store():
    return TagStore(num_sets=4, assoc=2)


class TestGeometry:
    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            TagStore(3, 2)

    def test_rejects_bad_assoc(self):
        with pytest.raises(ValueError):
            TagStore(4, 0)

    def test_set_of_uses_low_bits(self, store):
        assert store.set_of(0) == 0
        assert store.set_of(5) == 1
        assert store.set_of(7) == 3


class TestPlacement:
    def test_install_and_find(self, store):
        store.install(1, 0, 0x41)
        assert store.find(1, 0x41) == 0
        assert store.lookup(0x41) == (1, 0)

    def test_miss(self, store):
        assert store.find(0, 0x100) is None

    def test_free_way_tracking(self, store):
        assert store.free_way(2) == 0
        store.install(2, 0, 2)
        assert store.free_way(2) == 1
        store.install(2, 1, 6)
        assert store.free_way(2) is None

    def test_install_into_occupied_way_rejected(self, store):
        store.install(0, 0, 0)
        with pytest.raises(ValueError):
            store.install(0, 0, 4)

    def test_evict_returns_address(self, store):
        store.install(0, 1, 8)
        assert store.evict(0, 1) == 8
        assert store.find(0, 8) is None
        assert store.free_way(0) is not None

    def test_evict_empty_way_rejected(self, store):
        with pytest.raises(ValueError):
            store.evict(0, 0)

    def test_replace_swaps_the_line_in_place(self, store):
        store.install(0, 1, 8)
        assert store.replace(0, 1, 12) == 8
        assert store.find(0, 8) is None
        assert store.lookup(12) == (0, 1)

    def test_replace_in_empty_way_rejected(self, store):
        with pytest.raises(ValueError):
            store.replace(0, 0, 4)

    def test_valid_ways(self, store):
        assert store.valid_ways(3) == []
        store.install(3, 1, 3)
        assert store.valid_ways(3) == [1]

    def test_occupancy_and_residents(self, store):
        addrs = [0, 4, 1, 5]
        for a in addrs:
            s = store.set_of(a)
            store.install(s, store.free_way(s), a)
        assert store.occupancy() == 4
        assert sorted(store.resident_addrs()) == sorted(addrs)
