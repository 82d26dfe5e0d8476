"""Set-associative placement of a cache level's own arrays.

:class:`PrivateCache` keeps, per set, an ``addr -> way`` map and the
resident address of each way; these tests pin the placement rules on it.
"""

import pytest

from repro.cache.private_cache import PrivateCache


@pytest.fixture
def cache():
    return PrivateCache(8, 2, "L1")  # 4 sets x 2 ways


class TestGeometry:
    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            PrivateCache(6, 2)

    def test_rejects_bad_assoc(self):
        with pytest.raises(ValueError):
            PrivateCache(8, 0)

    def test_set_of_uses_low_bits(self, cache):
        # 1, 5 and 9 share set 1 (low two bits): the third evicts the first
        for a in (1, 5):
            assert cache.fill(a, False) is None
        assert cache.fill(2, False) is None  # set 2 is untouched by set 1
        assert cache.fill(9, False) == (1, False)


class TestPlacement:
    def test_install_and_find(self, cache):
        cache.fill(0x41, False)
        assert cache.probe(0x41) == 0
        assert cache.lookup(0x41) == 0

    def test_miss(self, cache):
        assert cache.probe(0x100) is None

    def test_free_way_tracking(self, cache):
        cache.fill(2, False)
        cache.fill(6, False)
        assert (cache.probe(2), cache.probe(6)) == (0, 1)

    def test_evict_returns_address(self, cache):
        cache.fill(0, False)
        cache.fill(4, True)
        assert cache.invalidate(4) == (True, True)
        assert cache.probe(4) is None
        assert cache.fill(8, False) is None  # the freed way takes it
        assert cache.probe(8) == 1

    def test_replace_swaps_the_line_in_place(self, cache):
        cache.fill(0, False)
        cache.fill(4, False)
        cache.lookup(0)
        assert cache.fill(12, False) == (4, False)
        assert cache.probe(4) is None
        assert cache.probe(12) == 1

    def test_occupancy_and_residents(self, cache):
        addrs = [0, 4, 1, 5]
        for a in addrs:
            cache.fill(a, False)
        assert sorted(cache.resident_addrs()) == sorted(addrs)
