"""Tests for the TO-MSI protocol table and the full-map directory."""

import random

import pytest

from repro.coherence import (
    Directory,
    Event,
    ProtocolError,
    State,
    apply,
    legal_events,
)


class TestStates:
    def test_data_grouping(self):
        assert State.S.has_data and State.M.has_data
        assert not State.TO.has_data and not State.I.has_data

    def test_tag_residency(self):
        assert State.TO.tag_resident
        assert not State.I.tag_resident


class TestProtocolTable:
    """The transitions of paper Fig. 3."""

    def test_first_access_allocates_tag_only(self):
        for event in (Event.GETS, Event.GETX):
            t = apply(State.I, event)
            assert t.next_state is State.TO
            assert not t.allocates_data

    def test_reuse_enters_data_array(self):
        t = apply(State.TO, Event.GETS)
        assert t.next_state is State.S and t.allocates_data
        t = apply(State.TO, Event.GETX)
        assert t.next_state is State.M and t.allocates_data

    def test_data_repl_demotes_to_tag_only(self):
        for state in (State.S, State.M):
            t = apply(state, Event.DATA_REPL)
            assert t.next_state is State.TO
            assert t.deallocates_data

    def test_dirty_data_repl_writes_back(self):
        assert apply(State.M, Event.DATA_REPL).writeback_to_memory
        assert not apply(State.S, Event.DATA_REPL).writeback_to_memory

    def test_putx_routing(self):
        # tag-only: the writeback is forwarded to memory
        assert apply(State.TO, Event.PUTX).writeback_to_memory
        # tag+data: absorbed by the data array
        t = apply(State.S, Event.PUTX)
        assert t.next_state is State.M and t.writeback_to_data_array
        assert not t.writeback_to_memory

    def test_tag_repl_always_ends_invalid(self):
        for state in (State.TO, State.S, State.M):
            assert apply(state, Event.TAG_REPL).next_state is State.I

    def test_upgrade_keeps_tag_only(self):
        t = apply(State.TO, Event.UPG)
        assert t.next_state is State.TO and not t.allocates_data

    def test_upgrade_promotes_shared(self):
        assert apply(State.S, Event.UPG).next_state is State.M

    def test_illegal_events_raise(self):
        with pytest.raises(ProtocolError):
            apply(State.I, Event.PUTS)
        with pytest.raises(ProtocolError):
            apply(State.TO, Event.DATA_REPL)

    def test_legal_events_cover_demands(self):
        for state in (State.TO, State.S, State.M):
            events = legal_events(state)
            assert Event.GETS in events and Event.GETX in events

    def test_no_transition_both_allocates_and_deallocates(self):
        for state in State:
            for event in Event:
                try:
                    t = apply(state, event)
                except ProtocolError:
                    continue
                assert not (t.allocates_data and t.deallocates_data)

    def test_data_states_closed_under_demands(self):
        """tag+data states only leave the data group via DataRepl/TagRepl."""
        for state in (State.S, State.M):
            for event in (Event.GETS, Event.GETX, Event.UPG, Event.PUTS, Event.PUTX):
                assert apply(state, event).next_state.has_data


class TestDirectory:
    def test_add_remove(self):
        d = Directory(2, 2, 4)
        d.add(0, 0, 2)
        assert d.is_present(0, 0, 2)
        assert d.sharers(0, 0) == [2]
        d.remove(0, 0, 2)
        assert d.vector(0, 0) == 0
        assert d.unshared_ways(0) == [0, 1]

    def test_set_only(self):
        d = Directory(1, 1, 8)
        for c in range(4):
            d.add(0, 0, c)
        d.set_only(0, 0, 5)
        assert d.sharers(0, 0) == [5]

    def test_others_excludes_requester(self):
        d = Directory(1, 1, 8)
        d.add(0, 0, 1)
        d.add(0, 0, 3)
        assert d.others(0, 0, 1) == [3]
        assert d.others(0, 0, 0) == [1, 3]

    def test_clear(self):
        d = Directory(1, 2, 8)
        d.add(0, 1, 7)
        d.clear(0, 1)
        assert d.vector(0, 1) == 0

    def test_rejects_bad_core_count(self):
        with pytest.raises(ValueError):
            Directory(1, 1, 0)

    @staticmethod
    def _check_mask(num_cores, mask):
        """The directory's answers for ``mask`` against the bit scan."""
        d = Directory(2, num_cores, num_cores)
        for c in range(num_cores):
            if mask >> c & 1:
                d.add(0, 0, c)
                d.add(1, c, c)  # in set 1, way c is held iff bit c is set
        scan = [c for c in range(num_cores) if mask >> c & 1]
        sharers = d.sharers(0, 0)
        assert type(sharers) is list and sharers == scan
        for core in range(num_cores):
            others = d.others(0, 0, core)
            assert type(others) is list
            assert others == [c for c in scan if c != core]
        unshared = d.unshared_ways(1)
        assert type(unshared) is list
        assert unshared == [w for w in range(num_cores) if not mask >> w & 1]

    def test_every_8_core_mask_matches_the_bit_scan(self):
        for mask in range(256):
            self._check_mask(8, mask)

    def test_16_core_masks_match_the_bit_scan(self):
        rng = random.Random(2013)
        for mask in [0, 0xFFFF] + [rng.randrange(1 << 16) for _ in range(300)]:
            self._check_mask(16, mask)
