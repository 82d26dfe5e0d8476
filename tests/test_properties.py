"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.conventional import ConventionalLLC
from repro.cache.private_cache import PrivateHierarchy
from repro.core.cost_model import conventional_cost, reuse_cache_cost
from repro.core.reuse_cache import ReuseCache
from repro.metrics.generations import GenerationRecorder
from repro.replacement import make_policy

# -- strategies ----------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.integers(0, 3),  # core
        st.integers(0, 63),  # line address
        st.booleans(),  # write?
        st.integers(0, 2),  # action selector
    ),
    min_size=1,
    max_size=400,
)


class _Mirror:
    """Reference model of private contents, driven like the System drives
    an SLLC, used to feed coherent PUT/inval sequences to the cache."""

    def __init__(self, cores=4):
        self.private = {c: set() for c in range(cores)}

    def apply_access(self, llc, core, addr, is_write, now):
        res = llc.access(addr, core, is_write, now)
        for victim in res.coherence_invals:
            self.private[victim].discard(addr)
        for victim, vaddr in res.inclusion_invals:
            self.private[victim].discard(vaddr)
        self.private[core].add(addr)
        return res

    def maybe_evict(self, llc, core, addr, dirty):
        if addr in self.private[core]:
            self.private[core].discard(addr)
            llc.notify_private_eviction(addr, core, dirty)


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_reuse_cache_pointer_bijection_holds(ops):
    """fwd/rev pointers stay a bijection and states stay consistent under
    arbitrary coherent traffic."""
    rc = ReuseCache(32, 4, 8, data_assoc=2, num_cores=4, rng=random.Random(0))
    mirror = _Mirror()
    for now, (core, addr, is_write, action) in enumerate(ops):
        if action < 2:
            mirror.apply_access(rc, core, addr, is_write, now)
        else:
            mirror.maybe_evict(rc, core, addr, is_write)
    assert rc.check_pointer_consistency()


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_reuse_cache_directory_matches_mirror(ops):
    rc = ReuseCache(64, 4, 16, num_cores=4, rng=random.Random(0))
    mirror = _Mirror()
    for now, (core, addr, is_write, action) in enumerate(ops):
        if action < 2:
            mirror.apply_access(rc, core, addr, is_write, now)
        else:
            mirror.maybe_evict(rc, core, addr, is_write)
    for addr, (set_idx, way) in rc.rdir.index.items():
        assert rc.directory.sharers(set_idx, way) == sorted(
            c for c, lines in mirror.private.items() if addr in lines
        )


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_conventional_inclusion_of_mirror(ops):
    """Every line the mirror says is private has an SLLC tag (inclusion)."""
    llc = ConventionalLLC(32, 4, num_cores=4, rng=random.Random(0))
    mirror = _Mirror()
    for now, (core, addr, is_write, action) in enumerate(ops):
        if action < 2:
            mirror.apply_access(llc, core, addr, is_write, now)
        else:
            mirror.maybe_evict(llc, core, addr, is_write)
    for lines in mirror.private.values():
        for addr in lines:
            assert llc.locate(addr)[1] is not None


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_reuse_cache_data_never_exceeds_capacity(ops):
    rc = ReuseCache(64, 4, 4, num_cores=4, rng=random.Random(0))
    mirror = _Mirror()
    for now, (core, addr, is_write, action) in enumerate(ops):
        if action < 2:
            mirror.apply_access(rc, core, addr, is_write, now)
        else:
            mirror.maybe_evict(rc, core, addr, is_write)
        assert rc.data_occupancy() <= 4


@settings(max_examples=50, deadline=None)
@given(
    addrs=st.lists(st.integers(0, 255), min_size=1, max_size=300),
    dirty=st.booleans(),
)
def test_private_hierarchy_inclusion_property(addrs, dirty):
    ph = PrivateHierarchy(4, 2, 16, 4)
    for a in addrs:
        level, _, _ = ph.access(a, dirty)
        if level == "miss":
            ph.fill(a, dirty)
        assert ph.check_inclusion()


@settings(max_examples=50, deadline=None)
@given(
    name=st.sampled_from(["lru", "nru", "nrr", "srrip", "brrip", "clock", "random"]),
    events=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()),
        max_size=200,
    ),
    candidates=st.sets(st.integers(0, 3), min_size=1, max_size=4),
)
def test_policies_always_return_a_candidate(name, events, candidates):
    """victim() always returns one of the eligible ways, whatever history."""
    policy = make_policy(name, 4, 4, rng=random.Random(0))
    for set_idx, way, hit in events:
        if hit:
            policy.on_hit(set_idx, way)
        else:
            policy.on_fill(set_idx, way)
    cand = sorted(candidates)
    assert policy.victim(2, cand) in cand


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 2), st.integers(1, 50)),
        min_size=1,
        max_size=200,
    )
)
def test_generation_recorder_conservation(events):
    """Total recorded hits equals hits fed for tracked generations, and
    every generation has fill <= last_hit <= evict."""
    rec = GenerationRecorder()
    rec.activate(0)
    now = 0
    live = set()
    fed_hits = 0
    for addr, action, dt in events:
        now += dt
        if action == 0 and addr not in live:
            rec.on_fill(addr, now)
            live.add(addr)
        elif action == 1 and addr in live:
            rec.on_hit(addr, now)
            fed_hits += 1
        elif action == 2 and addr in live:
            rec.on_evict(addr, now)
            live.discard(addr)
    log = rec.finalize(now + 1)
    assert log.hits.sum() == fed_hits
    assert (log.fills <= log.last_hits).all()
    assert (log.last_hits <= log.evicts).all()


@settings(max_examples=100, deadline=None)
@given(
    tag_mb=st.sampled_from([2, 4, 8, 16, 32]),
    ratio=st.sampled_from([2, 4, 8, 16]),
)
def test_reuse_cache_always_cheaper_than_conventional_tag_size(tag_mb, ratio):
    """A reuse cache is always cheaper than the conventional cache whose tag
    array it borrows (data array is >= 2x smaller)."""
    rc = reuse_cache_cost(tag_mb, tag_mb / ratio)
    conv = conventional_cost(tag_mb)
    assert rc.total_kbits < conv.total_kbits


@settings(max_examples=100, deadline=None)
@given(
    tag_mb=st.sampled_from([4, 8, 16]),
    data_mb=st.sampled_from([0.5, 1, 2, 4]),
    assoc=st.sampled_from([16, 32, 64, "full"]),
)
def test_cost_model_pointer_width_consistency(tag_mb, data_mb, assoc):
    """Pointer fields must be wide enough to address their targets."""
    if data_mb > tag_mb:
        return
    c = reuse_cache_cost(tag_mb, data_mb, data_assoc=assoc)
    data_entries = c.data_entries
    data_ways = data_entries if assoc == "full" else int(assoc)
    assert 2 ** c.fields["tag.fwd_pointer"] >= data_ways
    assert 2 ** c.fields["data.rev_pointer"] >= c.tag_entries // (
        data_entries // data_ways
    )
