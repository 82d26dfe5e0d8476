"""The reuse directory: decoupled tag and data arrays with selective allocation.

This is the paper's mechanism (Section 3) stripped of everything a cache
line or a stored value carries around it.  One class serves both the
simulator's SLLC (:class:`repro.core.reuse_cache.ReuseCache`, keys are
bank-local line addresses) and the service's object cache
(:class:`repro.service.store.ReuseStore`, keys are strings).

* The **tag array** is set-associative.  Per way it holds the key, the
  state (``TO``, or ``S``/``M`` with a data entry), a saturating reuse count
  and the forward pointer (the data way, or -1); :attr:`index` maps a key
  to its ``(set, way)``.
* The **data array** has ``data_sets`` sets, a power of two no larger than
  the tag set count, so a tag set's data set is its low bits.  Per way it
  holds the reverse pointer ``(tag set, tag way)`` and the key.

The transitions are :meth:`alloc_tag` (I → TO, with TagRepl when the set
is full), :meth:`note_reuse` (a hit on a TO tag), :meth:`alloc_data`
(TO → S, with DataRepl when the data set is full) and :meth:`drop_tag`.
Both arrays take the lowest free way, and pick victims with replacement
policies built by :func:`repro.replacement.make_policy`.

What differs between the adapters stays in the adapters:

* the **set index**: the caller computes the tag set and passes it in;
* the **tag-victim candidates**: the ``tag_candidates(set_idx)`` callable
  passed to :meth:`alloc_tag` names the preferred victims; when it names
  none, every way is a candidate;
* the **reuse count on DataRepl**: the directory keeps it (the demoted tag
  keeps its history); the simulator restarts it itself.

Transitions return what they evicted and leave the side effects (dirty
writebacks, coherence, byte accounting, listeners) to the caller.  There
is no locking: the service store that owns a directory is owned in turn by
the server's event-loop thread, and neither is thread-safe.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..replacement import make_policy
from ..utils import require_power_of_two

#: tag states; ``S`` and ``M`` both hold a data entry, and only the
#: simulator sets ``M`` (the line is dirty somewhere in the hierarchy)
INV, TO, S, M = 0, 1, 2, 3

#: reuse counts saturate here, well above any sensible threshold
MAX_COUNT = 63


class ReuseDirectory:
    """Tag and data arrays linked by forward and reverse pointers."""

    def __init__(
        self,
        tag_sets: int,
        tag_assoc: int,
        data_sets: int,
        data_assoc: int,
        tag_policy: str,
        data_policy: str,
        rng,
    ):
        require_power_of_two(data_sets, "data_sets")
        if data_sets > tag_sets:
            raise ValueError(
                "data array cannot have more sets than the tag array "
                f"({data_sets} > {tag_sets}); raise data associativity"
            )
        self.tag_sets = tag_sets
        self.tag_assoc = tag_assoc
        self.data_sets = data_sets
        self.data_assoc = data_assoc
        self._dmask = data_sets - 1

        #: key -> (tag set, tag way)
        self.index = {}
        self.keys = [[None] * tag_assoc for _ in range(tag_sets)]
        self.state = [[INV] * tag_assoc for _ in range(tag_sets)]
        #: reuses noted while tag-only (saturating at MAX_COUNT)
        self.count = [[0] * tag_assoc for _ in range(tag_sets)]
        self.fwd = [[-1] * tag_assoc for _ in range(tag_sets)]
        self.rev = [[None] * data_assoc for _ in range(data_sets)]
        self.data_keys = [[None] * data_assoc for _ in range(data_sets)]
        # free ways per set, as min-heaps: the lowest free way goes first
        self._free_tags = [list(range(tag_assoc)) for _ in range(tag_sets)]
        self._free_data = [list(range(data_assoc)) for _ in range(data_sets)]
        self._all_tag_ways = list(range(tag_assoc))
        self._all_data_ways = list(range(data_assoc))

        self.tag_repl = make_policy(tag_policy, tag_sets, tag_assoc, rng=rng)
        self.data_repl = make_policy(data_policy, data_sets, data_assoc, rng=rng)

    # -- transitions ------------------------------------------------------------

    def alloc_tag(self, key, set_idx: int, tag_candidates, thread: int = 0):
        """I → TO: give ``key`` a tag in ``set_idx``.

        A full set first evicts a tag victim (TagRepl) among the ways
        ``tag_candidates(set_idx)`` names (every way when it names none),
        freeing the victim's data entry too.  Returns ``(way, victim,
        victim_dway)``: the evicted key (None when a way was free) and the
        data way it held (-1 if none).  The callable is an argument, not an
        attribute, so the directory holds no reference back to its adapter
        and a dropped cache is freed without waiting for the cycle collector.
        """
        free = self._free_tags[set_idx]
        if free:
            way = heappop(free)
            victim, victim_dway = None, -1
        else:
            way = self.tag_repl.victim(
                set_idx, tag_candidates(set_idx) or self._all_tag_ways
            )
            victim = self.keys[set_idx][way]
            victim_dway = self.fwd[set_idx][way]
            self._clear_tag(set_idx, way)
        self.keys[set_idx][way] = key
        self.state[set_idx][way] = TO
        self.count[set_idx][way] = 0
        self.index[key] = (set_idx, way)
        self.tag_repl.on_fill(set_idx, way, thread)
        return way, victim, victim_dway

    def note_reuse(self, set_idx: int, way: int, thread: int = 0) -> int:
        """A hit on a TO tag: count the reuse; returns the new count."""
        self.tag_repl.on_hit(set_idx, way, thread)
        counts = self.count[set_idx]
        if counts[way] < MAX_COUNT:
            counts[way] += 1
        return counts[way]

    def hit(self, set_idx: int, way: int, thread: int = 0) -> None:
        """A hit on a tag with data: both entries were just used."""
        self.tag_repl.on_hit(set_idx, way, thread)
        self.data_repl.on_hit(set_idx & self._dmask, self.fwd[set_idx][way], thread)

    def alloc_data(self, set_idx: int, way: int):
        """TO → S: give the tag at ``(set_idx, way)`` a data entry.

        A full data set first evicts a data victim (DataRepl), demoting its
        tag to TO with its reuse count kept.  Returns ``(dway, victim)``:
        the data way and the demoted key (None when a way was free).
        """
        dset = set_idx & self._dmask
        free = self._free_data[dset]
        if free:
            dway = heappop(free)
            victim = None
        else:
            dway = self.data_repl.victim(dset, self._all_data_ways)
            victim = self.data_keys[dset][dway]
            tset, tway = self.rev[dset][dway]
            self.state[tset][tway] = TO
            self.fwd[tset][tway] = -1
            self.data_repl.on_invalidate(dset, dway)
        self.rev[dset][dway] = (set_idx, way)
        self.data_keys[dset][dway] = self.keys[set_idx][way]
        self.fwd[set_idx][way] = dway
        self.state[set_idx][way] = S
        self.data_repl.on_fill(dset, dway)
        return dway, victim

    def drop_tag(self, set_idx: int, way: int) -> int:
        """Free a tag and its data entry; returns the data way or -1."""
        dway = self.fwd[set_idx][way]
        self._clear_tag(set_idx, way)
        heappush(self._free_tags[set_idx], way)
        return dway

    def clear(self) -> None:
        """Drop every entry."""
        for set_idx, way in list(self.index.values()):
            self.drop_tag(set_idx, way)

    def _clear_tag(self, set_idx: int, way: int) -> None:
        dway = self.fwd[set_idx][way]
        if dway >= 0:
            dset = set_idx & self._dmask
            self.rev[dset][dway] = None
            self.data_keys[dset][dway] = None
            self.data_repl.on_invalidate(dset, dway)
            heappush(self._free_data[dset], dway)
        del self.index[self.keys[set_idx][way]]
        self.keys[set_idx][way] = None
        self.state[set_idx][way] = INV
        self.fwd[set_idx][way] = -1
        self.count[set_idx][way] = 0
        self.tag_repl.on_invalidate(set_idx, way)

    # -- introspection ------------------------------------------------------------

    def data_entries(self) -> int:
        """Number of data ways in use."""
        return self.data_sets * self.data_assoc - sum(map(len, self._free_data))

    def check_pointer_consistency(self) -> bool:
        """Invariant (tests): keys, index, pointers and free ways agree.

        Every indexed key sits in its way; a TO tag has no data entry and an
        S/M tag's data entry points back at it; a way is free iff empty."""
        used = {}  # (data set, data way) -> (key, tag (set, way))
        for key, (tset, tway) in self.index.items():
            state, fwd = self.state[tset][tway], self.fwd[tset][tway]
            if self.keys[tset][tway] != key or state == INV or (state == TO) != (fwd == -1):
                return False
            if fwd != -1:
                used[tset & self._dmask, fwd] = (key, (tset, tway))
        for tset, keys in enumerate(self.keys):
            empty = [w for w, key in enumerate(keys) if key is None]
            if sorted(self._free_tags[tset]) != empty or any(
                self.state[tset][w] != INV or self.fwd[tset][w] != -1 for w in empty
            ):
                return False
        if len(self.index) != self.tag_sets * self.tag_assoc - sum(map(len, self._free_tags)):
            return False
        if len(used) != self.data_entries():
            return False
        for dset, rev in enumerate(self.rev):
            for dway, tag in enumerate(rev):
                if used.get((dset, dway), (None, None)) != (self.data_keys[dset][dway], tag):
                    return False
            if sorted(self._free_data[dset]) != [w for w, tag in enumerate(rev) if tag is None]:
                return False
        return True
