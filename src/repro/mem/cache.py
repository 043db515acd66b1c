"""Generic set-associative write-back cache with LRU replacement.

Used three ways in the system:

* as the L1/L2/L3 data caches (tracking only presence + dirtiness, since
  user data values live in the reference model / NVM),
* as the base of the metadata cache in the memory controller,
* as the small record-line cache in Steins' ADR domain.

Python dicts preserve insertion order, so each set is a dict whose
insertion order *is* the LRU order — re-inserting on access keeps the
hot path allocation-free.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class CacheSnapshot:
    """A cache's lines and counters, compact and detached from it.

    Only the non-empty sets are kept, so restoring costs O(resident
    lines), not O(sets).
    """

    #: index of every non-empty set, and its line count
    set_index: array
    set_size: array
    #: the lines of those sets, set by set, LRU first, and their dirty bits
    keys: array
    dirty: array
    #: (hits, misses, evictions, dirty_evictions)
    stats: tuple[int, int, int, int]

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class Eviction:
    """A victim pushed out by an insertion."""

    key: int
    dirty: bool


class SetAssocCache:
    """Set-associative LRU cache mapping integer keys to dirty flags.

    Keys are line addresses (or node ids); the set index is derived from
    the key modulo the set count, matching a physically indexed cache.
    """

    def __init__(self, cfg: CacheConfig) -> None:
        if cfg.num_sets <= 0:
            raise ConfigError("cache must have at least one set")
        self.cfg = cfg
        self.num_sets = cfg.num_sets
        self.ways = cfg.ways
        self._sets: list[dict[int, bool]] = [dict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # ----------------------------------------------------------- lookup
    def set_index(self, key: int) -> int:
        return key % self.num_sets

    def contains(self, key: int) -> bool:
        return key in self._sets[key % self.num_sets]

    def is_dirty(self, key: int) -> bool:
        s = self._sets[key % self.num_sets]
        return s.get(key, False)

    # ----------------------------------------------------------- access
    def access(self, key: int, make_dirty: bool) -> tuple[bool, Eviction | None]:
        """Touch ``key``; insert on miss.

        Returns ``(hit, eviction)``.  ``eviction`` is the LRU victim when
        the set was full, else ``None``.  On a hit the line is moved to
        MRU and its dirty flag ORed with ``make_dirty``.
        """
        s = self._sets[key % self.num_sets]
        try:
            dirty = s.pop(key)
        except KeyError:
            pass
        else:
            s[key] = dirty or make_dirty
            self.stats.hits += 1
            return True, None
        self.stats.misses += 1
        victim: Eviction | None = None
        if len(s) >= self.ways:
            vkey = next(iter(s))
            vdirty = s.pop(vkey)
            victim = Eviction(vkey, vdirty)
            self.stats.evictions += 1
            if vdirty:
                self.stats.dirty_evictions += 1
        s[key] = make_dirty
        return False, victim

    def touch(self, key: int) -> bool:
        """Move ``key`` to MRU without inserting.  Returns presence."""
        s = self._sets[key % self.num_sets]
        if key not in s:
            return False
        s[key] = s.pop(key)
        return True

    def mark_clean(self, key: int) -> None:
        s = self._sets[key % self.num_sets]
        if key in s:
            # preserve LRU position: plain assignment, no pop/re-insert
            s[key] = False

    def mark_dirty(self, key: int) -> None:
        s = self._sets[key % self.num_sets]
        if key in s:
            s[key] = True

    def invalidate(self, key: int) -> bool:
        """Drop ``key`` (no writeback).  Returns True if it was present."""
        s = self._sets[key % self.num_sets]
        return s.pop(key, None) is not None

    # --------------------------------------------------------- contents
    def keys(self) -> Iterator[int]:
        for s in self._sets:
            yield from s

    def dirty_keys(self) -> Iterator[int]:
        for s in self._sets:
            for key, dirty in s.items():
                if dirty:
                    yield key

    def set_contents(self, set_idx: int) -> dict[int, bool]:
        """Copy of one set's {key: dirty} map (STAR's set-MAC needs it)."""
        return dict(self._sets[set_idx])

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def snapshot(self) -> CacheSnapshot:
        """Every resident line in LRU order, plus the counters."""
        index, size = array("q"), array("q")
        keys, dirty = array("q"), array("b")
        for idx, s in enumerate(self._sets):
            if s:
                index.append(idx)
                size.append(len(s))
                keys.extend(s)
                dirty.extend(s.values())
        st = self.stats
        return CacheSnapshot(index, size, keys, dirty,
                             (st.hits, st.misses, st.evictions,
                              st.dirty_evictions))

    def restore(self, snap: CacheSnapshot) -> None:
        """Load ``snap`` into this cache, which must be empty."""
        sets, keys, dirty = self._sets, snap.keys, snap.dirty
        pos = 0
        for idx, n in zip(snap.set_index, snap.set_size):
            end = pos + n
            sets[idx] = dict(zip(keys[pos:end], map(bool, dirty[pos:end])))
            pos = end
        st = self.stats
        st.hits, st.misses, st.evictions, st.dirty_evictions = snap.stats

    def clear(self) -> None:
        """Drop all contents (a crash wiping a volatile cache)."""
        for s in self._sets:
            s.clear()
