"""Three-level CPU cache hierarchy.

The hierarchy filters a workload's memory-access stream down to the LLC
miss/writeback stream that hits the memory controller — the only part of
the pipeline where the compared schemes differ.  Inclusive, write-back,
write-allocate at every level, mirroring the paper's Table I structure.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.config import HierarchyConfig
from repro.mem.cache import CacheSnapshot, SetAssocCache


class MemOp(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, slots=True)
class MemoryRequest:
    """A request the hierarchy forwards to the memory controller."""

    op: MemOp
    line_addr: int


@dataclass(slots=True)
class HierarchyResult:
    """Outcome of one CPU access.

    Results for request-free accesses (the common cache-hit case) are
    shared singletons: treat every result as read-only.
    """

    #: core cycles spent in the hierarchy (hit level latency)
    cycles: int
    #: requests for the memory controller, in issue order: writebacks of
    #: evicted dirty lines first, then the demand fill (if LLC missed)
    requests: list[MemoryRequest]


class CacheHierarchy:
    """L1 -> L2 -> L3 with inclusive fills and dirty writeback chains."""

    def __init__(self, cfg: HierarchyConfig) -> None:
        self.cfg = cfg
        self.l1 = SetAssocCache(cfg.l1)
        self.l2 = SetAssocCache(cfg.l2)
        self.l3 = SetAssocCache(cfg.l3)
        # Preallocated request-free results: most accesses hit a cache
        # level and evict nothing, so the hot path allocates nothing.
        self._hit = (HierarchyResult(cfg.l1_hit_cycles, []),
                     HierarchyResult(cfg.l2_hit_cycles, []),
                     HierarchyResult(cfg.l3_hit_cycles, []))

    def access(self, line_addr: int, is_write: bool) -> HierarchyResult:
        """Run one CPU load/store through the hierarchy."""
        requests: list[MemoryRequest] | None = None

        hit1, ev1 = self.l1.access(line_addr, is_write)
        if ev1 is not None and ev1.dirty:
            # Dirty L1 victim is absorbed by L2 (write-back, inclusive).
            requests = []
            self._writeback(self.l2, ev1.key, requests, self.l3)
        if hit1:
            if requests is None:
                return self._hit[0]
            return HierarchyResult(self.cfg.l1_hit_cycles, requests)

        hit2, ev2 = self.l2.access(line_addr, False)
        if ev2 is not None:
            # Inclusion: an L2 victim must leave L1 too; its L2 dirtiness
            # goes down to L3.  Known bug, kept because fixing it changes
            # simulated behaviour: dirtiness held only in L1 is dropped
            # here (tests/test_hierarchy.py pins both cases as xfails).
            self.l1.invalidate(ev2.key)
            if ev2.dirty:
                if requests is None:
                    requests = []
                self._writeback(self.l3, ev2.key, requests, None)
        if hit2:
            if requests is None:
                return self._hit[1]
            return HierarchyResult(self.cfg.l2_hit_cycles, requests)

        hit3, ev3 = self.l3.access(line_addr, False)
        if ev3 is not None:
            # Same known bug: dirtiness held only in L1/L2 is dropped.
            self.l1.invalidate(ev3.key)
            self.l2.invalidate(ev3.key)
            if ev3.dirty:
                if requests is None:
                    requests = []
                requests.append(MemoryRequest(MemOp.WRITE, ev3.key))
        if hit3:
            if requests is None:
                return self._hit[2]
            return HierarchyResult(self.cfg.l3_hit_cycles, requests)

        # LLC miss: demand-fill from memory.
        if requests is None:
            requests = [MemoryRequest(MemOp.READ, line_addr)]
        else:
            requests.append(MemoryRequest(MemOp.READ, line_addr))
        return HierarchyResult(self.cfg.l3_hit_cycles, requests)

    def _writeback(self, lower: "object", key: int,
                   requests: list[MemoryRequest],
                   lowest: "object | None") -> None:
        """Install a dirty victim one level down, cascading dirtiness."""
        hit, ev = lower.access(key, True)  # type: ignore[attr-defined]
        if ev is not None and ev.dirty:
            if lowest is not None:
                self._writeback(lowest, ev.key, requests, None)
            else:
                requests.append(MemoryRequest(MemOp.WRITE, ev.key))

    def clwb(self, line_addr: int) -> bool:
        """Cache-line write-back: clear the line's dirty state everywhere.

        Models the ``clwb`` instruction persistent-memory code issues
        after every store; the caller is responsible for pushing the
        value to the memory controller.  Returns True if the line was
        dirty anywhere.
        """
        was_dirty = (self.l1.is_dirty(line_addr) or self.l2.is_dirty(line_addr)
                     or self.l3.is_dirty(line_addr))
        self.l1.mark_clean(line_addr)
        self.l2.mark_clean(line_addr)
        self.l3.mark_clean(line_addr)
        return was_dirty

    # ------------------------------------------------------------ state
    def is_empty(self) -> bool:
        return not (len(self.l1) or len(self.l2) or len(self.l3))

    def snapshot(self) -> tuple[CacheSnapshot, ...]:
        """The L1/L2/L3 contents and counters (see :meth:`restore`)."""
        return (self.l1.snapshot(), self.l2.snapshot(), self.l3.snapshot())

    def restore(self, snaps: tuple[CacheSnapshot, ...]) -> None:
        """Load a :meth:`snapshot` into this hierarchy, which must be
        empty."""
        for cache, snap in zip((self.l1, self.l2, self.l3), snaps):
            cache.restore(snap)

    # ------------------------------------------------------------ crash
    def flush_dirty(self) -> list[int]:
        """All dirty line addresses across levels (for graceful shutdown)."""
        dirty = set(self.l1.dirty_keys())
        dirty.update(self.l2.dirty_keys())
        dirty.update(self.l3.dirty_keys())
        return sorted(dirty)

    def clear(self) -> None:
        """Volatile caches lose everything on a crash."""
        self.l1.clear()
        self.l2.clear()
        self.l3.clear()
