"""Filter once, simulate many: the scheme-independent half of a run.

Every scheme is judged on the identical LLC miss/writeback stream
(DESIGN.md §2).  Running a trace therefore splits into two phases:

* **filter** (:func:`filter_trace`) — the L1–L3 hierarchy and the
  reference value model turn CPU accesses into a :class:`RequestStream`:
  per request, the core cycles to advance before it, the op, the line,
  and the value written or the value a read must return.  Nothing here
  reads controller state.
* **drive** (:meth:`repro.sim.system.SecureNVMSystem.run_stream`) —
  only that stream is replayed against the controller.

Because the filter's output depends only on the trace, the hierarchy
configuration, ``flush_writes`` and the state it starts from, a run
from a pristine system (empty hierarchy, empty value model) is memoized
per process in :data:`FILTER_MEMO`: the other variants of a figure
replay the stored stream and restore the stored end state instead of
re-filtering.
"""
from __future__ import annotations

import hashlib
from array import array
from collections import OrderedDict
from dataclasses import dataclass

from repro.common.config import HierarchyConfig
from repro.common.rng import mix64
from repro.mem.cache import CacheSnapshot
from repro.mem.hierarchy import CacheHierarchy, MemOp


@dataclass(frozen=True)
class RequestStream:
    """The LLC request stream of one trace, in issue order."""

    #: core cycles to advance the clock by before each request
    cycles: array
    #: 1 for a write, 0 for a read
    ops: array
    lines: array
    #: the value a write stores, or the value a read must return
    values: array
    #: cycles left to advance after the last request
    tail_cycles: int
    #: CPU accesses the trace held
    accesses: int

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class FilterEnd:
    """Hierarchy and value-model state after filtering from pristine."""

    caches: tuple[CacheSnapshot, ...]
    #: ``current`` and ``_versions`` as (keys, values) in insertion order
    current: tuple[array, array]
    versions: tuple[array, array]

    @classmethod
    def capture(cls, hierarchy: CacheHierarchy, current: dict[int, int],
                versions: dict[int, int]) -> "FilterEnd":
        return cls(hierarchy.snapshot(),
                   (array("q", current), array("Q", current.values())),
                   (array("q", versions), array("q", versions.values())))

    def restore(self, hierarchy: CacheHierarchy, current: dict[int, int],
                versions: dict[int, int]) -> None:
        """Load this state into a pristine hierarchy and value model."""
        hierarchy.restore(self.caches)
        current.update(zip(*self.current))
        versions.update(zip(*self.versions))

    def __len__(self) -> int:
        return (sum(len(c) for c in self.caches) + len(self.current[0])
                + len(self.versions[0]))


def filter_trace(hierarchy: CacheHierarchy,
                 columns: tuple[list[bool], list[int], list[int]],
                 flush_writes: bool, current: dict[int, int],
                 versions: dict[int, int],
                 persisted: dict[int, int]) -> RequestStream:
    """Run a trace's columns through the hierarchy and the value model.

    Advances ``hierarchy``, ``current``, ``versions`` and ``persisted``
    (the value model's view of NVM, which the caller owns) exactly as
    the per-access ``store``/``load`` path would.  Cycle costs (compute
    gaps and hit latencies) accumulate until the next request; integer
    time makes the deferred sum equal to per-access advances.
    """
    is_write_col, address_col, gap_col = columns
    access = hierarchy.access
    clwb = hierarchy.clwb
    write = MemOp.WRITE
    cycles, ops, lines, values = (array("q"), array("b"), array("q"),
                                  array("Q"))
    put_cycles, put_op, put_line, put_value = (cycles.append, ops.append,
                                               lines.append, values.append)
    pending = 0
    for is_write, addr, gap in zip(is_write_col, address_col, gap_col):
        pending += gap
        if is_write:
            version = versions.get(addr, 0) + 1
            versions[addr] = version
            current[addr] = mix64(addr, version)
        result = access(addr, is_write)
        pending += result.cycles
        for request in result.requests:
            line = request.line_addr
            put_cycles(pending)
            pending = 0
            put_line(line)
            if request.op is write:
                value = current.get(line, 0)
                persisted[line] = value
                put_op(1)
            else:
                value = persisted.get(line, 0)
                # a fill makes the persisted value architecturally current
                current.setdefault(line, value)
                put_op(0)
            put_value(value)
        if is_write and flush_writes and clwb(addr):
            value = current[addr]
            persisted[addr] = value
            put_cycles(pending)
            pending = 0
            put_op(1)
            put_line(addr)
            put_value(value)
    return RequestStream(cycles, ops, lines, values, pending,
                         len(address_col))


def trace_digest(columns: tuple[list[bool], list[int], list[int]]) -> bytes:
    """sha256 over the three trace columns exactly as the filter reads
    them (content, not identity: callers regenerate traces)."""
    h = hashlib.sha256()
    for code, col in zip("bqq", columns):
        data = array(code, col).tobytes()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.digest()


MemoKey = tuple[bytes, HierarchyConfig, bool]


class FilterMemo:
    """Bounded LRU of filter results from pristine systems.

    An entry's size is its request count plus its end state's resident
    lines and value-model entries; the total never exceeds ``budget``,
    and an entry larger than the whole budget is not kept.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.size = 0
        self._entries: OrderedDict[
            MemoKey, tuple[RequestStream, FilterEnd]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: MemoKey) -> tuple[RequestStream, FilterEnd] | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: MemoKey, stream: RequestStream,
            end: FilterEnd) -> None:
        size = len(stream) + len(end)
        if size > self.budget:
            return
        while self.size + size > self.budget:
            _, (old_stream, old_end) = self._entries.popitem(last=False)
            self.size -= len(old_stream) + len(old_end)
        self._entries[key] = (stream, end)
        self.size += size

    def clear(self) -> None:
        self._entries.clear()
        self.size = 0


#: the per-process memo: 2^21 items (about 18 bytes each) hold 10-15
#: cells of 60k accesses on ``default_config()``
FILTER_MEMO = FilterMemo(1 << 21)


def filter_pristine(hierarchy: CacheHierarchy,
                    columns: tuple[list[bool], list[int], list[int]],
                    flush_writes: bool, current: dict[int, int],
                    versions: dict[int, int]) -> RequestStream:
    """:func:`filter_trace` from a pristine state, through the memo.

    The caller guarantees the hierarchy and the value model (including
    ``persisted``) are empty; the memo key then holds every other input
    the result depends on.
    """
    key = (trace_digest(columns), hierarchy.cfg, flush_writes)
    hit = FILTER_MEMO.get(key)
    if hit is not None:
        stream, end = hit
        end.restore(hierarchy, current, versions)
        return stream
    stream = filter_trace(hierarchy, columns, flush_writes, current,
                          versions, {})
    FILTER_MEMO.put(key, stream, FilterEnd.capture(hierarchy, current,
                                                   versions))
    return stream
