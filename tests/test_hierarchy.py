"""Three-level cache hierarchy: inclusion, writebacks, clwb."""
import pytest

from repro.common.config import CacheConfig, HierarchyConfig
from repro.mem.hierarchy import CacheHierarchy, MemOp


def tiny_hierarchy() -> CacheHierarchy:
    return CacheHierarchy(HierarchyConfig(
        l1=CacheConfig(2 * 64, 1),
        l2=CacheConfig(4 * 64, 2),
        l3=CacheConfig(8 * 64, 2),
    ))


def test_cold_miss_produces_memory_read():
    h = tiny_hierarchy()
    res = h.access(100, is_write=False)
    assert [r.op for r in res.requests] == [MemOp.READ]
    assert res.requests[0].line_addr == 100


def test_hit_after_fill_is_free_of_requests():
    h = tiny_hierarchy()
    h.access(100, False)
    res = h.access(100, False)
    assert res.requests == []
    assert res.cycles == h.cfg.l1_hit_cycles


def test_l2_hit_latency():
    h = tiny_hierarchy()
    h.access(0, False)
    # push 0 out of the 2-line direct-mapped L1 but keep it in L2
    h.access(2, False)
    h.access(4, False)
    res = h.access(0, False)
    assert res.cycles in (h.cfg.l2_hit_cycles, h.cfg.l3_hit_cycles)
    assert res.requests == []


def test_dirty_line_eventually_written_back():
    h = tiny_hierarchy()
    h.access(0, is_write=True)
    writes = []
    # stream enough distinct lines through to force 0 out of every level
    for addr in range(1, 64):
        res = h.access(addr, False)
        writes += [r.line_addr for r in res.requests if r.op is MemOp.WRITE]
    assert 0 in writes


def test_clean_lines_never_written_back():
    h = tiny_hierarchy()
    for addr in range(64):
        res = h.access(addr, False)
        assert all(r.op is MemOp.READ for r in res.requests)


def test_clwb_clears_dirtiness():
    h = tiny_hierarchy()
    h.access(0, is_write=True)
    assert h.clwb(0)            # was dirty somewhere
    assert not h.clwb(0)        # now clean
    writes = []
    for addr in range(1, 64):
        res = h.access(addr, False)
        writes += [r.line_addr for r in res.requests if r.op is MemOp.WRITE]
    assert 0 not in writes      # no double writeback after clwb


def test_flush_dirty_lists_all_levels():
    h = tiny_hierarchy()
    h.access(0, True)
    h.access(2, True)
    assert set(h.flush_dirty()) >= {0, 2}


def test_clear_drops_everything():
    h = tiny_hierarchy()
    h.access(0, True)
    h.clear()
    res = h.access(0, False)
    assert [r.op for r in res.requests] == [MemOp.READ]


def test_write_allocates_line():
    h = tiny_hierarchy()
    res = h.access(7, is_write=True)
    # write miss fills the line from memory (write-allocate)
    assert MemOp.READ in [r.op for r in res.requests]
    res2 = h.access(7, is_write=False)
    assert res2.requests == []


@pytest.mark.xfail(strict=True, reason=(
    "known bug: CacheHierarchy.access drops dirtiness held only in L1 "
    "when L2 evicts the line; fixing it changes simulated behaviour"))
def test_l2_victim_dirty_only_in_l1_is_written_back():
    # L1: one fully associative set of 2 lines; L2: 4 direct-mapped
    # sets, so lines 0 and 4 share an L2 set but both fit in L1
    h = CacheHierarchy(HierarchyConfig(
        l1=CacheConfig(2 * 64, 2),
        l2=CacheConfig(4 * 64, 1),
        l3=CacheConfig(8 * 64, 2),
    ))
    h.access(0, is_write=True)          # dirty in L1, clean in L2
    writes = []
    h.access(4, is_write=False)         # L2 evicts 0 while L1 holds it
    for addr in range(8, 200):          # then push everything out
        res = h.access(addr, False)
        writes += [r.line_addr for r in res.requests if r.op is MemOp.WRITE]
    assert 0 in writes


@pytest.mark.xfail(strict=True, reason=(
    "known bug: CacheHierarchy.access drops dirtiness held only in L1/L2 "
    "when L3 evicts the line; fixing it changes simulated behaviour"))
def test_l3_victim_dirty_only_above_l3_is_written_back():
    # L1: 1 line; L2: one fully associative set of 4 lines; L3: 8
    # direct-mapped sets, so lines 0 and 8 share an L3 set
    h = CacheHierarchy(HierarchyConfig(
        l1=CacheConfig(64, 1),
        l2=CacheConfig(4 * 64, 4),
        l3=CacheConfig(8 * 64, 1),
    ))
    h.access(0, is_write=True)          # dirty in L1
    h.access(1, is_write=False)         # L1 evicts 0: dirty in L2 only
    res = h.access(8, is_write=False)   # L3 evicts 0 while L2 holds it
    assert MemOp.WRITE in [r.op for r in res.requests]
