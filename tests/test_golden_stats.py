"""Golden stats-pin suite: the simulator's observable output is frozen.

Two properties, both load-bearing for the exact-time/fast-path work:

* **Pinned cells** — every (variant, workload) metric dump is
  byte-identical to ``fixtures/golden_stats.json``.  Integer-picosecond
  time plus deterministic traces make this exact: any refactor of the
  hot path (batching, memoization, event-driven skips) that changes a
  single count, latency, or energy value fails here, not in a figure
  three PRs later.  Regenerate the fixture ONLY for a change that is
  *meant* to alter simulated behaviour, never for a performance change.

* **Batch equivalence** — :meth:`SecureNVMSystem.run_stream` (the
  batched hot path) produces results byte-identical to the per-access
  ``advance``/``store``/``load`` loop it replaced.  Integer time sums
  are associative, which is what makes the deferred-cycle accumulation
  provably equivalent; this test is the proof's executable half.

Both properties hold on the two paths of ``run_stream``'s filter: a
cold filter run and a hit in the per-process filter memo
(:mod:`repro.sim.llc_filter`).  Tests clear the memo first, so test
order cannot let a hit stand in for the cold path.
"""
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.config import CacheConfig, small_config
from repro.sim.llc_filter import FILTER_MEMO, FilterMemo, trace_digest
from repro.sim.multi import MultiControllerSystem
from repro.sim.runner import VARIANTS, RunSpec, make_system, run_cell
from repro.workloads import get_profile

GOLDEN_PATH = Path(__file__).resolve().parent / "fixtures" / \
    "golden_stats.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: the pinned single-controller grid (15 cells including multi)
WORKLOADS = ("mcf_r", "pers_hash")
SPEC = dict(accesses=3000, footprint_blocks=2048, seed=99)


def canon(value) -> str:
    """Canonical byte form used for the byte-identity comparison."""
    return json.dumps(value, sort_keys=True)


@pytest.fixture
def filter_runs(monkeypatch):
    """Empty the filter memo and count cold filter runs from here on."""
    from repro.sim import llc_filter, system

    runs = []
    original = llc_filter.filter_trace

    def counting(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(llc_filter, "filter_trace", counting)
    monkeypatch.setattr(system, "filter_trace", counting)
    FILTER_MEMO.clear()
    yield runs
    FILTER_MEMO.clear()


class TestPinnedCells:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_cell_byte_identical(self, variant, workload, filter_runs):
        spec = RunSpec(variant=variant, workload=workload, **SPEC)
        golden = canon(GOLDEN[f"{variant}/{workload}"])
        cold = run_cell(spec, small_config())
        assert len(filter_runs) == 1
        assert canon(cold.to_json()) == golden
        hit = run_cell(spec, small_config())
        assert len(filter_runs) == 1            # served by the memo
        assert canon(hit.to_json()) == golden

    def test_multi_controller_cell_byte_identical(self):
        mc = MultiControllerSystem("steins", small_config(),
                                   num_controllers=3)
        trace = get_profile("mcf_r").generate(7, 2000, 1024)
        for is_write, addr, gap in trace:
            mc.advance(gap)
            (mc.store if is_write else mc.load)(addr)
        r = mc.result()
        got = {
            "num_controllers": r.num_controllers,
            "exec_time_ns": r.exec_time_ns,
            "total_busy_ns": r.total_busy_ns,
            "nvm_write_traffic": r.nvm_write_traffic,
            "energy_nj": r.energy_nj,
            "parallel_speedup": r.parallel_speedup,
        }
        assert canon(got) == canon(GOLDEN["multi/steins-gc/mcf_r"])

    def test_fixture_covers_every_variant(self):
        expected = {f"{v}/{w}" for v in VARIANTS for w in WORKLOADS}
        expected.add("multi/steins-gc/mcf_r")
        assert set(GOLDEN) == expected


def stepped(system, trace, flush):
    """The per-access loop ``run_stream`` replaced."""
    for is_write, addr, gap in trace:
        system.advance(gap)
        if is_write:
            system.store(addr, flush=flush)
        else:
            system.load(addr)


def end_state(system):
    """Everything a run leaves behind outside the controller."""
    h = system.hierarchy
    return {
        "now_ps": system.clock.now_ps,
        "accesses": system.accesses,
        "current": list(system.current.items()),
        "persisted": list(system.persisted.items()),
        "versions": list(system._versions.items()),
        "caches": [([list(s.items()) for s in cache._sets],
                    vars(cache.stats)) for cache in (h.l1, h.l2, h.l3)],
    }


def trace_of(workload, seed, n=1500):
    return get_profile(workload).generate(seed, n, 1024)


CASES = [
    ("steins-gc", "mcf_r"),      # read-heavy, non-persistent
    ("wb-sc", "pers_hash"),      # persistent: exercises clwb flushes
    ("scue", "libquantum"),      # distinct controller family
]


class TestBatchEquivalence:
    """run_stream == per-access advance/store/load, byte for byte."""

    @pytest.mark.parametrize("variant,workload", CASES)
    def test_stream_matches_per_access_loop(self, variant, workload,
                                            filter_runs):
        profile = get_profile(workload)
        trace = profile.generate(5, 1500, 1024)
        flush = profile.persistent

        batched = make_system(variant, small_config())
        batched.run_stream(trace, flush_writes=flush)

        stepped_sys = make_system(variant, small_config())
        stepped(stepped_sys, trace, flush)

        assert batched.clock.now_ps == stepped_sys.clock.now_ps
        assert batched.accesses == stepped_sys.accesses
        assert canon(batched.result(workload).to_json()) == \
            canon(stepped_sys.result(workload).to_json())

    @pytest.mark.parametrize("variant,workload", CASES)
    def test_memo_hit_ends_like_cold_and_stepped(self, variant, workload,
                                                 filter_runs):
        flush = get_profile(workload).persistent
        runs = []
        for _ in range(2):
            system = make_system(variant, small_config())
            system.run_stream(trace_of(workload, 5), flush_writes=flush)
            runs.append(system)
        assert len(filter_runs) == 1            # the second run hit
        stepped_sys = make_system(variant, small_config())
        stepped(stepped_sys, trace_of(workload, 5), flush)
        cold, hit = runs
        assert end_state(hit) == end_state(cold) == end_state(stepped_sys)
        assert canon(hit.result(workload).to_json()) == \
            canon(stepped_sys.result(workload).to_json())

    def test_second_segment_skips_the_memo(self, filter_runs):
        first, second = trace_of("pers_hash", 1), trace_of("pers_hash", 2)
        # a pristine run of the second segment is in the memo, but it
        # does not describe a system that already ran the first
        make_system("steins-gc", small_config()).run_stream(
            second, flush_writes=True)
        batched = make_system("steins-gc", small_config())
        batched.run_stream(first, flush_writes=True)
        batched.run_stream(second, flush_writes=True)
        assert len(filter_runs) == 3 and len(FILTER_MEMO) == 2
        stepped_sys = make_system("steins-gc", small_config())
        stepped(stepped_sys, first, True)
        stepped(stepped_sys, second, True)
        assert end_state(batched) == end_state(stepped_sys)
        assert canon(batched.result("x").to_json()) == \
            canon(stepped_sys.result("x").to_json())

    def test_run_after_crash_skips_the_memo(self, filter_runs):
        first, second = trace_of("mcf_r", 1), trace_of("mcf_r", 2)
        systems = []
        for drive in ("batched", "stepped"):
            system = make_system("steins-gc", small_config())
            if drive == "batched":
                system.run_stream(first)
            else:
                stepped(system, first, False)
            system.crash()
            system.recover()
            # an empty hierarchy, but not a pristine system
            assert system.hierarchy.is_empty()
            if drive == "batched":
                system.run_stream(second)
            else:
                stepped(system, second, False)
            systems.append(system)
        assert len(filter_runs) == 2 and len(FILTER_MEMO) == 1
        batched, stepped_sys = systems
        assert end_state(batched) == end_state(stepped_sys)
        assert canon(batched.result("x").to_json()) == \
            canon(stepped_sys.result("x").to_json())

    def test_hierarchy_config_and_flush_are_in_the_key(self, filter_runs):
        base = small_config()
        other = replace(base, hierarchy=replace(
            base.hierarchy, l1=CacheConfig(4 * 1024, 4)))
        trace = trace_of("pers_hash", 3)
        systems = {}
        for name, cfg, flush in (("base", base, True),
                                 ("other", other, True),
                                 ("noflush", base, False)):
            system = make_system("wb-gc", cfg)
            system.run_stream(trace, flush_writes=flush)
            stepped_sys = make_system("wb-gc", cfg)
            stepped(stepped_sys, trace, flush)
            assert end_state(system) == end_state(stepped_sys), name
            systems[name] = system
        assert len(filter_runs) == 3 and len(FILTER_MEMO) == 3
        digest = trace_digest(trace.columns)
        for cfg, flush in ((base, True), (other, True), (base, False)):
            assert FILTER_MEMO.get((digest, cfg.hierarchy, flush))
        assert end_state(systems["base"]) != end_state(systems["other"])
        assert end_state(systems["base"]) != end_state(systems["noflush"])

    def test_memo_stays_within_its_bound(self, filter_runs):
        for seed in range(4):
            make_system("wb-gc", small_config()).run_stream(
                trace_of("mcf_r", seed, 300))
        assert 0 < FILTER_MEMO.size <= FILTER_MEMO.budget
        assert len(FILTER_MEMO) == 4
        entry = FILTER_MEMO.get(next(iter(FILTER_MEMO._entries)))
        one = len(entry[0]) + len(entry[1])
        # a memo that holds two such entries evicts least recently used
        memo = FilterMemo(2 * one + one // 2)
        for key in ("a", "b", "c"):
            memo.put(key, *entry)
            assert memo.size <= memo.budget
        assert list(memo._entries) == ["b", "c"]
        memo.get("b")
        memo.put("d", *entry)
        assert list(memo._entries) == ["b", "d"]
        # an entry bigger than the whole budget is never kept
        tiny = FilterMemo(one - 1)
        tiny.put("a", *entry)
        assert len(tiny) == 0 and tiny.size == 0
