# simlint: disable-file=SL102 -- host time is what this benchmark measures
"""The benchmark's parts, workloads and runner.

Four *parts* each do one fixed unit of work through the program's
public API:

* ``grid``     — serial :func:`repro.sim.runner.run_cell` over every
  pinned variant and grid profile (the per-access hot path);
* ``sweep``    — one figure-style batch through four paths: cold and
  warm :func:`repro.exec.run_sweep` with two pool workers, then cold
  and warm through a ``repro serve --workers 2`` daemon (orchestration);
* ``recovery`` — per recoverable scheme, repeated
  :func:`repro.sim.crash.crash_and_recover` after fresh ``pers_hash``
  segments (the fast-recovery path);
* ``explore``  — one :func:`repro.explore.run_explore` without a cache.

Every workload runs all four parts, so every end-to-end metric exists on
every workload.  The workload decides where the time goes: its *home*
part repeats until ``--seconds`` have passed, while the other parts run
a fixed number of units.

Units of a part repeat identical inputs.  Each host-time rate is a
median over units, and each unit's rate is first scaled to a reference
machine speed: a fixed pure-Python loop is timed before, after, and
every half second during the unit (between operations, never inside a
timed one), and the rate is multiplied by ``REFERENCE_SPEED`` over the
loop's mean speed.  The shared 2-core host the bounds were set on
alternates for tens of seconds at a time between two speeds 1.7x apart;
the scaling takes that out, and a change to the program still moves
the rate in full, because the loop does not use the program.

The compositions below are literals on purpose: a scheme registered
later must not change what a metric averages.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from perfbench.spans import SpanRecorder

#: every registered variant, pinned
VARIANTS = ("wb-gc", "wb-sc", "asit", "star", "scue", "steins-gc",
            "steins-sc", "phoenix", "secpm")
#: grid profiles: ``mcf_r`` thrashes the metadata cache with random
#: reads, ``libquantum`` streams, ``pers_*`` clwb every store
SPEC_PROFILES = ("mcf_r", "libquantum")
PERSISTENT_PROFILES = ("pers_hash", "pers_swap")
GRID_PROFILES = SPEC_PROFILES + PERSISTENT_PROFILES
#: the ten paper workloads of the figure sweep
SWEEP_WORKLOADS = ("lbm_r", "mcf_r", "libquantum", "milc", "cactusADM",
                   "gems", "xalancbmk", "omnetpp", "pers_hash", "pers_swap")
#: recoverable scheme -> the variant its recovery runs on
RECOVERABLE = {"asit": "asit", "star": "star", "scue": "scue",
               "steins": "steins-gc", "phoenix": "phoenix",
               "secpm": "secpm"}
#: pool workers, daemon workers and client connections: one per core of
#: the 2-core host the bounds were set on
JOBS = 2
#: ``repro serve`` reads a request line of at most 64 KiB, which holds
#: about 60 figure cells, so the sweep reaches the daemon in two batches
SERVE_BATCH = 46


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one unit of each part."""

    grid_accesses: int = 1000
    grid_footprint: int = 8192     # blocks; 8x the small LLC
    sweep_accesses: int = 300
    sweep_footprint: int = 1 << 16
    warm_repeats: int = 10         # warm reruns per sweep path and unit
    recoveries: int = 6            # per scheme and unit
    segment: int = 200             # pers_hash accesses before each crash
    recovery_footprint: int = 8192
    warmup: int = 1000             # accesses that fill each system first
    explore_accesses: int = 40
    explore_footprint: int = 256
    setup_repeats: int = 3


FULL = Sizes()


@dataclass(frozen=True)
class Plan:
    """How one workload spends its run."""

    #: (part, units) run first, in this order
    fixed: tuple[tuple[str, int], ...]
    #: (part, units) that open the home phase
    home_fixed: tuple[tuple[str, int], ...]
    #: the part that repeats until ``--seconds`` have passed since the
    #: home phase began, and at least ``min_fill`` times
    fill: str
    min_fill: int
    explore_schemes: tuple[str, ...]


WORKLOADS: dict[str, Plan] = {
    "grid": Plan(fixed=(("sweep", 2), ("recovery", 3), ("explore", 3)),
                 home_fixed=(), fill="grid", min_fill=4,
                 explore_schemes=("steins",)),
    "sweep": Plan(fixed=(("grid", 2), ("recovery", 3), ("explore", 3)),
                  home_fixed=(), fill="sweep", min_fill=3,
                  explore_schemes=("steins",)),
    "crash": Plan(fixed=(("grid", 2), ("sweep", 2)),
                  home_fixed=(("explore", 1),), fill="recovery",
                  min_fill=8, explore_schemes=tuple(RECOVERABLE)),
}

END_TO_END = {
    "setup_s": "s",
    "spec_accesses_per_s": "acc/s",
    "persistent_accesses_per_s": "acc/s",
    "sweep_cells_per_s": "cells/s",
    "sweep_warm_cells_per_s": "cells/s",
    "serve_cells_per_s": "cells/s",
    "serve_warm_cells_per_s": "cells/s",
    "recovery_sims_per_s": "sims/s",
    "explore_candidates_per_s": "candidates/s",
    "peak_rss_mb": "MB",
    "steins_gc_exec_ratio": "sim-ratio",
    "steins_recovery_sim_ms": "sim-ms",
}

#: (span, also report its call count) for the span-derived metrics
SPAN_METRICS = (
    ("workloads.generate", True), ("mem.access", True),
    ("mem.clwb", True), ("sim.run_stream", False),
    ("sim.make_system", True), ("ctrl.read_data", True),
    ("ctrl.write_data", True), ("metacache.lookup", True),
    ("metacache.insert", True), ("crypto.digest64", True),
    ("crypto.otp", True),
    ("nvm.read", False), ("nvm.write", False), ("faults.fire", True),
    ("recovery.recover", False), ("recovery.validate", False),
    ("explore.probe", False), ("explore.case", False),
    ("explore.digest", False), ("exec.cell_key", False),
    ("exec.execute_cell", False), ("exec.decode_payload", False),
    ("exec.cache_get", False), ("exec.cache_put", False),
)
#: exact per-layer counts and ratios the parts gather themselves
FACT_METRICS = {
    "mem.requests_per_access": "ratio",
    "metacache.hit_rate": "ratio",
    "metacache.dirty_evictions": "count",
    "nvm.reads": "count",
    "nvm.writes": "count",
    **{f"recovery.{s}.{k}": "count" for s in RECOVERABLE
       for k in ("nvm_reads", "hashes", "nodes_recovered")},
    "explore.candidates": "count",
    "explore.pruned": "count",
    "explore.prune_ratio": "ratio",
    "exec.pool_efficiency": "ratio",
    "exec.cache_hit_rate": "ratio",
    "exec.deduped": "count",
    "serve.roundtrip_s": "s",
    "serve.pool_efficiency": "ratio",
    "serve.cells.executed": "count",
    "serve.cells.deduped": "count",
    "serve.worker.retries": "count",
}
TRACE_METRICS = {"trace.unattributed_s": "s", "trace.traced_s": "s",
                 "trace.overhead": "ratio", "trace.spans": "count"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    out: dict[str, str] = {}
    for span, calls in SPAN_METRICS:
        out[f"{span}.self_s"] = "s"
        if calls:
            out[f"{span}.calls"] = "count"
    out.update(FACT_METRICS)
    out.update(TRACE_METRICS)
    return out


def derive_seed(*parts: object) -> int:
    """A 32-bit seed determined by ``parts`` alone."""
    raw = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(raw[:4], "little")


def sha256_of(doc: Any) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


clock = time.perf_counter


class Tally:
    """Operations attempted and failed; a failure never stops the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if self.failed <= 10:
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def failure(self, what: str, n: int = 1) -> None:
        """Count the exception being handled as ``n`` failed operations."""
        self.fail(f"{what}\n{traceback.format_exc(limit=-3)}", n)


#: loop iterations per second of :func:`machine_speed` on the host the
#: bounds were set on, in its faster state; rates are reported as if
#: measured at this speed
REFERENCE_SPEED = 3.5e6
_SPEED_LOOPS = 20_000


def machine_speed() -> float:
    """Iterations per second of a fixed integer-and-dict loop, best of 2."""
    best = math.inf
    for _ in range(2):
        start = clock()
        x, table = 1, {}
        for _ in range(_SPEED_LOOPS):
            x = (x * 6364136223846793005 + 1442695040888963407) \
                & 0xFFFFFFFFFFFFFFFF
            table[x & 1023] = table.get(x & 1023, 0) + 1
        best = min(best, clock() - start)
    return _SPEED_LOOPS / best


class Speedometer:
    """Machine-speed samples over one unit; see the module docstring."""

    EVERY_S = 0.5

    def __init__(self) -> None:
        self.active = False
        self.samples: list[float] = []
        #: seconds spent sampling since the unit began
        self.spent = 0.0
        self._last = 0.0

    def begin(self) -> None:
        self.active, self.samples, self.spent = True, [], 0.0
        self._sample()

    def tick(self) -> None:
        """Sample if due; call only between timed operations."""
        if self.active and clock() - self._last >= self.EVERY_S:
            self._sample()

    def end(self) -> float:
        """Stop sampling; the unit's mean machine speed."""
        self._sample()
        self.active = False
        return statistics.fmean(self.samples)

    def _sample(self) -> None:
        start = clock()
        self.samples.append(machine_speed())
        self._last = clock()
        self.spent += self._last - start


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else math.nan


# ---------------------------------------------------------------- parts
class GridPart:
    """36 cells of serial ``run_cell`` on ``small_config()``."""

    name = "grid"

    def __init__(self, sizes: Sizes, seed: int, tally: Tally,
                 speed: Speedometer) -> None:
        from repro.common.config import small_config
        from repro.sim.runner import RunSpec

        self.tally = tally
        self.speed = speed
        self.cfg = small_config()
        self.specs = [RunSpec(v, w, sizes.grid_accesses,
                              sizes.grid_footprint, seed)
                      for w in GRID_PROFILES for v in VARIANTS]
        self.rates: dict[str, float] = {}
        self.first: list[Any] | None = None
        self.raw = dict.fromkeys(("hits", "lookups", "dirty", "reads",
                                  "writes", "requests", "accesses"), 0)

    def unit(self, traced: bool) -> list[Any]:
        if traced:
            with _captured_systems() as built:
                out = self._cells(traced)
            self._count(built)
        else:
            out = self._cells(traced)
        if self.first is None:
            self.first = out
        else:
            bad = sum(a != b for a, b in zip(out, self.first))
            if bad:
                self.tally.fail("grid: cells differ from the first unit",
                                bad)
        return out

    def _cells(self, traced: bool) -> list[Any]:
        from repro.sim import runner

        busy = {"spec": 0.0, "persistent": 0.0}
        done = {"spec": 0, "persistent": 0}
        out: list[Any] = []
        for spec in self.specs:
            family = ("spec" if spec.workload in SPEC_PROFILES
                      else "persistent")
            self.tally.attempted += 1
            start = clock()
            try:
                result = runner.run_cell(spec, self.cfg).to_json()
            # simlint: disable-next=SL401 -- counted as failed and reported
            except Exception:  # a wrong result fails its cell only
                self.tally.failure(f"grid cell {spec}")
                result = None
            else:
                busy[family] += clock() - start
                done[family] += spec.accesses
            out.append(result)
            self.speed.tick()
        self.rates = {f"{f}_accesses_per_s": _rate(done[f], busy[f])
                      for f in busy}
        return out

    def _count(self, systems: list[Any]) -> None:
        raw = self.raw
        for system in systems:
            c = system.controller
            stats = c.metacache.stats
            raw["hits"] += stats.hits
            raw["lookups"] += stats.hits + stats.misses
            raw["dirty"] += stats.dirty_evictions
            raw["reads"] += system.device.stats.total_reads
            raw["writes"] += system.device.stats.total_writes
            raw["requests"] += c.stats.data_reads + c.stats.data_writes
            raw["accesses"] += system.accesses

    def simulated(self) -> dict[str, float]:
        return {"steins_gc_exec_ratio": self._exec_ratio()}

    def _exec_ratio(self) -> float:
        """Steins-GC / WB-GC simulated execution time, geomean (Fig. 9)."""
        by_cell = {(s.variant, s.workload): r
                   for s, r in zip(self.specs, self.first or []) if r}
        logs = [math.log(by_cell[("steins-gc", w)]["exec_time_ns"]
                         / by_cell[("wb-gc", w)]["exec_time_ns"])
                for w in GRID_PROFILES
                if ("steins-gc", w) in by_cell and ("wb-gc", w) in by_cell]
        return math.exp(sum(logs) / len(logs)) if logs else float("nan")

    def facts(self) -> dict[str, float]:
        raw = self.raw
        return {"mem.requests_per_access":
                raw["requests"] / max(raw["accesses"], 1),
                "metacache.hit_rate": raw["hits"] / max(raw["lookups"], 1),
                "metacache.dirty_evictions": raw["dirty"],
                "nvm.reads": raw["reads"], "nvm.writes": raw["writes"]}


@contextmanager
def _captured_systems() -> Iterator[list[Any]]:
    """Collect every system ``run_cell`` builds inside the block."""
    from repro.sim import runner

    built: list[Any] = []
    original = runner.make_system

    def make_system(*args: Any, **kwargs: Any) -> Any:
        system = original(*args, **kwargs)
        built.append(system)
        return system

    runner.make_system = make_system
    try:
        yield built
    finally:
        runner.make_system = original


class SweepPart:
    """A 91-cell figure batch through pool and daemon, cold and warm."""

    name = "sweep"

    def __init__(self, sizes: Sizes, seed: int, tally: Tally,
                 speed: Speedometer, workdir: Path) -> None:
        from repro.analysis.figures import figure_config
        from repro.exec import CellSpec, config_to_dict

        cfg = config_to_dict(figure_config())
        cells = [CellSpec("sim", v, w, sizes.sweep_accesses,
                          sizes.sweep_footprint, seed, config=cfg)
                 for v in VARIANTS for w in SWEEP_WORKLOADS]
        # the duplicate rides in the same daemon batch as its original,
        # so both paths must dedup it in flight
        cut = SERVE_BATCH - 1
        self.specs = cells[:cut] + [cells[0]] + cells[cut:]
        self.batches = [self.specs[i:i + SERVE_BATCH]
                        for i in range(0, len(self.specs), SERVE_BATCH)]
        self.tally = tally
        self.speed = speed
        self.warm_repeats = sizes.warm_repeats
        self.workdir = workdir
        self.socket: str | None = None
        self.passes = 0
        self.first: list[str] | None = None
        self.rates: dict[str, float] = {}
        self.raw = dict.fromkeys(("pool_busy", "pool_wall", "pool_cells",
                                  "pool_cached", "deduped", "serve_busy",
                                  "serve_wall", "serve.cells.executed",
                                  "serve.cells.deduped",
                                  "serve.worker.retries"), 0.0)

    def unit(self, traced: bool) -> list[str] | None:
        from repro.exec import ResultCache, code_version_tag, run_sweep
        from repro.exec.pool import SweepReport

        self.passes += 1
        cache_dir = self.workdir / f"pool-{self.passes}"
        cache = ResultCache(cache_dir)
        # a fresh key space on the long-running daemon: every key of
        # this unit is new to its cache, exactly as on a fresh cache
        namespace = f"{code_version_tag()}+perfbench-{self.passes}"

        def pool() -> Any:
            return run_sweep(self.specs, jobs=JOBS, cache=cache)

        def serve() -> Any:
            outcomes: list[Any] = []
            for batch in self.batches:
                outcomes += run_sweep(batch, service=self.socket,
                                      code_version=namespace).outcomes
            return SweepReport(outcomes)

        stats_before = self._serve_stats() if traced else {}
        n = len(self.specs)
        pool_cold, pool_cold_s = self._pass("pool cold", pool)
        pool_warm = [self._pass("pool warm", pool)
                     for _ in range(self.warm_repeats)]
        serve_cold, serve_cold_s = self._pass("serve cold", serve)
        serve_warm = [self._pass("serve warm", serve)
                      for _ in range(self.warm_repeats)]
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.rates = {
            "sweep_cells_per_s": _rate(n if pool_cold else 0, pool_cold_s),
            "sweep_warm_cells_per_s": _warm_rate(n, pool_warm),
            "serve_cells_per_s": _rate(n if serve_cold else 0,
                                       serve_cold_s),
            "serve_warm_cells_per_s": _warm_rate(n, serve_warm)}
        pool_warm = [report for report, _ in pool_warm]
        if traced:
            raw = self.raw
            if pool_cold is not None:
                raw["pool_busy"] += sum(o.elapsed_s
                                        for o in pool_cold.outcomes)
                raw["pool_wall"] += pool_cold_s
                raw["deduped"] += pool_cold.deduped
            for report in [pool_cold, *pool_warm]:
                if report is not None:
                    raw["pool_cells"] += report.total
                    raw["pool_cached"] += report.cached
            if serve_cold is not None:
                raw["serve_busy"] += sum(o.elapsed_s
                                         for o in serve_cold.outcomes)
                raw["serve_wall"] += serve_cold_s
            after = self._serve_stats()
            for key in ("serve.cells.executed", "serve.cells.deduped",
                        "serve.worker.retries"):
                raw[key] += after.get(key, 0) - stats_before.get(key, 0)
        return None if pool_cold is None else self._prints(pool_cold)

    @staticmethod
    def _prints(report: Any) -> list[str]:
        return [json.dumps(v.to_json(), sort_keys=True)
                for v in report.values]

    def _pass(self, label: str,
              run: Callable[[], Any]) -> tuple[Any, float]:
        n = len(self.specs)
        self.tally.attempted += n
        self.speed.tick()
        start = clock()
        try:
            report = run()
        # simlint: disable-next=SL401 -- counted as failed and reported
        except Exception:  # a dead daemon or a failing cell: the pass
            self.tally.failure(f"sweep {label}", n)
            return None, 0.0
        seconds = clock() - start
        prints = self._prints(report)
        if self.first is None:
            self.first = prints
        bad = (sum(a != b for a, b in zip(prints, self.first))
               + abs(len(prints) - len(self.first)))
        if bad:
            self.tally.fail(f"sweep {label}: {bad} cells differ from the "
                            "first pool-cold report", bad)
        cold = label.endswith("cold")
        if cold and report.deduped < 1:
            self.tally.fail(f"sweep {label}: duplicate cell not deduped")
        if not cold and report.executed:
            self.tally.fail(f"sweep {label}: warm rerun recomputed "
                            f"{report.executed} cells", report.executed)
        return report, seconds

    def _serve_stats(self) -> dict[str, float]:
        from repro.serve.client import ServiceClient, ServiceError

        try:
            metrics = ServiceClient(self.socket).stats()["metrics"]
        except ServiceError:  # the failed passes already count it
            return {}
        return {k: v["value"] for k, v in metrics.items()}

    def simulated(self) -> dict[str, float]:
        return {}

    def facts(self) -> dict[str, float]:
        raw = self.raw
        return {
            "exec.pool_efficiency":
                raw["pool_busy"] / max(raw["pool_wall"] * JOBS, 1e-9),
            "exec.cache_hit_rate":
                raw["pool_cached"] / max(raw["pool_cells"], 1),
            "exec.deduped": raw["deduped"],
            "serve.pool_efficiency":
                raw["serve_busy"] / max(raw["serve_wall"] * JOBS, 1e-9),
            **{k: raw[k] for k in ("serve.cells.executed",
                                   "serve.cells.deduped",
                                   "serve.worker.retries")},
        }


def _warm_rate(cells: int, passes: list[tuple[Any, float]]) -> float:
    # a warm pass takes milliseconds, so one pause can double it: use the
    # unit's median pass
    done = [seconds for report, seconds in passes if report is not None]
    return _rate(cells, statistics.median(done)) if done else math.nan


class RecoveryPart:
    """Per recoverable scheme, crash and recover after fresh segments.

    A unit builds one system per scheme, fills it, and then runs a new
    ``pers_hash`` segment before every crash, so the dirty set differs
    every time.  Only ``crash_and_recover`` is timed.  Every unit repeats
    the same inputs.
    """

    name = "recovery"

    def __init__(self, sizes: Sizes, seed: int, tally: Tally,
                 speed: Speedometer) -> None:
        self.sizes = sizes
        self.seed = seed
        self.tally = tally
        self.speed = speed
        self.rates: dict[str, float] = {}
        self.first: dict[str, list[Any]] | None = None
        self.raw = {f"recovery.{s}.{k}": 0 for s in RECOVERABLE
                    for k in ("nvm_reads", "hashes", "nodes_recovered")}

    def unit(self, traced: bool) -> dict[str, list[Any]]:
        from repro.common.config import small_config
        from repro.sim.crash import crash_and_recover
        from repro.sim.runner import make_system, run_trace
        from repro.workloads import get_profile

        sizes = self.sizes
        profile = get_profile("pers_hash")

        def segment(*key: object) -> Any:
            return profile.generate(derive_seed(self.seed, *key),
                                    sizes.segment if key else sizes.warmup,
                                    sizes.recovery_footprint)

        segments = [segment(k) for k in range(sizes.recoveries)]
        out: dict[str, list[Any]] = {}
        busy, done = 0.0, 0
        for scheme, variant in RECOVERABLE.items():
            reports: list[Any] = []
            out[scheme] = reports
            try:
                system = make_system(variant, small_config())
                run_trace(system, segment(), "pers_hash", flush_writes=True)
            # simlint: disable-next=SL401 -- counted as failed and reported
            except Exception:
                self.tally.attempted += len(segments)
                self.tally.failure(f"recovery: building {scheme}",
                                   len(segments))
                continue
            for trace in segments:
                self.tally.attempted += 1
                try:
                    run_trace(system, trace, "pers_hash", flush_writes=True)
                    self.speed.tick()
                    start = clock()
                    report, _ = crash_and_recover(system)
                    busy += clock() - start
                # simlint: disable-next=SL401 -- counted as failed and reported
                except Exception:  # the rest of this scheme's unit is moot
                    self.tally.failure(f"recovery of {scheme}")
                    reports.append(None)
                    break
                done += 1
                reports.append(report.to_json())
                if traced:
                    for key in ("nvm_reads", "hashes", "nodes_recovered"):
                        self.raw[f"recovery.{scheme}.{key}"] += \
                            getattr(report, key)
        self.rates = {"recovery_sims_per_s": _rate(done, busy)}
        if self.first is None:
            self.first = out
        elif out != self.first:
            self.tally.fail("recovery: reports differ from the first unit")
        return out

    def simulated(self) -> dict[str, float]:
        from repro.baselines.report import RecoveryReport

        steins = [RecoveryReport.from_json(r).time_ns
                  for r in (self.first or {}).get("steins", []) if r]
        return {"steins_recovery_sim_ms": (statistics.median(steins) / 1e6
                                           if steins else math.nan)}

    def facts(self) -> dict[str, float]:
        return dict(self.raw)


class ExplorePart:
    """One full crash-space exploration without a result cache."""

    name = "explore"

    def __init__(self, sizes: Sizes, seed: int, tally: Tally,
                 speed: Speedometer, schemes: tuple[str, ...]) -> None:
        self.sizes = sizes
        self.seed = seed
        self.tally = tally
        self.speed = speed
        self.schemes = schemes
        self.rates: dict[str, float] = {}
        self.first: dict[str, Any] | None = None
        self.raw = {"explore.candidates": 0, "explore.pruned": 0}

    def unit(self, traced: bool) -> dict[str, Any] | None:
        from repro.explore import run_explore

        spent, start = self.speed.spent, clock()
        try:
            summary = run_explore(
                schemes=list(self.schemes),
                accesses=self.sizes.explore_accesses,
                footprint=self.sizes.explore_footprint, seed=self.seed,
                progress=lambda *_: self.speed.tick())
        # simlint: disable-next=SL401 -- counted as failed and reported
        except Exception:
            self.tally.attempted += 1
            self.tally.failure("explore")
            self.rates = {}
            return None
        # the speed samples taken between cells are not exploration time
        seconds = clock() - start - (self.speed.spent - spent)
        self.tally.attempted += summary.explored_total
        escaped = [m.name for m in summary.escaped_mutants]
        bad = len(summary.failures) + len(escaped)
        if bad:
            self.tally.fail(f"explore: {len(summary.failures)} silent "
                            f"divergences, escaped mutants {escaped}", bad)
        self.rates = {"explore_candidates_per_s":
                      _rate(summary.explored_total, seconds)}
        if traced:
            self.raw["explore.candidates"] += summary.explored_total
            self.raw["explore.pruned"] += summary.pruned_total
        doc = summary.to_json()
        if self.first is None:
            self.first = doc
        elif doc != self.first:
            self.tally.fail("explore: report differs from the first unit")
        return doc

    def simulated(self) -> dict[str, float]:
        return {}

    def facts(self) -> dict[str, float]:
        explored, pruned = (self.raw["explore.candidates"],
                            self.raw["explore.pruned"])
        return {**self.raw,
                "explore.prune_ratio": pruned / max(explored + pruned, 1)}


PART_ORDER = ("grid", "sweep", "recovery", "explore")


def prepare(workload: str, seed: int, sizes: Sizes, workdir: Path,
            tally: Tally, speed: Speedometer) -> dict[str, Any]:
    """Build every part's inputs: the set-up a run does before timing."""
    plan = WORKLOADS[workload]
    return {
        "grid": GridPart(sizes, seed, tally, speed),
        "sweep": SweepPart(sizes, seed, tally, speed, workdir),
        "recovery": RecoveryPart(sizes, seed, tally, speed),
        "explore": ExplorePart(sizes, seed, tally, speed,
                               plan.explore_schemes),
    }


def prepare_main(argv: list[str]) -> None:
    """Entry of a set-up sample: ``workload seed sizes-json workdir``."""
    workload, seed, sizes, workdir = argv
    prepare(workload, int(seed), Sizes(**json.loads(sizes)), Path(workdir),
            Tally(), Speedometer())


# --------------------------------------------------------------- daemon
class Daemon:
    """A ``repro serve`` subprocess, booted until it answers a ping."""

    def __init__(self, root: Path, workdir: Path, tag: str,
                 env: dict[str, str]) -> None:
        from repro.serve.client import ServiceClient, ServiceError

        # relative to the checkout root (both processes run there), which
        # keeps the path under the unix-socket length limit
        self.socket = os.path.relpath(workdir / f"{tag}.sock", root)
        self.log = open(workdir / f"{tag}.log", "wb")
        start = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.socket, "--workers", str(JOBS), "--cache-dir",
             os.path.relpath(workdir / f"{tag}-cache", root)],
            cwd=root, env=env, stdout=self.log, stderr=self.log)
        self.client = ServiceClient(self.socket)
        deadline = start + 120.0
        while True:
            if self.proc.poll() is not None or clock() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not come up; see "
                                   f"{workdir / tag}.log")
            try:
                if self.client.ping():
                    break
            except (ServiceError, OSError):
                time.sleep(0.005)
        self.boot_s = clock() - start

    def stop(self) -> None:
        """Drain and stop the daemon; kill it if it will not stop."""
        try:
            if self.proc.poll() is None:
                self.client.shutdown()
                self.proc.wait(timeout=30)
        # simlint: disable-next=SL401 -- unreachable or stuck: kill it below
        except Exception:
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=30)
            self.log.close()


def measure_setup(workload: str, seed: int, sizes: Sizes, root: Path,
                  workdir: Path, env: dict[str, str]
                  ) -> tuple[list[float], Daemon]:
    """Set-up samples (a fresh process's ``prepare`` plus a daemon boot
    to its first ping), each scaled to the reference machine speed; the
    last daemon stays up for the run."""
    samples: list[float] = []
    daemon: Daemon | None = None
    code = ("import sys; from perfbench import suite; "
            "suite.prepare_main(sys.argv[1:])")
    for k in range(sizes.setup_repeats):
        speed = machine_speed()
        start = clock()
        subprocess.run([sys.executable, "-c", code, workload, str(seed),
                        json.dumps(asdict(sizes)), str(workdir)],
                       cwd=root, env=env, check=True, timeout=300)
        prepared = clock() - start
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(root, workdir, f"serve{k}", env)
        speed = (speed + machine_speed()) / 2
        samples.append((prepared + daemon.boot_s) * speed / REFERENCE_SPEED)
    assert daemon is not None, "setup_repeats is at least one"
    return samples, daemon


# --------------------------------------------------------------- runner
class UnitRunner:
    """Runs part units; with a recorder, each unit twice, once traced."""

    def __init__(self, tally: Tally, recorder: SpanRecorder | None,
                 speed: Speedometer) -> None:
        self.tally = tally
        self.recorder = recorder
        self.speed = speed
        self.units: dict[str, int] = {}
        self.wall = {False: 0.0, True: 0.0}
        #: metric -> per-unit rates at the reference machine speed
        self.rates: dict[str, list[float]] = {}
        self.speeds: list[float] = []

    def run(self, part: Any) -> None:
        self.units[part.name] = self.units.get(part.name, 0) + 1
        if self.recorder is None:
            gc.collect()
            self.speed.begin()
            part.unit(False)
            speed = self.speed.end()
            self.speeds.append(speed)
            for metric, rate in part.rates.items():
                if math.isfinite(rate):
                    self.rates.setdefault(metric, []).append(
                        rate * REFERENCE_SPEED / speed)
            return
        # alternate which side goes first, so neither always runs warm
        pairs = sum(self.units.values())
        order = (False, True) if pairs % 2 else (True, False)
        out = {}
        for traced in order:
            gc.collect()
            start = clock()
            if traced:
                with self.recorder.installed(), \
                        self.recorder.span(f"{part.name}.unit"):
                    out[traced] = part.unit(True)
            else:
                out[traced] = part.unit(False)
            self.wall[traced] += clock() - start
        if out[True] != out[False]:
            self.tally.fail(f"{part.name}: traced unit differs from the "
                            "untraced one")


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: Sizes = FULL) -> dict[str, Any]:
    """Run one workload; returns its metrics, counts and digest."""
    plan = WORKLOADS[workload]
    tally = Tally()
    base = root / ".perfbench"
    workdir = base / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "workers").mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    daemon: Daemon | None = None
    try:
        setup_samples, daemon = measure_setup(workload, seed, sizes, root,
                                              workdir, env)
        speed = Speedometer()
        parts = prepare(workload, seed, sizes, workdir, tally, speed)
        parts["sweep"].socket = daemon.socket
        recorder = SpanRecorder(workdir / "workers") if trace else None
        runner = UnitRunner(tally, recorder, speed)
        for name, units in plan.fixed:
            for _ in range(units):
                runner.run(parts[name])
        home_start = clock()
        for name, units in plan.home_fixed:
            for _ in range(units):
                runner.run(parts[name])
        while runner.units.get(plan.fill, 0) < plan.min_fill or (
                recorder is None and clock() - home_start < seconds):
            runner.run(parts[plan.fill])
        report = {
            "workload": workload, "seed": seed, "trace": trace,
            "attempted": tally.attempted, "failed": tally.failed,
            "digest": sha256_of({name: parts[name].first
                                 for name in PART_ORDER}),
            "units": runner.units,
        }
        if recorder is None:
            metrics = {"setup_s": statistics.median(setup_samples)}
            for metric, rates in runner.rates.items():
                metrics[metric] = statistics.median(rates)
            for name in PART_ORDER:
                metrics.update(parts[name].simulated())
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            report["metrics"] = {k: (metrics.get(k, math.nan), u)
                                 for k, u in END_TO_END.items()}
            report["machine_speed"] = statistics.median(runner.speeds)
        else:
            report["metrics"] = _per_layer(parts, recorder, runner)
            recorder.write(base / f"spans-{workload}.npz")
        return report
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _per_layer(parts: dict[str, Any], recorder: SpanRecorder,
               runner: UnitRunner) -> dict[str, tuple[float, str]]:
    totals = recorder.totals()
    facts: dict[str, float] = {}
    for name in PART_ORDER:
        facts.update(parts[name].facts())
    facts["serve.roundtrip_s"] = totals.get("serve.submit", (0.0, 0))[0]
    facts["trace.unattributed_s"] = sum(
        totals.get(f"{name}.unit", (0.0, 0))[0] for name in PART_ORDER)
    facts["trace.traced_s"] = runner.wall[True]
    facts["trace.overhead"] = runner.wall[True] / runner.wall[False] - 1
    facts["trace.spans"] = recorder.span_count()
    out: dict[str, tuple[float, str]] = {}
    for metric, unit in per_layer_units().items():
        if metric in facts:
            value = facts[metric]
        else:
            span, _, kind = metric.rpartition(".")
            self_s, calls = totals.get(span, (0.0, 0))
            value = self_s if kind == "self_s" else calls
        out[metric] = (value, unit)
    return out
