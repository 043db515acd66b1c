"""Full-system wiring: CPU trace -> cache hierarchy -> secure controller
-> NVM device, plus the architectural reference model used to check that
every scheme returns exactly the data that was written.

The reference model tracks two views of every data block:

* ``current``   — the architectural value (what the CPU last stored;
  may still be dirty in the volatile hierarchy),
* ``persisted`` — the value most recently written back to NVM.

A demand fill from NVM must return the *persisted* value; a crash rolls
``current`` back to ``persisted``.  Both invariants are asserted on
every access when ``check`` is enabled, so a whole simulation doubles as
an end-to-end functional test of the scheme under test.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import SecureMemoryController
from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.rng import mix64
from repro.integrity.geometry import geometry_for
from repro.mem.hierarchy import CacheHierarchy, MemOp
from repro.nvm.device import NVMDevice
from repro.nvm.energy import EnergyMeter
from repro.nvm.layout import MemoryLayout, build_layout
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.schemes import controller_types
from repro.sim.clock import MemClock
from repro.sim.llc_filter import filter_pristine, filter_trace
from repro.sim.stats import RunResult

#: {scheme: controller class}, a registry view in registration order;
#: plugins land here (and everywhere downstream) via
#: :func:`repro.schemes.register_scheme`, never by editing this module
SCHEMES: dict[str, type[SecureMemoryController]] = controller_types()


def make_layout(cfg: SystemConfig) -> MemoryLayout:
    """Region sizes implied by a system configuration."""
    geometry = geometry_for(cfg.num_data_blocks, cfg.security)
    cache_lines = cfg.security.metadata_cache.num_lines
    # STAR's multi-layer bitmap: one bit per tree node, summarized 512:1.
    bitmap_lines = 0
    n = geometry.total_nodes
    while True:
        lines = -(-n // 512)
        bitmap_lines += lines
        if lines == 1:
            break
        n = lines
    return build_layout(
        data_lines=cfg.num_data_blocks,
        tree_lines=geometry.total_nodes,
        metadata_cache_lines=cache_lines,
        shadow_lines=cache_lines,
        bitmap_lines=bitmap_lines,
    )


@dataclass
class AccessOutcome:
    """What one CPU access caused at the memory controller."""

    llc_hit: bool
    reads_issued: int
    writes_issued: int


class SecureNVMSystem:
    """One simulated machine running one scheme."""

    def __init__(self, scheme: str, cfg: SystemConfig,
                 check: bool = True,
                 tracer: Tracer = NULL_TRACER) -> None:
        if scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {scheme!r}; pick one of {sorted(SCHEMES)}")
        self.scheme = scheme
        self.cfg = cfg
        self.check = check
        self.tracer = tracer
        self.device = NVMDevice(make_layout(cfg), tracer=tracer)
        self.meter = EnergyMeter(cfg.energy)
        self.clock = MemClock(cfg, self.device, self.meter, tracer=tracer)
        self.hierarchy = CacheHierarchy(cfg.hierarchy)
        self.controller: SecureMemoryController = SCHEMES[scheme](
            cfg, self.device, self.clock)
        # architectural reference model
        self.current: dict[int, int] = {}
        self.persisted: dict[int, int] = {}
        self._versions: dict[int, int] = {}
        self.accesses = 0

    # ------------------------------------------------------------- run
    def store(self, block_addr: int, flush: bool = False) -> AccessOutcome:
        """CPU store: derives a fresh deterministic value for the block.

        With ``flush=True`` the store is followed by a ``clwb`` —
        the persistent-workload idiom — so the value reaches the secure
        controller immediately instead of waiting for an LLC eviction.
        """
        version = self._versions.get(block_addr, 0) + 1
        self._versions[block_addr] = version
        self.current[block_addr] = mix64(block_addr, version)
        outcome = self._access(block_addr, is_write=True)
        if flush and self.hierarchy.clwb(block_addr):
            value = self.current[block_addr]
            self.controller.write_data(block_addr, value)
            self.persisted[block_addr] = value
            outcome.writes_issued += 1
        return outcome

    def load(self, block_addr: int) -> AccessOutcome:
        return self._access(block_addr, is_write=False)

    def _access(self, block_addr: int, is_write: bool) -> AccessOutcome:
        self.accesses += 1
        result = self.hierarchy.access(block_addr, is_write)
        self.clock.advance_cycles(result.cycles)
        reads = writes = 0
        for request in result.requests:
            if request.op is MemOp.WRITE:
                value = self.current.get(request.line_addr, 0)
                self.controller.write_data(request.line_addr, value)
                self.persisted[request.line_addr] = value
                writes += 1
            else:
                plaintext = self.controller.read_data(request.line_addr)
                if self.check:
                    expected = self.persisted.get(request.line_addr, 0)
                    if plaintext != expected:
                        raise AssertionError(
                            f"scheme {self.scheme!r} returned wrong data "
                            f"for block {request.line_addr}: "
                            f"{plaintext} != {expected}")
                # a fill makes the persisted value architecturally current
                self.current.setdefault(request.line_addr,
                                        self.persisted.get(request.line_addr, 0))
                reads += 1
        return AccessOutcome(llc_hit=not result.requests
                             or all(r.op is MemOp.WRITE
                                    for r in result.requests),
                             reads_issued=reads, writes_issued=writes)

    def advance(self, gap_cycles: int) -> None:
        """Compute time between memory accesses."""
        self.clock.advance_cycles(gap_cycles)

    def run_stream(self, trace: "object", flush_writes: bool = False) -> None:
        """Drive a whole trace through the system (batched hot path).

        Exactly equivalent to per-access ``advance``/``store``/``load``
        calls, proven by the golden stats suite.  The scheme-independent
        half — hierarchy and value model — runs first and yields the LLC
        request stream (:mod:`repro.sim.llc_filter`); from a pristine
        system that stream and the end state come from a per-process
        memo shared by every variant run on the same trace.  Only the
        stream then reaches the controller: the clock advances by each
        request's deferred cycles (integer time makes the deferred sum
        equal to per-access advances) and every read is checked against
        the reference model.

        Not a crash-injection surface: if the controller raises, the
        hierarchy and ``current`` already hold the trace's end state
        (the crash tools step with ``store``/``load`` instead).
        """
        columns = trace.columns
        if (self.accesses == 0 and not self.current and not self.persisted
                and not self._versions and self.hierarchy.is_empty()):
            stream = filter_pristine(self.hierarchy, columns, flush_writes,
                                     self.current, self._versions)
        else:
            stream = filter_trace(self.hierarchy, columns, flush_writes,
                                  self.current, self._versions,
                                  dict(self.persisted))
        clock = self.clock
        write_data = self.controller.write_data
        read_data = self.controller.read_data
        persisted = self.persisted
        check = self.check
        for cycles, is_write, line, value in zip(
                stream.cycles, stream.ops, stream.lines, stream.values):
            if cycles:
                clock.advance_cycles(cycles)
            if is_write:
                write_data(line, value)
                persisted[line] = value
            else:
                plaintext = read_data(line)
                if check and plaintext != value:
                    raise AssertionError(
                        f"scheme {self.scheme!r} returned wrong data "
                        f"for block {line}: {plaintext} != {value}")
        if stream.tail_cycles:
            clock.advance_cycles(stream.tail_cycles)
        self.accesses += stream.accesses

    # ----------------------------------------------------------- crash
    def crash(self) -> None:
        """Power failure: volatile state is lost; ADR does its job.

        Under an armed fault plan the residual-power budget is drawn
        down in ADR priority order: the device's write-pending queue
        drains first (possibly tearing the line on the energy boundary),
        then the controller's ADR domain flushes from whatever remains.
        """
        from repro.faults.registry import active_plan

        plan = active_plan()
        budget = plan.begin_crash_flush() if plan is not None else None
        self.clock.drain_writes()   # in-flight writes join the WPQ
        self.hierarchy.clear()
        self.device.crash_drain(budget)
        self.controller.crash()
        # architecturally, unflushed stores are gone
        self.current = dict(self.persisted)

    def recover(self):
        """Run the scheme's recovery; returns its RecoveryReport."""
        return self.controller.recover()

    def verify_all_persisted(self) -> int:
        """Read back every persisted block through the secure path and
        compare against the reference model.  Returns blocks checked."""
        checked = 0
        for addr in sorted(self.persisted):
            plaintext = self.controller.read_data(addr)
            if plaintext != self.persisted[addr]:
                raise AssertionError(
                    f"block {addr}: {plaintext} != {self.persisted[addr]}")
            checked += 1
        return checked

    # ----------------------------------------------------------- stats
    def result(self, workload: str) -> RunResult:
        c = self.controller
        return RunResult(
            scheme=self.scheme,
            workload=workload,
            exec_time_ns=self.clock.now_ns,
            data_reads=c.stats.data_reads,
            data_writes=c.stats.data_writes,
            avg_read_latency_ns=c.stats.avg_read_ns,
            avg_write_latency_ns=c.stats.avg_write_ns,
            nvm_write_traffic=self.device.stats.total_writes,
            nvm_read_traffic=self.device.stats.total_reads,
            energy_nj=self.meter.total_nj,
            metadata_cache_hit_rate=c.metacache.stats.hit_rate,
            detail={
                "max_read_latency_ns": c.stats.max_read_latency_ns,
                "max_write_latency_ns": c.stats.max_write_latency_ns,
                **{f"extra_{k}": v for k, v in c.stats.extra.items()},
            },
        )
