"""Deterministic fault-injection campaign over schemes and workloads.

One *case* is one crash plan run end to end by the crash-space
explorer's case runner (:func:`repro.explore.runner.run_case`): a crash
fires at a chosen injection point mid-operation (optionally with an
exhausted ADR energy budget, optionally followed by a second crash
*inside* the recovery that follows), the machine recovers, the
recovered state is checked against the differential oracle's
reference model, the rest of the trace runs, and every written block is
read back through the secure path.

The campaign spreads crash points evenly (with seeded jitter) over the
fire span an explore probe cell measures — the planner's
:func:`~repro.explore.planner.sample` policy — so coverage tracks the
instrumented persist boundaries rather than wall-clock or access
counts.  Everything derives from the seed: two runs with the same
arguments produce the same report, byte for byte.

Outcome classes
---------------

``match``
    Full success: recovery validated, trace resumed, read-back clean.
``detected``
    A lossy plan (finite ``residual_words``) lost state and a detection
    error surfaced — the acceptable failure mode (Sec. III-H).
``data_loss``
    A lossy plan rolled back writes the reference model had counted as
    persisted; expected only when the ADR energy contract is broken.
``unsupported``
    The scheme has no recovery path (WB) — crash coverage still
    exercises its runtime persist boundaries.
``no_crash``
    The plan's trigger lay beyond the trace's fire span.
``diverged``
    Anything else: silent corruption, lost state, or a detection error
    under a *healthy* ADR.  Always a bug; the campaign minimizes the
    reproducing trace prefix and fails the run.

This module imports :mod:`repro.sim` and therefore must never be pulled
in by ``repro.faults.__init__`` (the registry is imported from the hot
paths the simulator is built out of).
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.common.config import SystemConfig, small_config
from repro.common.rng import derive_seed
from repro.explore import runner
from repro.explore.planner import sample
from repro.schemes import resolve_schemes
from repro.sim.system import SecureNVMSystem
from repro.workloads import get_profile
from repro.workloads.trace import TraceArrays

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import ResultCache


def minimize_case(scheme: str, cfg: SystemConfig, trace: TraceArrays,
                  plan: dict[str, Any], require_point: str = "") -> int:
    """Smallest trace prefix (in accesses) that still diverges.

    Binary search: divergence is near-monotone in the prefix length
    because the crash trigger is a fire *count* — prefixes too short to
    reach it cannot diverge.  Best effort, never worse than the full
    trace.

    ``require_point`` pins the minimized reproduction to the original
    failure: each candidate prefix is re-run end to end through
    :func:`repro.explore.runner.run_case` (so the crash trigger lands
    wherever it actually lands on the shortened trace), and a prefix
    only counts as reproducing if its crash fires at the same injection
    point.  Without the pin, a truncated trace can diverge through a
    *different* crash (the trigger is a global fire count, and what the
    resumed suffix exercises changes with the prefix length), so the
    reported minimized repro would crash at the wrong fire and debug a
    different bug than the campaign hit.
    """
    def diverges(n: int) -> bool:
        result = runner.run_case(scheme, cfg, trace.head(n), plan)
        if result.outcome != "diverged":
            return False
        return not require_point or result.crash_point == require_point

    lo, hi = 1, len(trace)
    if not diverges(hi):
        return hi
    while lo < hi:
        mid = (lo + hi) // 2
        if diverges(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def run_campaign(schemes: list[str], workloads: list[str],
                 crashes: int = 200, seed: int = 2024,
                 accesses: int = 400, footprint: int = 2048,
                 cfg: SystemConfig | None = None,
                 jobs: int = 1, cache: "ResultCache | None" = None,
                 progress: Any = None,
                 service: str | None = None) -> dict[str, Any]:
    """Run the full campaign; returns a JSON-serializable report.

    Probes and cases run as ``"explore"`` cells over ``repro.exec``
    (``jobs`` worker processes, optional result cache; ``service``
    routes both sweeps to a running ``repro serve`` socket instead).
    The report is a pure function of the campaign parameters: it never
    contains timing or worker-count information, so serial, parallel,
    and distributed runs compare byte for byte.
    """
    from repro.exec import CellSpec, config_to_dict, run_sweep

    schemes = resolve_schemes(schemes)
    if cfg is None:
        cfg = small_config(metadata_cache_bytes=2048)
    cfg_dict = config_to_dict(cfg)

    def sweep(specs: list[CellSpec]) -> list[Any]:
        return run_sweep(specs, jobs=jobs, cache=cache, progress=progress,
                         service=service).values

    cells = [(s, w) for s in schemes for w in workloads]
    probes = sweep(runner.probe_specs(cells, accesses, footprint, seed,
                                      cfg_dict))
    per_cell = max(1, crashes // len(cells))
    report_cells: dict[str, dict[str, Any]] = {}
    cases: list[tuple[str, str, dict[str, Any]]] = []
    for (scheme, workload), probe in zip(cells, probes):
        span = len(probe.fires)
        report_cells[f"{scheme}/{workload}"] = {
            "cases": 0, "outcomes": {}, "fire_span": span}
        cases.extend((scheme, workload, plan) for plan in sample(
            span, per_cell, derive_seed(seed, "faults", scheme, workload)))
    results = sweep([CellSpec("explore", scheme, workload, accesses,
                              footprint, seed, check=False,
                              config=cfg_dict, fault=plan)
                     for scheme, workload, plan in cases])

    outcomes: dict[str, int] = {}
    crash_points: dict[str, int] = {}
    diverged: list[dict[str, Any]] = []
    for (scheme, workload, plan), result in zip(cases, results):
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        if result.crash_point:
            crash_points[result.crash_point] = \
                crash_points.get(result.crash_point, 0) + 1
        cell = report_cells[f"{scheme}/{workload}"]
        cell["cases"] += 1
        cell["outcomes"][result.outcome] = \
            cell["outcomes"].get(result.outcome, 0) + 1
        if result.outcome == "diverged":
            entry: dict[str, Any] = {
                "scheme": scheme, "workload": workload,
                "crash_after": plan["crash_after"],
                "recovery_crash_after": plan.get("recovery_crash_after"),
                "residual_words": plan.get("residual_words"),
                "crash_point": result.crash_point,
                "crash_index": result.crash_index,
                "detail": result.detail,
            }
            if len(diverged) < 3:  # minimization is a full re-run loop
                trace = get_profile(workload).generate(
                    seed=seed, n=accesses, footprint=footprint)
                entry["minimized_prefix"] = minimize_case(
                    scheme, cfg, trace, plan,
                    require_point=result.crash_point)
            diverged.append(entry)
    return {
        "seed": seed,
        "crashes_requested": crashes,
        "accesses": accesses,
        "footprint": footprint,
        "schemes": list(schemes),
        "workloads": list(workloads),
        "cases": len(cases),
        "outcomes": outcomes,
        "cells": report_cells,
        "crash_points": crash_points,
        "diverged": diverged,
    }


def controller_fingerprint(system: SecureNVMSystem) -> tuple:
    """A comparable snapshot of every architectural state a recovery
    touches — NVM contents, cache residency (with ways), registers —
    used by the idempotence property tests.  Stats and timing excluded.
    """
    c = system.controller
    device = tuple(sorted(
        ((region.value, idx), value)
        for (region, idx), value in system.device.lines()))
    cache = tuple(sorted(
        (offset, c.metacache.way_of(offset), node.snapshot(), dirty)
        for offset, node, dirty in c.metacache.entries()))
    extras: list[tuple] = []
    lincs = getattr(c, "lincs", None)
    if lincs is not None:
        extras.append(("lincs", tuple(lincs.values())))
    nv_buffer = getattr(c, "nv_buffer", None)
    if nv_buffer is not None:
        extras.append(("nv_buffer", tuple(
            (u.child_level, u.child_index, u.generated_counter)
            for u in nv_buffer.entries)))
    recovery_root = getattr(c, "recovery_root", None)
    if recovery_root is not None:
        extras.append(("recovery_root", recovery_root.value))
    cache_tree = getattr(c, "cache_tree", None)
    if cache_tree is not None:
        extras.append(("cache_tree_root", cache_tree.root))
    return (device, cache, c.root.snapshot(), tuple(extras))
