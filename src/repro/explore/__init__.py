"""Systematic crash-space exploration (``repro explore``).

Enumerates every crash the fault registry can deliver — torn-write
variants, crashes during recovery, bounded double-crash sequences —
prunes state-equivalent candidates by durable-state digest, and
validates each explored candidate through the differential oracle.
The probe, planner and case runner here are also the engine of the
oracle suite's crash/clean modes and of the fault campaign.
See ``docs/crash_exploration.md``.
"""
from repro.explore.digest import durable_digest
from repro.explore.explorer import (
    ExploreSummary,
    MutantSummary,
    VariantSummary,
    run_explore,
)
from repro.explore.planner import (
    FireClass,
    first_mid_last,
    partition_fires,
    phase1_plans,
    phase2_plans,
    phase3_plans,
    sample,
    second_crash_picks,
    select_frontier,
)
from repro.explore.runner import (
    ExploreCaseResult,
    ExploreProbe,
    probe_specs,
    run_case,
    run_clean,
    run_explore_cell,
    run_probe,
)

__all__ = [
    "ExploreCaseResult",
    "ExploreProbe",
    "ExploreSummary",
    "FireClass",
    "MutantSummary",
    "VariantSummary",
    "durable_digest",
    "first_mid_last",
    "partition_fires",
    "phase1_plans",
    "phase2_plans",
    "phase3_plans",
    "probe_specs",
    "run_case",
    "run_clean",
    "run_explore",
    "run_explore_cell",
    "run_probe",
    "sample",
    "second_crash_picks",
    "select_frontier",
]
