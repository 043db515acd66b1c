"""Suite planning and execution (repro.oracle.sweep).

Planning is pure and pinned here case by case; execution is covered by
one small end-to-end suite run through repro.exec with a cache, which
must be clean on first contact and fully cached on the second, and by
the pinned per-scheme outcome counts of ``repro oracle --all-schemes
--seed 1``.
"""
import pytest

from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.exec.cache import ResultCache
from repro.explore.planner import first_mid_last
from repro.explore.runner import ExploreCaseResult, ExploreProbe, run_probe
from repro.oracle.harness import OracleCaseResult
from repro.oracle.mutants import MUTANTS
from repro.oracle.sweep import (
    SuiteSummary,
    build_suite,
    mutant_plans_for,
    run_oracle_cell,
    run_oracle_suite,
    tamper_plans_for,
)
from repro.workloads import get_profile


@pytest.fixture(scope="module")
def cfg():
    return small_config(metadata_cache_bytes=2048)


@pytest.fixture(scope="module")
def trace():
    return get_profile("pers_hash").generate(seed=2024, n=250,
                                             footprint=2048)


# -------------------------------------------------------------- planning
def probe_of(points):
    """A synthetic probe whose fires hit ``points`` in order."""
    return ExploreProbe(fires=tuple((p, i, f"d{i}")
                                    for i, p in enumerate(points)))


def test_probe_fire_log_orders_runtime_fires(cfg, trace):
    probe = run_probe("steins", cfg, trace)
    points = [point for point, _access, _digest in probe.fires]
    assert points, "a write-heavy trace must fire injection points"
    assert "controller.write" in points
    # the probe is deterministic: same trace, same fire list
    assert probe == run_probe("steins", cfg, trace)


def test_crash_plans_pick_first_middle_last():
    plans = first_mid_last(probe_of(["a", "b", "a", "a"]))
    aimed = [p["crash_after"] for p in plans
             if "recovery_crash_after" not in p]
    # points in name order: a's first/middle/last, then b's only fire
    assert aimed == [1, 3, 4, 2]
    recovery = [p for p in plans if "recovery_crash_after" in p]
    assert recovery == [
        {"mode": "case", "crash_after": 3, "recovery_crash_after": 1},
        {"mode": "case", "crash_after": 3, "recovery_crash_after": 2}]


def test_crash_plans_empty_log_plans_nothing():
    assert first_mid_last(ExploreProbe(fires=())) == []


def test_tamper_plans_respect_recovery_support():
    steins = {p["attack"] for p in tamper_plans_for("steins")}
    wb = {p["attack"] for p in tamper_plans_for("wb")}
    assert "tree-counter" in steins and "tree-replay" in steins
    assert wb == steins - {"tree-counter", "tree-replay"}


def test_mutant_plans_follow_the_registry():
    for scheme in ("wb", "steins"):
        names = {p["mutant"] for p in mutant_plans_for(scheme)}
        assert names == {n for n, m in MUTANTS.items()
                         if scheme in m.schemes}


def fake_probe(specs):
    """Stands in for the probe sweep: one synthetic fire list per
    explore probe cell."""
    assert all(s.kind == "explore" and s.fault == {"mode": "probe"}
               for s in specs)
    return [probe_of(["a", "b", "a"]) for _ in specs]


def suite(cfg):
    return build_suite(["steins"], ["pers_hash"], accesses=250,
                       footprint=2048, seed=2024, cfg=cfg,
                       probe=fake_probe)


def test_build_suite_covers_all_modes(cfg):
    specs = suite(cfg)
    kinds = {(s.kind, s.fault["mode"]) for s in specs}
    # clean runs and crashes are explore cells, judged by the one
    # crash-case runner; tampers and mutants stay oracle cells
    assert kinds == {("explore", "clean"), ("explore", "case"),
                     ("oracle", "tamper"), ("oracle", "mutant")}


def test_run_oracle_cell_rejects_unknown_mode(cfg, trace):
    with pytest.raises(ConfigError):
        run_oracle_cell("steins", "pers_hash", {"mode": "psychic"}, cfg,
                        trace)


# --------------------------------------------------------------- tallies
def fake(outcome):
    return OracleCaseResult(scheme="s", workload="w", outcome=outcome)


def spec_with(plan, cfg):
    return next(s for s in suite(cfg) if s.fault["mode"] == plan)


def test_summary_acceptance_bar(cfg):
    tally = SuiteSummary(schemes=["steins"], workloads=["pers_hash"])
    tally.add(spec_with("clean", cfg), fake("match"), cached=False)
    tally.add(spec_with("tamper", cfg), fake("neutralized"), cached=True)
    tally.add(spec_with("mutant", cfg), fake("detected"), cached=False)
    assert tally.ok and not tally.failures
    assert (tally.cells_executed, tally.cells_cached) == (2, 1)
    # a crash-case divergence is both a failure and a *silent* one,
    # reported with the injection point its crash hit
    tally.add(spec_with("case", cfg),
              ExploreCaseResult(outcome="diverged",
                                crash_point="controller.write"),
              cached=False)
    # an escaped mutant fails without being a silent divergence
    tally.add(spec_with("mutant", cfg), fake("match"), cached=False)
    assert not tally.ok
    assert len(tally.failures) == 2
    assert len(tally.silent_divergences) == 1
    assert tally.to_json()["ok"] is False
    assert tally.failures[0]["crash_point"] == "controller.write"
    fails = [line for line in tally.summary_lines()
             if line.startswith("FAIL")]
    assert len(fails) == 2 and "at controller.write:" in fails[0]


# ------------------------------------------------------------ end to end
@pytest.mark.slow
def test_small_suite_is_clean_then_fully_cached(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    kwargs = dict(schemes=["steins"], accesses=250, footprint=2048,
                  seed=2024, jobs=1, cache=cache)
    first = run_oracle_suite(**kwargs)
    assert first.ok, first.summary_lines()
    assert first.cells_executed > 0 and first.cells_cached == 0
    second = run_oracle_suite(**kwargs)
    assert second.ok
    assert second.cells_executed == 0
    assert second.cells_cached == len(second.cases)
    assert second.outcome_counts == first.outcome_counts


#: per-scheme clean and crash outcome counts of ``repro oracle
#: --all-schemes --seed 1``, recorded before the crash modes moved onto
#: repro.explore's probe, planner and case runner
ORACLE_SEED1_PINS = {
    **{scheme: {"clean": {"match": 1}, "case": {"match": 17}}
       for scheme in ("asit", "phoenix", "scue", "secpm", "star")},
    "steins": {"clean": {"match": 1}, "case": {"match": 20}},
    "wb": {"clean": {"match": 1}, "case": {"unsupported": 17}},
}


@pytest.mark.slow
def test_all_scheme_seed1_outcomes_are_pinned():
    tally = run_oracle_suite(seed=1, jobs=2)
    counts: dict = {}
    for case in tally.cases:
        if case["mode"] in ("clean", "case"):
            row = counts.setdefault(case["scheme"], {}).setdefault(
                case["mode"], {})
            row[case["outcome"]] = row.get(case["outcome"], 0) + 1
    assert counts == ORACLE_SEED1_PINS
    assert tally.outcome_counts == {"detected": 48, "diverged": 7,
                                    "match": 112, "neutralized": 3,
                                    "unsupported": 17}
    assert tally.ok
