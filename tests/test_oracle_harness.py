"""Differential harness unit tests (repro.oracle.harness).

Each case runner is exercised directly on short traces: clean runs must
match, targeted crashes (run by repro.explore.runner, which judges them
with this harness) must recover and match, staged tampers must be loud,
and a deliberately lying controller must produce a divergence — proving
the harness can actually fail.
"""
import numpy as np
import pytest

from repro.common.config import small_config
from repro.common.errors import RecoveryError
from repro.explore.runner import run_case, run_clean
from repro.oracle.harness import (
    TAMPER_KINDS,
    DifferentialRun,
    Divergence,
    OracleCaseResult,
    _straddling_target,
    run_tamper_case,
)
from repro.workloads import get_profile
from repro.workloads.trace import TraceArrays


@pytest.fixture(scope="module")
def cfg():
    return small_config(metadata_cache_bytes=2048)


@pytest.fixture(scope="module")
def trace():
    return get_profile("pers_hash").generate(seed=2024, n=250,
                                             footprint=2048)


def make_trace(ops):
    """(is_write, addr) pairs -> a TraceArrays with zero gaps."""
    return TraceArrays(
        np.array([w for w, _ in ops], dtype=bool),
        np.array([a for _, a in ops], dtype=np.int64),
        np.zeros(len(ops), dtype=np.int32))


# ----------------------------------------------------------- round trips
def test_divergence_and_case_json_roundtrip():
    div = Divergence("read", "block 3", "1", "2")
    assert Divergence.from_json(div.to_json()) == div
    result = OracleCaseResult(
        scheme="steins", workload="pers_hash", outcome="diverged",
        crash_point="controller.write", crash_index=9,
        divergences=[div], detail="x")
    decoded = OracleCaseResult.from_json(result.to_json())
    assert decoded == result
    assert decoded.silent_divergence


# ------------------------------------------------------------ clean runs
@pytest.mark.parametrize("scheme", ["wb", "steins"])
def test_clean_case_matches(scheme, cfg, trace, monkeypatch):
    runs = []
    verify = DifferentialRun.verify_end_state

    def spy(dr):
        runs.append(dr)
        return verify(dr)

    monkeypatch.setattr(DifferentialRun, "verify_end_state", spy)
    result = run_clean(scheme, cfg, trace)
    assert result.outcome == "match"
    assert result.divergences == []
    # a clean match must have checked something: trace loads diffed in
    # lockstep and every written block read back at the end
    assert len(runs) == 1
    assert runs[0].reads > 0
    assert runs[0].blocks_checked > 0


def test_clean_run_catches_lying_reads(cfg, trace, monkeypatch):
    """The clean runner must be able to fail: a controller that returns
    stale data on every load is reported, not passed."""
    init = DifferentialRun.__init__

    def lying_init(dr, *args, **kwargs):
        init(dr, *args, **kwargs)
        honest = dr.controller.read_data
        dr.controller.read_data = lambda addr: honest(addr) + 1

    monkeypatch.setattr(DifferentialRun, "__init__", lying_init)
    result = run_clean("steins", cfg, trace)
    assert result.outcome == "diverged"
    kinds = {d["kind"] for d in result.divergences}
    assert {"read", "readback"} <= kinds


def test_lying_reads_diverge(cfg):
    """The harness must be able to fail: a controller that returns
    stale data produces read divergences, not a pass."""
    dr = DifferentialRun("steins", cfg)
    dr.write(3)
    truth = dr.model.read(3)
    dr.controller.read_data = lambda addr: truth + 1
    dr.read(3)
    dr.verify_end_state()
    kinds = {d.kind for d in dr.divergences}
    assert "read" in kinds and "readback" in kinds


def test_recovery_check_flags_root_rollback(cfg, trace):
    dr = DifferentialRun("steins", cfg)
    dr.run_trace(trace)
    dr.controller.flush_all()
    pre = dr.crash()
    dr.system.recover()
    # forge the snapshot so the live root looks like a regression
    bumped = dict(pre)
    bumped["root"] = [c + 1 for c in dr.controller.root.snapshot()]
    dr.check_recovery(bumped)
    assert any(d.kind == "root-regress" for d in dr.divergences)


# ----------------------------------------------------------- crash cases
def crash(crash_after, **plan):
    return {"mode": "case", "crash_after": crash_after, **plan}


def test_crash_case_recovers_and_matches(cfg, trace):
    result = run_case("steins", cfg, trace, crash(5))
    assert result.outcome == "match"
    assert result.crash_point
    assert result.crash_index < len(trace)


def test_crash_case_on_wb_is_unsupported(cfg, trace):
    result = run_case("wb", cfg, trace, crash(5))
    assert result.outcome == "unsupported"


def test_crash_beyond_fire_span_reports_no_crash(cfg, trace):
    result = run_case("steins", cfg, trace, crash(10_000_000))
    assert result.outcome == "no_crash"


def test_crash_during_recovery_still_converges(cfg, trace):
    result = run_case("steins", cfg, trace,
                      crash(40, recovery_crash_after=1))
    assert result.outcome == "match"
    assert result.recovery_crashed


# ---------------------------------------------------------- tamper cases
@pytest.mark.parametrize("kind", TAMPER_KINDS)
def test_tampers_are_loud_on_steins(kind, cfg, trace):
    result = run_tamper_case(kind, "steins", "pers_hash", trace, cfg)
    assert result.outcome == "detected", result.detail


def test_unknown_tamper_kind_rejected(cfg, trace):
    with pytest.raises(ValueError):
        run_tamper_case("voltage-glitch", "steins", "pers_hash", trace,
                        cfg)


def test_straddling_target_needs_a_block_in_both_halves():
    disjoint = make_trace([(True, 1), (True, 2), (True, 3), (True, 4)])
    with pytest.raises(RecoveryError):
        _straddling_target(disjoint, half=2)
    straddling = make_trace([(True, 1), (True, 2), (True, 2), (False, 1)])
    assert _straddling_target(straddling, half=2) == 2
