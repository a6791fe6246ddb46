"""Chaos soak: seeded fault schedules over many performances, no residue.

``run_chaos_broadcast``/``run_chaos_lock`` already assert the residue
invariants internally (raising ChaosInvariantError on violation), so a
soak that completes IS the assertion; the checks here are on the report.
"""

import pytest

from repro.errors import ChaosInvariantError
from repro.faults import (FaultPlan, run_chaos_broadcast, run_chaos_lock,
                          soak)
from repro.scenarios import verify_determinism


def test_broadcast_soak_hundred_seeds():
    report = soak("broadcast", runs=100, seed=0)
    assert sum(report.outcomes.values()) == 100
    assert report.performances >= 100
    # With these fault probabilities some runs crash roles and some runs
    # lose the sender entirely; a soak where nothing happened would be
    # vacuous.
    assert report.crashes > 0
    assert report.aborts > 0
    assert report.outcomes["completed"] > report.outcomes["aborted"]


def test_lock_soak_fifty_seeds():
    report = soak("lock", runs=50, seed=1000)
    assert sum(report.outcomes.values()) == 50
    assert report.performances >= 50
    assert report.crashes > 0


def test_soak_rejects_unknown_script():
    with pytest.raises(ChaosInvariantError):
        soak("teleport", runs=1)


def test_same_seed_replays_bit_for_bit():
    assert verify_determinism("broadcast", seed=42)
    assert verify_determinism("lock", seed=42)


def test_single_run_report_fields():
    run = run_chaos_broadcast(seed=7)
    assert run.seed == 7
    assert run.outcome in ("completed", "aborted")
    assert run.performances >= 1
    assert run.time > 0.0
    assert isinstance(run.faults, list)
    assert run.trace  # formatted trace captured for replay comparison


def test_explicit_plan_overrides_the_seeded_schedule():
    # Kill the sender mid-broadcast: the critical-role policy must abort.
    plan = FaultPlan().crash(4.0, "S")
    run = run_chaos_broadcast(seed=3, plan=plan)
    assert run.outcome == "aborted"
    assert "S" in run.killed
    assert run.aborts == 1


def test_lock_run_with_explicit_client_crash():
    plan = FaultPlan().crash(2.0, ("client", 1))
    run = run_chaos_lock(seed=5, plan=plan)
    assert ("client", 1) in run.killed
    assert run.outcome in ("completed", "aborted")
