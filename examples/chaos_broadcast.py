"""Chaos broadcast: fault injection, supervision, and graceful degradation.

Three escalating scenarios over the open-membership chaos broadcast
(a sender on a star-network hub, recipients on the leaves, only the sender
critical):

1. a hand-written fault plan crashes one recipient mid-performance — the
   broadcast *completes*, the dead recipient demoted to the paper's
   absent-role semantics (``r.terminated`` true, partners released);
2. the same plan aimed at the sender — the performance *aborts*, every
   survivor released cleanly with ``PerformanceAborted``;
3. a seeded random soak: 40 runs, each under its own derived fault
   schedule (crashes, a link partition window, latency spikes, drops),
   with kernel-residue invariants checked after every run, then a
   determinism replay of one seed.

Run:  python examples/chaos_broadcast.py
"""

from repro.faults import FaultPlan, run_chaos_broadcast, soak
from repro.scenarios import verify_determinism


def crash_one_recipient():
    plan = FaultPlan().crash(4.0, ("R", 2))  # after the 3.0 seal window
    run = run_chaos_broadcast(seed=1, plan=plan)
    print("1. recipient 2 crashes at t=4")
    print(f"   outcome: {run.outcome}; killed: {run.killed}")
    for i in range(1, 5):
        value = run.results.get(("R", i), "<crashed>")
        print(f"   recipient[{i}] -> {value!r}")


def crash_the_sender():
    plan = FaultPlan().crash(4.0, "S")
    run = run_chaos_broadcast(seed=1, plan=plan)
    print("2. the critical sender crashes at t=4")
    print(f"   outcome: {run.outcome} "
          f"(aborted performances: {run.aborts})")
    for i in range(1, 5):
        print(f"   recipient[{i}] -> {run.results.get(('R', i))!r}")


def seeded_soak():
    print("3. seeded soak, 40 runs")
    report = soak("broadcast", runs=40, seed=0)
    for line in report.lines():
        print("   " + line)
    replayed = verify_determinism("broadcast", seed=11)
    print(f"   seed 11 replayed {'identically' if replayed else 'differently'}")


if __name__ == "__main__":
    crash_one_recipient()
    crash_the_sender()
    seeded_soak()
