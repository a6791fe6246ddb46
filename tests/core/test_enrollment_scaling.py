"""Count-based scaling guard for the enrollment path (no timing).

On the Figure 3 star with recipients re-enrolling performance after
performance, the coordinator must run the matcher at most twice per
performance, and the scheduler must poll a number of waiter predicates
per committed message that does not grow with the number of recipients.
Both counts are deterministic, so the guard is exact where a wall-clock
bound would be noisy.
"""

from __future__ import annotations

import pytest

import repro.core.instance as instance_mod
from repro.core import Ref
from repro.obs.profile import Profiler
from repro.runtime import Scheduler
from repro.scripts.broadcast import make_star_broadcast

PERFORMANCES = 4

#: Waiter predicates polled per committed message, for any n.  Each
#: recipient's enrollment and delayed-termination waits are each polled
#: once per performance (two per message), whatever n is.
POLLS_PER_COMMIT = 3


def _run_star(n, monkeypatch):
    calls = []
    real_solve = instance_mod.solve

    def counting_solve(*args, **kwargs):
        calls.append(len(args[0]))
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(instance_mod, "solve", counting_solve)
    scheduler = Scheduler(seed=1)
    profiler = Profiler().attach(scheduler)
    instance = make_star_broadcast(n).instance(scheduler, name="star")

    def sender():
        for k in range(PERFORMANCES):
            yield from instance.enroll("sender", data=k)

    def recipient(i):
        got = []
        for _ in range(PERFORMANCES):
            out = yield from instance.enroll(("recipient", i), data=Ref())
            got.append(out["data"])
        return got

    scheduler.spawn("sender", sender())
    for i in range(1, n + 1):
        scheduler.spawn(("recipient", i), recipient(i))
    result = scheduler.run()
    assert all(result.results[("recipient", i)] == list(range(PERFORMANCES))
               for i in range(1, n + 1))
    assert instance.performance_count == PERFORMANCES
    return calls, profiler


@pytest.mark.parametrize("n", [10, 50, 200])
def test_solve_runs_at_most_twice_per_performance(n, monkeypatch):
    calls, _ = _run_star(n, monkeypatch)
    assert len(calls) <= 2 * PERFORMANCES


@pytest.mark.parametrize("n", [10, 50, 200])
def test_waiter_polls_per_commit_do_not_grow_with_n(n, monkeypatch):
    _, profiler = _run_star(n, monkeypatch)
    assert profiler.commits == n * PERFORMANCES
    assert profiler.waiters_polled / profiler.commits < POLLS_PER_COMMIT
