"""Keyed wake-ups: ``WaitUntil(..., on=key)`` and ``Scheduler.notify``.

A keyed waiter's predicate is polled only at the settle after its key is
notified, so a state change without its notify is a silent missed wake-up.
:class:`NotifyOracleScheduler` turns that into a loud failure: after every
settle it polls each keyed waiter that is *not* due and fails if any
predicate already holds.  It runs over the registered scenarios (chaos
soaks with supervision, the recovery soak, the demos) and the figure
scripts, and must itself catch a deleted notify.
"""

from __future__ import annotations

import importlib

import pytest

from repro import scenarios
from repro.errors import DeadlockError
from repro.runtime import (Delay, GetName, Scheduler, Trace, WaitUntil,
                           format_trace)
from tests.core import test_trace_digests as digests


class MissedNotify(AssertionError):
    """A keyed predicate held although its key was never notified."""


class NotifyOracleScheduler(Scheduler):
    """A scheduler that checks the notify-site invariant after each settle."""

    #: Keyed waiters checked so far, so a test can tell it checked any.
    checked = 0

    def _settle(self) -> None:
        super()._settle()
        for key, parked in self._keyed.items():
            for name, waiter in parked.items():
                NotifyOracleScheduler.checked += 1
                if waiter.predicate():
                    raise MissedNotify(
                        f"{name!r} waits until {waiter.description} on "
                        f"{key!r}: the predicate holds but the key was "
                        f"never notified")


@pytest.fixture
def oracle(monkeypatch):
    """Build every scenario's and figure runner's scheduler as the oracle."""
    for name in ("repro.faults.soak", "repro.obs.scenarios",
                 "repro.recovery.soak"):
        monkeypatch.setattr(importlib.import_module(name), "Scheduler",
                            NotifyOracleScheduler)
    monkeypatch.setattr(digests, "Scheduler", NotifyOracleScheduler)
    monkeypatch.setattr(NotifyOracleScheduler, "checked", 0)


@pytest.mark.parametrize("name,seeds", [
    ("broadcast", range(8)), ("lock", range(8)), ("chatroom", range(8)),
])
def test_chaos_and_supervision_seeds_miss_no_notify(oracle, name, seeds):
    entry = scenarios.get(name, scenarios.CHAOS)
    for seed in seeds:
        entry.run(seed)


def test_recover_seeds_miss_no_notify(oracle):
    entry = scenarios.get(scenarios.RECOVER, scenarios.JOURNAL)
    for seed in range(6):
        entry.run(seed)
    assert NotifyOracleScheduler.checked > 0


@pytest.mark.parametrize("name", scenarios.names(scenarios.TRACE))
def test_demo_seeds_miss_no_notify(oracle, name):
    for seed in range(3):
        scenarios.get(name, scenarios.TRACE).run(seed)
    assert NotifyOracleScheduler.checked > 0


@pytest.mark.parametrize("case", [
    "star/n50", "pipeline/n20", "token_ring/x3", "fig08-ada/n5",
    "fig12-monitor/n5"])
def test_figure_scripts_miss_no_notify(oracle, case):
    digests.CASES[case]()


@pytest.mark.parametrize("strategy", ["star", "pipeline", "tree",
                                      "star_nondet"])
def test_broadcast_strategies_miss_no_notify(oracle, strategy):
    digests._broadcast_trace(strategy, 6)


def test_oracle_catches_a_deleted_notify(oracle, monkeypatch):
    monkeypatch.setattr(NotifyOracleScheduler, "notify", lambda self, key: None)
    with pytest.raises(MissedNotify):
        digests.CASES["star/n50"]()


# ---------------------------------------------------------------------------
# Unit behaviour
# ---------------------------------------------------------------------------

def _keyed_waiter(box, key, log):
    def body():
        name = yield GetName()
        yield WaitUntil(lambda: box["go"], "go", on=key)
        log.append(name)
    return body()


def _clock(until):
    """Keeps a timer armed so ``run(until=...)`` pauses instead of
    declaring the parked waiters deadlocked."""
    def body():
        yield Delay(until)
    return body()


def _index_is_empty(scheduler):
    return (not scheduler._waiters and not scheduler._keyed
            and not scheduler._due and not scheduler._unkeyed)


def test_keyed_waiter_wakes_only_after_its_key_is_notified():
    box = {"go": False}
    log = []
    scheduler = Scheduler()
    scheduler.spawn("w", _keyed_waiter(box, "k", log))

    def setter(notify):
        def body():
            yield Delay(1)
            box["go"] = True
            if notify:
                scheduler.notify("k")
            yield Trace("set")
        return body()

    scheduler.spawn("s", setter(notify=False))
    with pytest.raises(DeadlockError):
        scheduler.run()
    assert log == []

    box["go"] = False
    log.clear()
    scheduler = Scheduler()
    scheduler.spawn("w", _keyed_waiter(box, "k", log))
    scheduler.spawn("s", setter(notify=True))
    scheduler.run()
    assert log == ["w"]
    assert _index_is_empty(scheduler)


def test_satisfied_waiters_wake_in_park_order_keyed_or_not():
    box = {"go": False}
    log = []

    def unkeyed():
        name = yield GetName()
        yield WaitUntil(lambda: box["go"], "go")
        log.append(name)

    scheduler = Scheduler()
    scheduler.spawn("a", _keyed_waiter(box, "k2", log))
    scheduler.spawn("b", unkeyed())
    scheduler.spawn("c", _keyed_waiter(box, "k1", log))
    scheduler.spawn("d", _keyed_waiter(box, "k2", log))

    def setter():
        yield Delay(1)
        box["go"] = True
        scheduler.notify("k1")
        scheduler.notify("k2")
        yield Trace("set")

    scheduler.spawn("s", setter())
    scheduler.run()
    assert log == ["a", "b", "c", "d"]


def test_unsatisfied_keyed_waiter_returns_to_its_key():
    box = {"go": False}
    log = []
    scheduler = Scheduler()
    scheduler.spawn("w", _keyed_waiter(box, "k", log))

    def setter():
        yield Delay(1)
        scheduler.notify("k")       # predicate still false
        yield Delay(1)
        box["go"] = True
        scheduler.notify("k")
        yield Trace("set")

    scheduler.spawn("s", setter())
    scheduler.run(until=1.5)
    assert list(scheduler._keyed) == ["k"] and not scheduler._due
    scheduler.run()
    assert log == ["w"]


@pytest.mark.parametrize("notified", [False, True])
def test_kill_interrupt_and_respawn_leave_no_stale_index_entry(notified):
    box = {"go": False}
    log = []
    scheduler = Scheduler(fail_fast=False)  # "interrupted" dies of its error
    scheduler.spawn("clock", _clock(10))
    for name in ("killed", "interrupted"):
        scheduler.spawn(name, _keyed_waiter(box, "k", log))
    scheduler.run(until=1)
    assert scheduler.waiter_count == 2
    if notified:
        scheduler.notify("k")       # both now sit in the due index
    scheduler.kill("killed")
    scheduler.interrupt("interrupted", RuntimeError("stop"))
    assert _index_is_empty(scheduler)
    scheduler.respawn("killed", _keyed_waiter(box, "k", log))
    scheduler.run(until=2)
    assert list(scheduler._keyed["k"]) == ["killed"]
    scheduler.kill("killed")
    assert _index_is_empty(scheduler)
    scheduler.run()
    assert log == []


def test_notify_of_an_unknown_key_does_nothing():
    box = {"go": False}
    scheduler = Scheduler()
    scheduler.spawn("clock", _clock(10))
    scheduler.spawn("w", _keyed_waiter(box, "k", []))
    scheduler.run(until=1)
    before = (dict(scheduler._keyed["k"]), dict(scheduler._due),
              scheduler.state_digest())
    scheduler.notify("nobody-waits-on-this")
    scheduler.notify(("k",))
    after = (dict(scheduler._keyed["k"]), dict(scheduler._due),
             scheduler.state_digest())
    assert before == after


def _blocked_run(key):
    """Three processes parked on a never-true predicate, keyed or not."""
    scheduler = Scheduler(seed=3)

    def stuck(index):
        yield Delay(index)
        yield WaitUntil(lambda: False, f"never {index}", on=key)

    scheduler.spawn("clock", _clock(5))
    for index in range(3):
        scheduler.spawn(("p", index), stuck(index))
    scheduler.run(until=4)
    counts = (scheduler.waiter_count, scheduler.state_digest())
    with pytest.raises(DeadlockError) as excinfo:
        scheduler.run()
    return counts, excinfo.value.blocked, str(excinfo.value), \
        format_trace(scheduler.tracer)


def test_waiter_count_digest_and_deadlock_summary_ignore_keys():
    assert _blocked_run("some-key") == _blocked_run(None)
