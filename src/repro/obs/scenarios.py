"""Instrumented demo runners behind ``trace``, ``stats`` and ``profile``.

:mod:`repro.scenarios` names them.  Each runner builds a fully
deterministic workload — seeded scheduler, placement-aware network
transport (so spans have real virtual-time width), an attached
:class:`~repro.obs.metrics.RuntimeMetrics` sink — runs it, and returns
everything the CLI needs.  The scenarios deliberately reuse the
same script library the demos and benchmarks exercise; the only difference
is the instrumentation and the explicit, counter-free instance names that
keep same-seed exports byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Generator, Hashable

from ..net import NetworkTransport, complete, ring, star
from ..runtime import Scheduler
from ..runtime.scheduler import RunResult
from .metrics import RuntimeMetrics

Body = Generator[Any, Any, Any]

@dataclasses.dataclass(slots=True)
class ScenarioRun:
    """One instrumented scenario execution."""

    seed: int
    scheduler: Scheduler
    metrics: RuntimeMetrics
    result: RunResult
    headline: str


def _instrument(scheduler: Scheduler, transport: Any,
                profiler: Any) -> RuntimeMetrics:
    """Attach the standard metrics sink, plus an optional profiler on top.

    Order matters: the profiler tees onto whatever sink is already
    installed, so metrics keep flowing while phase timing is armed.
    """
    metrics = RuntimeMetrics().attach(scheduler, transport)
    if profiler is not None:
        profiler.attach(scheduler)
    return metrics


def run_demo_broadcast(seed: int, n: int = 5,
                       profiler: Any = None) -> ScenarioRun:
    """Star broadcast, two performances, unit-latency star network."""
    from ..scripts import make_broadcast
    from ..scripts.broadcast import data_param_name, sender_role_name

    scheduler = Scheduler(seed=seed)
    placement: dict[Hashable, Any] = {"T": "hub"}
    placement.update({("R", i): ("leaf", i) for i in range(1, n + 1)})
    transport = NetworkTransport(star(n), placement)
    scheduler.transport = transport
    metrics = _instrument(scheduler, transport, profiler)

    script = make_broadcast(n, "star")
    instance = script.instance(scheduler, name="demo_broadcast")
    sender_role = sender_role_name(script)
    param = data_param_name(script, sender_role)
    rounds = 2

    def transmitter() -> Body:
        for round_no in range(rounds):
            yield from instance.enroll(sender_role,
                                       **{param: ("demo", round_no)})

    def recipient(i: int) -> Body:
        for _ in range(rounds):
            yield from instance.enroll(("recipient", i))

    scheduler.spawn("T", transmitter())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient(i))
    result = scheduler.run()
    headline = (f"star broadcast to {n} recipients, {rounds} performances, "
                f"{transport.stats.messages} messages, "
                f"t={result.time:g}")
    return ScenarioRun(seed, scheduler, metrics, result, headline)


def run_demo_lock(seed: int, n: int = 5,
                  profiler: Any = None) -> ScenarioRun:
    """The Figure 5 lock-manager workload on a complete unit-latency net."""
    from ..scripts import ONE_READ_ALL_WRITE, ReplicatedLockService

    k = 3
    scheduler = Scheduler(seed=seed)
    placement: dict[Hashable, Any] = {"driver": ("n", k)}
    placement.update({("manager-proc", index): ("n", index - 1)
                      for index in range(1, k + 1)})
    transport = NetworkTransport(complete(k + 1), placement)
    scheduler.transport = transport
    metrics = _instrument(scheduler, transport, profiler)

    service = ReplicatedLockService(scheduler, k=k,
                                    strategy=ONE_READ_ALL_WRITE,
                                    instance_name="demo_lock")
    ops = [("alice", "reader", "x", "lock"),
           ("bob", "writer", "x", "lock"),
           ("alice", "reader", "x", "release"),
           ("bob", "writer", "x", "lock")]
    service.expect_operations(len(ops))
    service.spawn_managers()

    def driver() -> Body:
        statuses = []
        for owner, role, item, op in ops:
            status = yield from service.request(role, owner, item, op)
            statuses.append(status)
        return statuses

    scheduler.spawn("driver", driver())
    result = scheduler.run()
    statuses = ", ".join(result.results["driver"])
    headline = (f"lock manager (k={k}): {len(ops)} operations -> {statuses}; "
                f"t={result.time:g}")
    return ScenarioRun(seed, scheduler, metrics, result, headline)


def run_demo_election(seed: int, n: int = 5,
                      profiler: Any = None) -> ScenarioRun:
    """Ring leader election over a unit-latency ring network."""
    from ..scripts import make_ring_election

    scheduler = Scheduler(seed=seed)
    placement = {("S", i): ("n", i - 1) for i in range(1, n + 1)}
    transport = NetworkTransport(ring(n), placement)
    scheduler.transport = transport
    metrics = _instrument(scheduler, transport, profiler)

    # Seed-rotated ids: the winner's position varies with the seed while
    # the winning id stays max(ids), like the plain `demo election`.
    ids = list(range(1, n + 1))
    ids[seed % n], ids[-1] = ids[-1], ids[seed % n]
    script = make_ring_election(n)
    instance = script.instance(scheduler, name="demo_election")

    def station(i: int) -> Body:
        out = yield from instance.enroll(("station", i), my_id=ids[i - 1])
        return out["leader"]

    for i in range(1, n + 1):
        scheduler.spawn(("S", i), station(i))
    result = scheduler.run()
    leaders = {result.results[("S", i)] for i in range(1, n + 1)}
    headline = (f"ring election over ids {ids}: leader(s) {sorted(leaders)}, "
                f"t={result.time:g}")
    return ScenarioRun(seed, scheduler, metrics, result, headline)
