"""Chaos soak harness: many performances under seeded fault schedules.

The harness runs three scripts — the broadcast (Section II's running
example, in an open-membership chaos variant), the Figure 5 replicated
lock manager, and an open chatroom with member churn (Section V's
open-ended scripts under load) — for hundreds of performances, each under
a deterministic :class:`~repro.faults.plan.FaultPlan`, and checks after
every run that the kernel is residue-free:

* the rendezvous board is empty (no orphaned offers),
* no process is still parked on a condition,
* no timers are armed,
* the alias registry is empty (crashes and aborts dropped every role
  address),
* every enrollment pool drained and every performance ended.

Semantic invariants ride along: a completed chaos broadcast must have
delivered the payload to every surviving recipient, and an aborted one
must stem from a sender crash.  Violations raise
:class:`~repro.errors.ChaosInvariantError` naming the seed, so a soak
failure is a one-seed reproduction recipe.

Determinism is checked separately by
:func:`repro.scenarios.verify_determinism`: the same seed must produce a
byte-identical formatted trace, faults included.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from typing import Any, Generator, Hashable

from ..core import (Initiation, Mode, Param, ScriptDef, ScriptInstance,
                    SealPolicy, SendTo, Termination, UNFILLED)
from ..errors import ChaosInvariantError, PerformanceAborted
from ..net import NetworkTransport, complete, star
from ..runtime import TIMED_OUT, Delay, Scheduler, format_trace
from ..scripts.lockmanager import MAJORITY, ReplicatedLockService
from .plan import FaultPlan
from .reporting import kv_lines

Body = Generator[Any, Any, Any]


# ---------------------------------------------------------------------------
# The chaos broadcast script (open membership, manual seal, critical sender)
# ---------------------------------------------------------------------------

def make_chaos_broadcast(n: int = 4,
                         enroll_window: float = 3.0) -> ScriptDef:
    """A broadcast built to be crashed into.

    Immediate initiation with a *manual* seal: the sender waits
    ``enroll_window`` virtual-time units for recipients to trickle in,
    seals the performance itself, and broadcasts to whoever made it —
    absent recipients get the paper's unfilled-role treatment.  Only the
    sender is critical, so a recipient crash demotes to absence while a
    sender crash aborts the performance.

    Recipients receive with a timeout and retry, so a link partition that
    outlasts one rendezvous attempt is survived rather than wedged.
    """
    script = ScriptDef("chaos_broadcast", initiation=Initiation.IMMEDIATE,
                       termination=Termination.IMMEDIATE)

    @script.role("sender", params=[Param("data", Mode.IN)])
    def sender(ctx: Any, data: Any) -> Body:
        yield Delay(enroll_window)
        ctx.close_enrollment()
        for i in ctx.family_indices("recipient"):
            yield from ctx.send(("recipient", i), data)

    @script.role_family("recipient", range(1, n + 1),
                        params=[Param("data", Mode.OUT)])
    def recipient(ctx: Any, data: Any) -> Body:
        while True:
            value = yield from ctx.receive("sender",
                                           timeout=2 * enroll_window)
            if value is TIMED_OUT:
                continue  # partition outlasted one attempt; retry
            data.value = value
            return

    script.critical_role_set("sender")
    return script


# ---------------------------------------------------------------------------
# The open-chatroom churn script (Section V open family, manual seal)
# ---------------------------------------------------------------------------

def make_chatroom(max_members: int = 4, join_window: float = 3.0,
                  rounds: int = 4, send_patience: float = 2.0,
                  member_patience: float = 6.0) -> ScriptDef:
    """An open chatroom built to churn: members join, depart, and crash.

    The host (critical) keeps enrollment open for ``join_window``, seals
    the room itself, then broadcasts ``rounds`` numbered messages to
    whichever members made it in.  Every host send is a bounded select —
    a partitioned or departed member costs ``send_patience``, never a
    wedge.  Members receive with ``member_patience`` and *depart* (role
    body returns) after their planned ``stay`` rounds or on a timeout, so
    the member population shrinks mid-performance — the open-ended-script
    behaviour the Section V extension promises.
    """
    script = ScriptDef("chaos_chatroom", initiation=Initiation.IMMEDIATE,
                       termination=Termination.IMMEDIATE)

    @script.role("host", params=[Param("delivered", Mode.OUT)])
    def host(ctx: Any, delivered: Any) -> Body:
        yield Delay(join_window)
        ctx.close_enrollment()
        sent: list[tuple[int, int]] = []
        for r in range(rounds):
            for i in ctx.family_indices("member"):
                member = ("member", i)
                if ctx.terminated(member):
                    continue  # departed or demoted to absence
                result = yield from ctx.select(
                    [SendTo(member, (r, f"news-{r}"))],
                    timeout=send_patience)
                if result.index == 0:
                    sent.append((r, i))
        delivered.value = sent

    @script.role_family("member", None, min_count=0, max_count=max_members,
                        params=[Param("stay", Mode.IN),
                                Param("log", Mode.OUT)])
    def member(ctx: Any, stay: Any, log: Any) -> Body:
        received: list[Any] = []
        while True:
            value = yield from ctx.receive("host", timeout=member_patience)
            if value is TIMED_OUT or value is UNFILLED:
                break  # host quiet for too long (or gone): depart
            received.append(value)
            if value[0] + 1 >= stay:
                break  # planned departure mid-performance
        log.value = received

    script.critical_role_set("host")
    return script


# ---------------------------------------------------------------------------
# Seed-derived fault plans (shared by the runners and
# `repro.scenarios.Scenario.plan`: one draw sequence, two consumers)
# ---------------------------------------------------------------------------

def broadcast_plan(rng: random.Random, n: int = 4,
                   enroll_window: float = 3.0,
                   horizon: float = 30.0) -> FaultPlan:
    """The seed-derived default plan of :func:`run_chaos_broadcast`.

    Possible sender crash (only after the seal window — a pre-seal sender
    crash leaves an unsealable performance, which is a scripted-system
    design error, not a chaos finding), recipient crashes at any time,
    one hub-leaf partition window, and optional latency/drop windows.
    """
    plan = FaultPlan()
    if rng.random() < 0.25:
        plan.crash(round(rng.uniform(enroll_window + 0.5,
                                     horizon / 2), 3), "S")
    for i in range(1, n + 1):
        if rng.random() < 0.3:
            plan.crash(round(rng.uniform(0.2, horizon / 2), 3), ("R", i))
    if rng.random() < 0.5:
        leaf = rng.randint(1, n)
        start = round(rng.uniform(0.2, enroll_window + 2.0), 3)
        plan.partition(start, "hub", ("leaf", leaf),
                       heal_at=round(start + rng.uniform(0.5, 4.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.slow(start, round(rng.uniform(2.0, 5.0), 2),
                  until=round(start + rng.uniform(1.0, 5.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.drop(start, rng.randint(1, 3),
                  until=round(start + rng.uniform(1.0, 5.0), 3))
    return plan


def lock_plan(rng: random.Random, clients: int = 4,
              horizon: float = 12.0) -> FaultPlan:
    """The seed-derived default plan of :func:`run_chaos_lock`.

    Client crashes only: managers hold the lock tables, which must
    survive the soak, so killing one is out of contract by design.
    """
    plan = FaultPlan()
    for i in range(1, clients + 1):
        if rng.random() < 0.4:
            plan.crash(round(rng.uniform(0.2, horizon * 0.6), 3),
                       ("client", i))
    return plan


def chatroom_plan(rng: random.Random, n: int = 4,
                  join_window: float = 3.0,
                  horizon: float = 40.0) -> FaultPlan:
    """The seed-derived default plan of :func:`run_chaos_chatroom`.

    Possible host crash (post-seal only, like the broadcast's sender),
    member crashes at any time, one hub-leaf partition that sometimes
    *never heals* (chatrooms tolerate a member falling off the net: the
    member departs on timeout), and optional latency/drop windows.
    """
    plan = FaultPlan()
    if rng.random() < 0.25:
        plan.crash(round(rng.uniform(join_window + 0.5,
                                     horizon / 2), 3), "H")
    for i in range(1, n + 1):
        if rng.random() < 0.3:
            plan.crash(round(rng.uniform(0.2, horizon / 2), 3), ("M", i))
    if rng.random() < 0.5:
        leaf = rng.randint(1, n)
        start = round(rng.uniform(0.2, join_window + 2.0), 3)
        if rng.random() < 0.35:
            plan.partition(start, "hub", ("leaf", leaf))  # never heals
        else:
            plan.partition(start, "hub", ("leaf", leaf),
                           heal_at=round(start + rng.uniform(0.5, 4.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.slow(start, round(rng.uniform(2.0, 5.0), 2),
                  until=round(start + rng.uniform(1.0, 5.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.drop(start, rng.randint(1, 3),
                  until=round(start + rng.uniform(1.0, 5.0), 3))
    return plan


# ---------------------------------------------------------------------------
# Per-run record and residue checking
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class ChaosRun:
    """Outcome of one chaos run (one seed)."""

    seed: int
    outcome: str                 # "completed" | "aborted"
    results: dict[Any, Any]
    killed: list[Any]
    crashes: int                 # supervised role crashes observed
    aborts: int                  # performances aborted
    faults: list[str]            # the installed plan, described
    performances: int
    time: float
    trace: str
    #: Raw trace events, for span/Chrome-trace export of this exact run
    #: (the replay-equivalence property compares these byte-for-byte).
    events: tuple = ()


def check_residue(scheduler: Scheduler, seed: int,
                  instances: tuple[ScriptInstance, ...] = ()) -> None:
    """Raise :class:`ChaosInvariantError` if a finished run left residue."""
    problems: list[str] = []
    if scheduler.board_size:
        problems.append(f"{scheduler.board_size} offer group(s) on the board")
    if scheduler.waiter_count:
        problems.append(f"{scheduler.waiter_count} stranded waiter(s)")
    if scheduler.pending_timer_count:
        problems.append(f"{scheduler.pending_timer_count} armed timer(s)")
    if scheduler.alias_owner:
        problems.append(f"alias registry retains "
                        f"{sorted(scheduler.alias_owner, key=repr)!r}")
    for instance in instances:
        if instance.pool:
            problems.append(f"{instance.name}: {len(instance.pool)} pooled "
                            f"request(s) never resolved")
        for performance in instance.performances:
            if not performance.ended:
                problems.append(f"{performance.id} never ended")
    if problems:
        raise ChaosInvariantError(f"seed {seed}: " + "; ".join(problems),
                                  category="residue")


def _fail(seed: int, message: str) -> None:
    raise ChaosInvariantError(f"seed {seed}: {message}",
                              category="semantics")


# ---------------------------------------------------------------------------
# Broadcast under chaos
# ---------------------------------------------------------------------------

def run_chaos_broadcast(seed: int, n: int = 4, payload: Any = "payload",
                        plan: FaultPlan | None = None,
                        enroll_window: float = 3.0,
                        horizon: float = 30.0,
                        journal: Any = None) -> ChaosRun:
    """One chaos broadcast: star network, seeded faults, full invariants.

    The sender sits on the hub, recipient *i* on leaf *i*.  Without an
    explicit ``plan``, a seed-derived one is generated: possible sender
    crash (only after the seal window — a pre-seal sender crash leaves an
    unsealable performance, which is a scripted-system design error, not a
    chaos finding), recipient crashes at any time, one hub-leaf partition
    window, and optional latency/drop windows.

    ``journal`` is a :class:`~repro.persist.record.FrameSink` (recorder
    or replay validator); it is attached before any process exists, so
    the journal covers the run's every nondeterminism-resolving step.
    """
    scheduler = Scheduler(seed=seed)
    topology = star(n)
    placement: dict[Hashable, Any] = {"S": "hub"}
    placement.update({("R", i): ("leaf", i) for i in range(1, n + 1)})
    transport = NetworkTransport(topology, placement)
    scheduler.transport = transport
    if journal is not None:
        journal.attach(scheduler)

    script = make_chaos_broadcast(n, enroll_window)
    # Explicit name: the default names draw on a process-global counter,
    # which would leak into performance ids and break trace determinism.
    instance = script.instance(scheduler, name="chaos_broadcast",
                               seal_policy=SealPolicy.MANUAL)
    aborted = {"flag": False}
    supervisor = instance.supervise(
        on_abort=lambda _performance: aborted.__setitem__("flag", True))

    rng = random.Random(seed)
    if plan is None:
        plan = broadcast_plan(rng, n, enroll_window, horizon)
    plan.install(scheduler, transport=transport)

    def sender_process() -> Body:
        try:
            yield from instance.enroll("sender", data=payload)
        except PerformanceAborted:
            return "aborted"
        return "sent"

    def recipient_process(i: int, stagger: float) -> Body:
        yield Delay(stagger)
        try:
            out = yield from instance.enroll(
                ("recipient", i),
                withdraw_when=lambda: aborted["flag"])
        except PerformanceAborted:
            return "aborted"
        if out is None:
            return "withdrawn"
        return out["data"]

    scheduler.spawn("S", sender_process())
    for i in range(1, n + 1):
        stagger = round(rng.uniform(0.0, 0.8 * enroll_window), 3)
        scheduler.spawn(("R", i), recipient_process(i, stagger))

    result = scheduler.run()
    check_residue(scheduler, seed, (instance,))
    # Long soaks spawn many short-lived processes; reap the finished
    # records (their outcomes are snapshotted into later RunResults).
    scheduler.reap()

    outcome = "aborted" if supervisor.aborts else "completed"
    if outcome == "aborted":
        if "S" not in result.killed:
            _fail(seed, "performance aborted but the sender survived")
    else:
        for i in range(1, n + 1):
            name = ("R", i)
            if name in result.killed:
                continue
            if result.results.get(name) != payload:
                _fail(seed, f"recipient {i} survived a completed broadcast "
                            f"but holds {result.results.get(name)!r}")
    if journal is not None:
        journal.finish(outcome)
    return ChaosRun(seed=seed, outcome=outcome, results=result.results,
                    killed=result.killed, crashes=supervisor.crashes,
                    aborts=supervisor.aborts, faults=plan.describe(),
                    performances=instance.performance_count,
                    time=result.time, trace=format_trace(result.tracer),
                    events=result.tracer.snapshot())


# ---------------------------------------------------------------------------
# Lock manager under chaos
# ---------------------------------------------------------------------------

def run_chaos_lock(seed: int, k: int = 3, clients: int = 4,
                   plan: FaultPlan | None = None,
                   horizon: float = 12.0,
                   journal: Any = None) -> ChaosRun:
    """One chaos lock-manager workload: client crashes mid-protocol.

    Each client starts at a staggered virtual time, takes a majority lock
    on one of two contended items, holds it for a while and releases; the
    fault plan kills a random subset of clients at random times inside
    that window.  A crashed lone client aborts its performance (no
    critical set stays covered) and the managers — supervised, unlike the
    plain demo — catch :class:`~repro.errors.PerformanceAborted` and
    re-enroll for the survivors.  A crashed client whose performance also
    held another client degrades to absence and the performance completes.
    Managers never crash: the lock tables must survive the soak.
    """
    scheduler = Scheduler(seed=seed)
    # One node per participant, complete graph, unit latency: every
    # manager round-trip advances the clock, so performances span virtual
    # time and crash timers can land *inside* one.
    topology = complete(k + clients)
    placement: dict[Hashable, Any] = {}
    for index in range(1, k + 1):
        placement[("manager-proc", index)] = ("n", index - 1)
    for i in range(1, clients + 1):
        placement[("client", i)] = ("n", k + i - 1)
    transport = NetworkTransport(topology, placement)
    scheduler.transport = transport
    if journal is not None:
        journal.attach(scheduler)
    service = ReplicatedLockService(scheduler, k=k, strategy=MAJORITY,
                                    instance_name="chaos_lock")
    instance = service.instance
    supervisor = instance.supervise()
    rng = random.Random(seed)
    # The plan is drawn before the client staggers so that a fresh
    # ``random.Random(seed)`` reproduces it: the contract behind
    # :meth:`repro.scenarios.Scenario.plan` and ``--describe-plan``.
    if plan is None:
        plan = lock_plan(rng, clients, horizon)

    finished: set[int] = set()

    def all_done() -> bool:
        return len(finished) >= clients

    def note_kill(process: Any) -> None:
        name = process.name
        if isinstance(name, tuple) and name[0] == "client":
            finished.add(name[1])

    scheduler.on_kill(note_kill)

    def manager_process(index: int) -> Body:
        served = 0
        while not all_done():
            try:
                out = yield from instance.enroll(
                    ("manager", index), table=service.tables[index - 1],
                    withdraw_when=all_done)
            except PerformanceAborted:
                continue  # crashed client took the performance down; re-arm
            if out is None:
                break
            served += 1
        return served

    def client_process(i: int, start: float, hold: float) -> Body:
        role = "reader" if i % 2 else "writer"
        item = ("item", i % 2)
        history: list[str] = []
        yield Delay(start)
        try:
            status = yield from service.request(role, ("c", i), item, "lock")
            history.append(status)
            if status == "granted":
                yield Delay(hold)
                history.append((yield from service.request(
                    role, ("c", i), item, "release")))
        except PerformanceAborted:
            history.append("aborted")
        finished.add(i)
        return history

    for index in range(1, k + 1):
        scheduler.spawn(("manager-proc", index), manager_process(index))
    for i in range(1, clients + 1):
        start = round(rng.uniform(0.0, horizon / 3), 3)
        hold = round(rng.uniform(0.5, horizon / 4), 3)
        scheduler.spawn(("client", i), client_process(i, start, hold))

    plan.install(scheduler)

    result = scheduler.run()
    check_residue(scheduler, seed, (instance,))
    # Long soaks spawn many short-lived processes; reap the finished
    # records (their outcomes are snapshotted into later RunResults).
    scheduler.reap()

    for i in range(1, clients + 1):
        name = ("client", i)
        if name in result.killed:
            continue
        history = result.results.get(name)
        if not history:
            _fail(seed, f"surviving client {i} finished without a status")
        if history[0] == "granted" and history[-1] not in ("released",
                                                           "aborted"):
            _fail(seed, f"client {i} was granted but never released: "
                        f"{history!r}")
    outcome = "aborted" if supervisor.aborts else "completed"
    if journal is not None:
        journal.finish(outcome)
    return ChaosRun(seed=seed, outcome=outcome, results=result.results,
                    killed=result.killed, crashes=supervisor.crashes,
                    aborts=supervisor.aborts, faults=plan.describe(),
                    performances=instance.performance_count,
                    time=result.time, trace=format_trace(result.tracer),
                    events=result.tracer.snapshot())


# ---------------------------------------------------------------------------
# Chatroom under churn
# ---------------------------------------------------------------------------

def run_chaos_chatroom(seed: int, n: int = 4, rounds: int = 4,
                       plan: FaultPlan | None = None,
                       join_window: float = 3.0,
                       horizon: float = 40.0,
                       journal: Any = None) -> ChaosRun:
    """One chaos chatroom: open membership, departures, seeded churn.

    The host sits on the hub of a star, member *i* on leaf *i*.  Members
    arrive staggered — deliberately wider than the join window, so some
    arrive *after* the room sealed and must walk away rather than wedge
    the instance with a hostless second performance.  Each member draws a
    planned ``stay`` (how many rounds before departing); the fault plan
    adds crashes, a partition that may never heal, and latency/drop
    windows on top.

    Invariants checked per run: an aborted performance implies the host
    was killed; every surviving member's log is a prefix-consistent
    subsequence of the host's numbered messages (strictly increasing
    rounds, each with its round's payload).
    """
    scheduler = Scheduler(seed=seed)
    topology = star(n)
    placement: dict[Hashable, Any] = {"H": "hub"}
    placement.update({("M", i): ("leaf", i) for i in range(1, n + 1)})
    transport = NetworkTransport(topology, placement)
    scheduler.transport = transport
    if journal is not None:
        journal.attach(scheduler)

    script = make_chatroom(max_members=n, join_window=join_window,
                           rounds=rounds)
    instance = script.instance(scheduler, name="chaos_chatroom",
                               seal_policy=SealPolicy.MANUAL)
    aborted = {"flag": False}
    supervisor = instance.supervise(
        on_abort=lambda _performance: aborted.__setitem__("flag", True))

    rng = random.Random(seed)
    if plan is None:
        plan = chatroom_plan(rng, n, join_window, horizon)
    plan.install(scheduler, transport=transport)

    def room_open() -> bool:
        # The chatroom is a one-performance script: a member arriving
        # after the room sealed (or after an abort tore it down) must not
        # enroll — its request would immediately start a hostless second
        # performance that can never seal.  It walks away instead.
        if aborted["flag"]:
            return False
        current = instance.current
        if current is not None:
            return not current.sealed
        return not instance.performances

    def host_process() -> Body:
        try:
            out = yield from instance.enroll("host")
        except PerformanceAborted:
            return "aborted"
        return out["delivered"]

    def member_process(i: int, stagger: float, stay: int) -> Body:
        yield Delay(stagger)
        if not room_open():
            return "missed"
        try:
            out = yield from instance.enroll(
                "member", stay=stay,
                withdraw_when=lambda: not room_open())
        except PerformanceAborted:
            return "aborted"
        if out is None:
            return "withdrawn"
        return out["log"]

    scheduler.spawn("H", host_process())
    for i in range(1, n + 1):
        stagger = round(rng.uniform(0.0, 1.6 * join_window), 3)
        stay = rng.randint(1, rounds + 1)
        scheduler.spawn(("M", i), member_process(i, stagger, stay))

    result = scheduler.run()
    check_residue(scheduler, seed, (instance,))
    scheduler.reap()

    outcome = "aborted" if supervisor.aborts else "completed"
    if outcome == "aborted":
        if "H" not in result.killed:
            _fail(seed, "performance aborted but the host survived")
    for i in range(1, n + 1):
        name = ("M", i)
        if name in result.killed:
            continue
        log = result.results.get(name)
        if not isinstance(log, list):
            continue  # "missed" / "withdrawn" / "aborted"
        last_round = -1
        for entry in log:
            r, payload = entry
            if r <= last_round:
                _fail(seed, f"member {i} log rounds not increasing: {log!r}")
            if payload != f"news-{r}":
                _fail(seed, f"member {i} received corrupt round {r}: "
                            f"{entry!r}")
            last_round = r
    if journal is not None:
        journal.finish(outcome)
    return ChaosRun(seed=seed, outcome=outcome, results=result.results,
                    killed=result.killed, crashes=supervisor.crashes,
                    aborts=supervisor.aborts, faults=plan.describe(),
                    performances=instance.performance_count,
                    time=result.time, trace=format_trace(result.tracer),
                    events=result.tracer.snapshot())


# ---------------------------------------------------------------------------
# The soak loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class SoakReport:
    """Aggregate of a whole soak (one seed per run, seeds consecutive)."""

    script: str
    runs: int
    base_seed: int
    outcomes: Counter
    crashes: int = 0
    aborts: int = 0
    performances: int = 0
    faults: int = 0
    #: Formatted trace of the base-seed run, for ``--trace-out``.
    base_trace: str = ""

    def lines(self) -> list[str]:
        """Human-readable summary for the CLI."""
        share = ", ".join(f"{name}: {count}"
                          for name, count in sorted(self.outcomes.items()))
        return kv_lines(
            f"chaos soak: {self.script}, {self.runs} runs "
            f"(seeds {self.base_seed}..{self.base_seed + self.runs - 1})",
            [
                ("outcomes", share),
                ("performances", self.performances),
                ("role crashes",
                 f"{self.crashes} (aborted performances: {self.aborts})"),
                ("fault events", self.faults),
                ("residue", "none (checked after every run)"),
            ])


def soak(script: str, runs: int = 100, seed: int = 0,
         **options: Any) -> SoakReport:
    """Run ``runs`` chaos runs with consecutive seeds; raise on any residue.

    ``options`` are forwarded to the script's runner in
    :mod:`repro.scenarios`.
    """
    from ..scenarios import CHAOS, get
    runner = get(script, CHAOS, ChaosInvariantError).run
    report = SoakReport(script=script, runs=runs, base_seed=seed,
                        outcomes=Counter())
    for offset in range(runs):
        run = runner(seed + offset, **options)
        if offset == 0:
            report.base_trace = run.trace
        report.outcomes[run.outcome] += 1
        report.crashes += run.crashes
        report.aborts += run.aborts
        report.performances += run.performances
        report.faults += len(run.faults)
    return report

