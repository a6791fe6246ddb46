"""Recovery-mode chaos soak: liveness under restarts and retries.

The plain chaos soak (:mod:`repro.faults.soak`) proves *safety* under
faults: whatever happens, no residue, and aborted runs abort for the right
reason.  This soak proves the complementary *liveness under recovery*
property: with a :class:`~repro.recovery.policy.RestartPolicy` respawning
crashed participants and a :class:`~repro.recovery.retry.PerformanceRetry`
budgeting re-runs, a workload that asks for K completed performances gets
them **despite** a crash plan that kills the critical sender — a plan
which, unsupervised, would permanently abort the run.

Budgets are sized from the generated plan (restart cap above the per-name
crash count, retry budget equal to the sender crash count), so recovery
always suffices and the liveness assertion is unconditional.  Escalation
(quarantine, retry exhaustion) is still wired into the workload's stop
predicate as a backstop and is proven separately by unit tests.

Everything stays deterministic: the plan, the backoff jitter, and every
recovery decision derive from the run's seed, so
:func:`repro.scenarios.verify_determinism` can demand byte-identical
formatted traces — RECOVERY events included.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Generator, Hashable

from ..core import SealPolicy
from ..errors import ChaosInvariantError, PerformanceAborted
from ..faults.plan import FaultPlan
from ..faults.reporting import kv_lines
from ..faults.soak import check_residue, make_chaos_broadcast
from ..net import NetworkTransport, star
from ..runtime import Scheduler, format_trace
from .policy import BackoffSchedule, RestartPolicy
from .retry import PerformanceRetry

Body = Generator[Any, Any, Any]


def recover_plan(rng: random.Random, n: int = 3,
                 enroll_window: float = 2.0,
                 horizon: float = 40.0) -> tuple[FaultPlan, int]:
    """The seed-derived plan of :func:`run_recover_broadcast`.

    Returns ``(plan, sender_crashes)``: the runner sizes its retry and
    restart budgets from the sender crash count, so the count travels
    with the plan.  The sender dies at least once — each crash window is
    offset past the previous recovery, so every crash can land in a
    fresh performance.
    """
    plan = FaultPlan()
    sender_crashes = 1 + (rng.random() < 0.4)
    for c in range(sender_crashes):
        lo = enroll_window + 0.5 + c * 3 * enroll_window
        plan.crash(round(rng.uniform(lo, lo + 2 * enroll_window), 3), "S")
    for i in range(1, n + 1):
        if rng.random() < 0.4:
            plan.crash(round(rng.uniform(0.2, horizon / 2), 3), ("R", i))
    if rng.random() < 0.4:
        leaf = rng.randint(1, n)
        start = round(rng.uniform(0.2, enroll_window + 2.0), 3)
        plan.partition(start, "hub", ("leaf", leaf),
                       heal_at=round(start + rng.uniform(0.5, 3.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.slow(start, round(rng.uniform(2.0, 4.0), 2),
                  until=round(start + rng.uniform(1.0, 4.0), 3))
    if rng.random() < 0.3:
        start = round(rng.uniform(0.2, horizon / 3), 3)
        plan.drop(start, rng.randint(1, 3),
                  until=round(start + rng.uniform(1.0, 4.0), 3))
    return plan, sender_crashes


@dataclasses.dataclass(slots=True)
class RecoveryRun:
    """Outcome of one recovery run (one seed)."""

    seed: int
    rounds: int                  # performances the workload asked for
    completed: int               # performances that ended un-aborted
    aborts: int                  # performances aborted (then retried)
    crashes: int                 # supervised role crashes observed
    restarts: int                # processes respawned by the policy
    retries: int                 # retry budget units consumed
    recovered: int               # performances completed after a retry
    quarantined: list[Any]       # names escalated by the intensity cap
    killed: list[Any]            # every kill over the whole run
    faults: list[str]            # the installed plan, described
    time: float
    trace: str
    outcome: str = "recovered"   # "recovered" | "quarantined" | "incomplete"


def _fail(seed: int, message: str) -> None:
    raise ChaosInvariantError(f"seed {seed}: {message}",
                              category="liveness")


def run_recover_broadcast(seed: int, n: int = 3, rounds: int = 3,
                          payload: Any = "payload",
                          enroll_window: float = 2.0,
                          horizon: float = 40.0,
                          journal: Any = None,
                          max_restarts: int | None = None,
                          strict: bool = True) -> RecoveryRun:
    """K rounds of the chaos broadcast, recovered through a crash plan.

    The sender (critical) and every recipient loop re-enrolling until
    ``rounds`` performances have completed; a seed-derived plan crashes
    the sender at least once (plus recipients at random) and a
    :class:`RestartPolicy` brings every victim back after backoff.  The
    run must deliver the asked-for rounds, leave zero kernel residue,
    and — when the plan managed to abort a sealed performance — show the
    retry accounting in the trace.

    ``max_restarts`` overrides the plan-covering restart cap (a cap
    *below* the plan's crash count deterministically forces quarantine —
    how the CLI and tests exercise the escalation path).  With ``strict``
    (the default), a quarantine/exhaustion/shortfall raises
    :class:`~repro.errors.ChaosInvariantError`; with ``strict=False`` the
    run reports it through :attr:`RecoveryRun.outcome` instead.
    ``journal`` is a persist frame sink (recorder or replay validator);
    with one attached the policy runs the ``resume_from_journal``
    strategy, so every recovery decision hits the disk before it acts.
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
    instance = script.instance(scheduler, name="recover_broadcast",
                               seal_policy=SealPolicy.MANUAL)
    supervisor = instance.supervise()

    # Seed-derived crash plan, drawn before the budgets so the budgets can
    # be sized to provably cover it (liveness must not depend on luck).
    rng = random.Random(seed)
    plan, sender_crashes = recover_plan(rng, n, enroll_window, horizon)

    retry = PerformanceRetry(instance, max_retries=sender_crashes)
    quarantined: set[Hashable] = set()

    def escalate(name: Hashable) -> None:
        quarantined.add(name)
        # A quarantined name never comes back; a performance waiting on
        # its role would deadlock the run, so cut it loose — survivors
        # unwind via PerformanceAborted and see done() on re-check.
        supervisor.abort_current()

    def completed_count() -> int:
        return sum(1 for p in instance.performances
                   if p.ended and not p.aborted)

    def done() -> bool:
        return (completed_count() >= rounds or retry.exhausted
                or bool(quarantined))

    def unresolved() -> bool:
        # A performance that formed (recipients re-enroll the instant
        # their role body ends, racing the round-count check) must still
        # be driven to completion: its recipients are already past their
        # withdraw guard, waiting for a sender.
        current = instance.current
        return current is not None and not current.ended

    def sender_alive() -> bool:
        return not done() or unresolved()

    def sender_body() -> Body:
        sent = 0
        while sender_alive():
            try:
                yield from instance.enroll("sender", data=payload)
            except PerformanceAborted:
                continue
            sent += 1
        return sent

    def recipient_body(i: int) -> Body:
        delivered = 0
        while not done():
            try:
                out = yield from instance.enroll(("recipient", i),
                                                 withdraw_when=done)
            except PerformanceAborted:
                continue
            if out is not None:
                delivered += 1
        return delivered

    bodies: dict[Hashable, Any] = {"S": sender_body}
    bodies.update({("R", i): (lambda i=i: recipient_body(i))
                   for i in range(1, n + 1)})
    # Cap sized above the plan's worst per-name crash count: the soak
    # proves liveness, so quarantine must be unreachable here (the cap
    # itself is proven by tests/recovery/test_policy.py).
    policy = RestartPolicy(
        scheduler, bodies,
        backoff=BackoffSchedule(base=0.25, factor=2.0, cap=2.0, jitter=0.1),
        max_restarts=(max_restarts if max_restarts is not None
                      else sender_crashes + 1),
        window=10 * horizon, seed=seed,
        only_while=sender_alive, on_escalate=escalate,
        strategy="respawn" if journal is None else "resume_from_journal",
        journal=journal)

    plan.install(scheduler, transport=transport)
    scheduler.spawn("S", sender_body())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient_body(i))

    result = scheduler.run()
    check_residue(scheduler, seed, (instance,))
    scheduler.reap()

    completed = completed_count()
    if quarantined:
        outcome = "quarantined"
    elif completed < rounds or retry.exhausted:
        outcome = "incomplete"
    else:
        outcome = "recovered"
    if journal is not None:
        journal.finish(outcome)
    if strict:
        if completed < rounds and not quarantined:
            _fail(seed, f"only {completed}/{rounds} performances completed "
                        f"under recovery")
        if quarantined:
            _fail(seed, f"intensity cap escalated "
                        f"{sorted(quarantined, key=repr)!r}"
                        f" despite a covering budget")
        if retry.exhausted:
            _fail(seed, "retry budget exhausted despite covering the "
                        "crash plan")
        if supervisor.aborts and not retry.retries:
            _fail(seed, "performance aborted but no retry was granted")
    return RecoveryRun(
        seed=seed, rounds=rounds, completed=completed,
        aborts=supervisor.aborts, crashes=supervisor.crashes,
        restarts=policy.restarts, retries=retry.retries,
        recovered=retry.recovered,
        quarantined=sorted(quarantined, key=repr), killed=result.killed,
        faults=plan.describe(), time=result.time,
        trace=format_trace(result.tracer), outcome=outcome)


# ---------------------------------------------------------------------------
# The soak loop
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class RecoverReport:
    """Aggregate of a recovery soak (one seed per run, seeds consecutive)."""

    runs: int
    base_seed: int
    rounds: int
    completed: int = 0
    aborts: int = 0
    crashes: int = 0
    restarts: int = 0
    retries: int = 0
    recovered: int = 0
    faults: int = 0
    quarantined: int = 0         # names quarantined (non-strict runs only)
    base_trace: str = ""         # first seed's trace (CI artifact)

    def lines(self) -> list[str]:
        """Human-readable summary for the CLI."""
        rows: list[tuple[str, Any]] = [
            ("performances",
             f"{self.completed} completed (target {self.runs * self.rounds})"),
            ("role crashes",
             f"{self.crashes} (aborted performances: {self.aborts})"),
            ("restarts", self.restarts),
            ("retries",
             f"{self.retries} granted, {self.recovered} performances "
             f"recovered"),
            ("fault events", self.faults),
            ("residue", "none (checked after every run)"),
        ]
        if self.quarantined:
            rows.append(("quarantined",
                         f"{self.quarantined} name(s) left down "
                         f"(no recovery)"))
        return kv_lines(
            f"recovery soak: broadcast, {self.runs} runs "
            f"(seeds {self.base_seed}..{self.base_seed + self.runs - 1}), "
            f"{self.rounds} rounds each", rows)


def recover_soak(runs: int = 25, seed: int = 0,
                 **options: Any) -> RecoverReport:
    """Run ``runs`` recovery runs with consecutive seeds; raise on any
    liveness or residue violation.  ``options`` forward to
    :func:`run_recover_broadcast`."""
    rounds = options.get("rounds", 3)
    report = RecoverReport(runs=runs, base_seed=seed, rounds=rounds)
    for offset in range(runs):
        run = run_recover_broadcast(seed + offset, **options)
        report.completed += run.completed
        report.aborts += run.aborts
        report.crashes += run.crashes
        report.restarts += run.restarts
        report.retries += run.retries
        report.recovered += run.recovered
        report.faults += len(run.faults)
        report.quarantined += len(run.quarantined)
        if offset == 0:
            report.base_trace = run.trace
    return report

