"""The scenario registry: every named workload, declared once.

Each :class:`Scenario` holds a runner plus what the CLI verbs may do with
it.  The capability ``kinds`` name the verbs that accept the scenario:

* :data:`TRACE` — the instrumented demos behind ``trace``, ``stats`` and
  ``profile`` (runner signature ``(seed, n=..., profiler=None)``);
* :data:`CHAOS` — the scripts ``chaos`` soaks by name;
* :data:`JOURNAL` — runners that accept a ``journal`` frame sink, which
  makes them recordable, resumable (``replay``), killable (``--kill9``)
  and, given a contract, explorable (``--explore``).

A scenario with a seed-derived fault plan declares how to draw it, and a
scenario the explorer may attack declares its fault contract.  Both read
the runner's own sizing keywords (:meth:`Scenario.sizing`), so neither
restates a default the runner already has.
"""

from __future__ import annotations

import dataclasses
import inspect
import random
from typing import Any, Callable, Hashable

from .faults.explore import Contract
from .faults.plan import FaultPlan
from .faults.soak import (broadcast_plan, chatroom_plan, lock_plan,
                          run_chaos_broadcast, run_chaos_chatroom,
                          run_chaos_lock)
from .obs.scenarios import (run_demo_broadcast, run_demo_election,
                            run_demo_lock)
from .recovery.soak import recover_plan, run_recover_broadcast

TRACE = "trace"
CHAOS = "chaos"
JOURNAL = "journal"

#: The script ``chaos`` runs when none is named.  ``recover`` is its
#: recovery-mode variant, selected by ``chaos --recover``.
DEFAULT_CHAOS = "broadcast"
RECOVER = "recover"

PlanDraw = Callable[[random.Random, dict[str, Any]], FaultPlan]


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One named workload: its runner, capabilities, plan and contract.

    ``draw_plan(rng, sizing)`` replays the runner's plan draw against a
    fresh ``random.Random(seed)``; ``make_contract(sizing)`` builds the
    explorer's contract for that sizing.  ``sizing`` is the runner's
    keyword arguments with defaults applied (see :meth:`sizing`).
    """

    name: str
    run: Callable[..., Any]
    kinds: frozenset[str]
    draw_plan: PlanDraw | None = None
    make_contract: Callable[[dict[str, Any]], Contract] | None = None

    def sizing(self, **options: Any) -> dict[str, Any]:
        """The runner's keyword arguments: its defaults, then ``options``."""
        bound = inspect.signature(self.run).bind_partial(**options)
        bound.apply_defaults()
        return bound.arguments

    def plan(self, seed: int, **options: Any) -> FaultPlan:
        """The fault plan a plan-less ``run(seed, **options)`` installs.

        Every runner draws its plan first from a fresh
        ``random.Random(seed)``, so ``plan(seed).describe() ==
        run(seed).faults`` — pinned by test for every entry with a plan.
        """
        return self.draw_plan(random.Random(seed), self.sizing(**options))

    def contract(self, **options: Any) -> Contract:
        """The explorer's contract for a run at these sizing options."""
        return self.make_contract(self.sizing(**options))


def _family(role: str, count: int) -> tuple[Hashable, ...]:
    return tuple((role, i) for i in range(1, count + 1))


def _leaf_links(count: int) -> tuple[tuple[Hashable, Hashable], ...]:
    return tuple(("hub", ("leaf", i)) for i in range(1, count + 1))


def _broadcast_contract(o: dict[str, Any]) -> Contract:
    return Contract(
        processes=("S", *_family("R", o["n"])),
        critical=frozenset({"S"}),
        links=_leaf_links(o["n"]),
        # The enroll window: no pre-seal sender kill.
        crash_after={"S": o["enroll_window"]},
        heal_required=True, transport_faults=True, horizon=o["horizon"])


def _lock_contract(o: dict[str, Any]) -> Contract:
    # Managers hold the lock tables and must outlive the run; no link or
    # transport faults either — the lock protocol has no retry story,
    # which is the scenario's documented contract.
    return Contract(
        processes=_family("client", o["clients"]), critical=frozenset(),
        links=(), crash_after={}, heal_required=True,
        transport_faults=False, horizon=o["horizon"])


def _chatroom_contract(o: dict[str, Any]) -> Contract:
    return Contract(
        processes=("H", *_family("M", o["n"])),
        critical=frozenset({"H"}),
        links=_leaf_links(o["n"]),
        crash_after={"H": o["join_window"]},  # the join window
        heal_required=False,  # members depart on timeout; no heal needed
        transport_faults=True, horizon=o["horizon"])


SCENARIOS: tuple[Scenario, ...] = (
    Scenario("demo-broadcast", run_demo_broadcast, frozenset({TRACE})),
    Scenario("demo-lock", run_demo_lock, frozenset({TRACE})),
    Scenario("demo-election", run_demo_election, frozenset({TRACE})),
    Scenario("broadcast", run_chaos_broadcast, frozenset({CHAOS, JOURNAL}),
             draw_plan=lambda rng, o: broadcast_plan(
                 rng, o["n"], o["enroll_window"], o["horizon"]),
             make_contract=_broadcast_contract),
    Scenario("lock", run_chaos_lock, frozenset({CHAOS, JOURNAL}),
             draw_plan=lambda rng, o: lock_plan(
                 rng, o["clients"], o["horizon"]),
             make_contract=_lock_contract),
    Scenario("chatroom", run_chaos_chatroom, frozenset({CHAOS, JOURNAL}),
             draw_plan=lambda rng, o: chatroom_plan(
                 rng, o["n"], o["join_window"], o["horizon"]),
             make_contract=_chatroom_contract),
    Scenario("recover", run_recover_broadcast, frozenset({JOURNAL}),
             draw_plan=lambda rng, o: recover_plan(
                 rng, o["n"], o["enroll_window"], o["horizon"])[0]),
)


def runners(kind: str) -> dict[str, Callable[..., Any]]:
    """``name -> runner`` for every scenario with capability ``kind``."""
    return {entry.name: entry.run for entry in SCENARIOS
            if kind in entry.kinds}


def names(kind: str) -> tuple[str, ...]:
    """The names of every scenario with capability ``kind``, in order."""
    return tuple(runners(kind))


def get(name: str, kind: str,
        error: type[Exception] = ValueError) -> Scenario:
    """The scenario ``name``; raises ``error`` unless it has ``kind``."""
    for entry in SCENARIOS:
        if entry.name == name and kind in entry.kinds:
            return entry
    raise error(f"unknown scenario {name!r} (known {kind} scenarios: "
                f"{', '.join(names(kind))})")


def verify_determinism(name: str, seed: int = 0, **options: Any) -> bool:
    """Run one seed of a journaled scenario twice; True iff the formatted
    traces are identical."""
    run = get(name, JOURNAL).run
    return run(seed, **options).trace == run(seed, **options).trace
