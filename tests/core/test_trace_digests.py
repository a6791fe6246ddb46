"""Golden SHA-256 digests of whole traces across the script stack.

Every case below runs a deterministic workload end to end and hashes its
formatted trace.  The digests in ``trace_digests.json`` pin the exact
decision sequence — which rendezvous committed, which waiter woke, in what
order — so a change to the scheduler's wake-up machinery or to the
enrollment coordinator that is meant to be behaviour-preserving must leave
every digest untouched.

Regenerate (only for a deliberate, explained behaviour change) with::

    PYTHONPATH=src python -m tests.core.test_trace_digests --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable

import pytest

from repro import lang
from repro import scenarios
from repro.ada import AdaSystem
from repro.core import Ref
from repro.runtime import Scheduler, format_trace
from repro.scripts import make_mailbox_broadcast
from repro.scripts.broadcast import make_broadcast
from repro.translation import make_ada_broadcast

GOLDEN = Path(__file__).with_name("trace_digests.json")
ROOT = Path(__file__).resolve().parents[2]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scenario_trace(name: str, kind: str, seed: int) -> str:
    run = scenarios.get(name, kind).run(seed)
    if kind == scenarios.TRACE:
        return format_trace(run.scheduler.tracer)
    return run.trace


def _broadcast_trace(strategy: str, n: int) -> str:
    script = make_broadcast(n, strategy)
    scheduler = Scheduler(seed=0)
    instance = script.instance(scheduler, name=f"{strategy}-{n}")
    sender = next(name for name in script.declarations
                  if name != "recipient")
    send_param = script.declarations[sender].params[0].name

    def transmitter():
        yield from instance.enroll(sender, **{send_param: "x"})

    def recipient(i):
        out = yield from instance.enroll(("recipient", i))
        return out

    scheduler.spawn("T", transmitter())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient(i))
    return format_trace(scheduler.run().tracer)


def _token_ring_trace(instances: int) -> str:
    source = (ROOT / "examples" / "scripts" / "token_ring.script").read_text()
    program = lang.parse_script(source)
    script = lang.compile_program(program, lang.analyze(program))
    size = len(script.closed_role_ids)
    scheduler = Scheduler(seed=0)

    def node(instance, index):
        seed = ("tok", instance.name) if index == 1 else None
        out = yield from instance.enroll(("node", index), seed=seed,
                                         token=Ref())
        return out["token"]

    for ring in range(instances):
        instance = script.instance(scheduler, name=f"ring{ring}")
        for index in range(1, size + 1):
            scheduler.spawn((ring, index), node(instance, index))
    return format_trace(scheduler.run().tracer)


def _ada_trace(n: int) -> str:
    scheduler = Scheduler(seed=0)
    system = AdaSystem(scheduler)
    script = make_ada_broadcast(system, n)
    script.install(performances=1)

    def sender_task(ctx):
        yield from script.enroll(ctx, "sender", data="payload")

    def recipient_task(i):
        def body(ctx):
            out = yield from script.enroll(ctx, f"r{i}")
            return out["data"]
        return body

    system.task("S", sender_task)
    for i in range(1, n + 1):
        system.task(f"T{i}", recipient_task(i))
    return format_trace(scheduler.run().tracer)


def _monitor_trace(n: int) -> str:
    script = make_mailbox_broadcast(n)
    scheduler = Scheduler(seed=0)
    instance = script.instance(scheduler, name="mailbox")

    def sender():
        yield from instance.enroll("sender", data="monitor-msg")

    def recipient(i):
        out = yield from instance.enroll(("recipient", i))
        return out["data"]

    scheduler.spawn("S", sender())
    for i in range(1, n + 1):
        scheduler.spawn(f"R{i}", recipient(i))
    return format_trace(scheduler.run().tracer)


def _cases() -> dict[str, Callable[[], str]]:
    cases: dict[str, Callable[[], str]] = {}
    for name in ("demo-broadcast", "demo-lock", "demo-election"):
        for seed in (0, 1, 2):
            cases[f"{name}/seed{seed}"] = (
                lambda n=name, s=seed: _scenario_trace(n, scenarios.TRACE, s))
    for name in ("broadcast", "lock", "chatroom"):
        for seed in (0, 3, 7):
            cases[f"chaos-{name}/seed{seed}"] = (
                lambda n=name, s=seed: _scenario_trace(n, scenarios.CHAOS, s))
    for seed in (0, 4):
        cases[f"recover/seed{seed}"] = (
            lambda s=seed: _scenario_trace(scenarios.RECOVER,
                                           scenarios.JOURNAL, s))
    cases["star/n50"] = lambda: _broadcast_trace("star", 50)
    cases["pipeline/n20"] = lambda: _broadcast_trace("pipeline", 20)
    cases["token_ring/x3"] = lambda: _token_ring_trace(3)
    cases["fig08-ada/n5"] = lambda: _ada_trace(5)
    cases["fig12-monitor/n5"] = lambda: _monitor_trace(5)
    return cases


CASES = _cases()


def _golden() -> dict[str, Any]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_unchanged(case):
    assert _digest(CASES[case]()) == _golden()[case]


def _write() -> None:
    digests = {case: _digest(CASES[case]()) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.core.test_trace_digests "
                         "--write")
    _write()
