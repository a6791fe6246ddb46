"""Tests for span-tree derivation from trace event streams."""

from repro.faults import FaultPlan
from repro.obs import build_spans, span_tree_lines
from repro.runtime import Scheduler
from repro.scenarios import TRACE, get, names
from repro.scripts import make_star_broadcast


def spans_by_kind(spans):
    index = {}
    for span in spans:
        index.setdefault(span.kind, []).append(span)
    return index


def run_broadcast(seed=0, rounds=2, n=3):
    script = make_star_broadcast(n)
    scheduler = Scheduler(seed=seed)
    instance = script.instance(scheduler, name="bc")

    def transmitter():
        for r in range(rounds):
            yield from instance.enroll("sender", data=r)

    def recipient(i):
        for _ in range(rounds):
            yield from instance.enroll(("recipient", i))

    scheduler.spawn("T", transmitter())
    for i in range(1, n + 1):
        scheduler.spawn(("R", i), recipient(i))
    scheduler.run()
    return scheduler


def test_span_tree_shape_for_broadcast():
    scheduler = run_broadcast(rounds=2, n=3)
    spans = build_spans(scheduler.tracer.snapshot())
    index = spans_by_kind(spans)
    assert spans[0].kind == "run" and spans[0].parent is None

    [instance] = index["instance"]
    assert instance.parent == "run"
    assert instance.attrs["script"] == "star_broadcast"
    assert instance.attrs["initiation"] == "delayed"
    assert instance.attrs["termination"] == "delayed"

    performances = index["performance"]
    assert len(performances) == 2
    assert all(p.parent == instance.sid for p in performances)

    roles = index["role"]
    assert len(roles) == 2 * 4  # sender + 3 recipients per performance
    assert all(r.parent in {p.sid for p in performances} for r in roles)
    assert all(r.attrs["outcome"] == "done" for r in roles)

    comms = [s for s in index["instant"] if s.name == "comm"]
    assert len(comms) == 2 * 3
    role_sids = {r.sid for r in roles}
    assert all(c.parent in role_sids for c in comms)


def test_enrollment_spans_close_on_accept():
    scheduler = run_broadcast(rounds=1, n=2)
    spans = build_spans(scheduler.tracer.snapshot())
    enrolls = [s for s in spans if s.kind == "enroll"]
    assert len(enrolls) == 3
    assert all(s.attrs["outcome"] == "accepted" for s in enrolls)
    assert all(s.attrs["performance"] == "bc/p1" for s in enrolls)


def test_span_ids_are_stable_across_identical_runs():
    first = build_spans(run_broadcast(seed=7).tracer.snapshot())
    second = build_spans(run_broadcast(seed=7).tracer.snapshot())
    assert [(s.sid, s.parent, s.start, s.end) for s in first] == \
        [(s.sid, s.parent, s.start, s.end) for s in second]


def test_crash_and_abort_are_visible_in_spans():
    from repro.core import Mode, Param, ScriptDef
    from repro.runtime import Delay

    script = ScriptDef("crashy")

    @script.role("a", params=[Param("x", Mode.IN)])
    def a(ctx, x):
        yield Delay(10)
        yield from ctx.send("b", x)

    @script.role("b")
    def b(ctx):
        yield from ctx.receive("a")

    scheduler = Scheduler(seed=0)
    instance = script.instance(scheduler, name="crashy")
    instance.supervise()
    FaultPlan().crash(5.0, "A").install(scheduler)

    def alpha():
        yield from instance.enroll("a", x=1)

    def beta():
        try:
            yield from instance.enroll("b")
        except Exception:
            return "aborted"

    scheduler.spawn("A", alpha())
    scheduler.spawn("B", beta())
    scheduler.run()

    spans = build_spans(scheduler.tracer.snapshot())
    index = spans_by_kind(spans)
    [performance] = index["performance"]
    assert performance.attrs["aborted"] is True
    assert performance.attrs["crash_cause"] == ["'a'"]
    crashed = [r for r in index["role"] if r.attrs.get("outcome") == "crashed"]
    assert len(crashed) == 1 and crashed[0].name == "a"
    faults = [s for s in index["instant"] if s.name == "fault:crash"]
    assert len(faults) == 1
    killed = [p for p in index["process"] if p.attrs.get("killed")]
    assert [p.name for p in killed] == ["A"]


def test_scenarios_produce_nested_trees():
    for name in names(TRACE):
        run = get(name, TRACE).run(1, n=4)
        spans = build_spans(run.scheduler.tracer.snapshot())
        index = spans_by_kind(spans)
        assert index["performance"], name
        assert index["role"], name
        assert not any(s.attrs.get("unfinished") for s in spans), name
        assert len(span_tree_lines(spans)) == len(spans)
