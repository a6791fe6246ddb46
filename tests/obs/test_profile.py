"""Tests for the hot-path profiler: reports, exports, and zero-distortion.

The contracts under test, in the order the module promises them:

- the default JSON report is a pure function of the seed (byte-stable
  across runs), and the deterministic tick clock extends that to the
  wall section, flamegraph and Chrome lane;
- attaching the profiler never perturbs the run — the trace of a
  profiled run is byte-identical to an unprofiled one;
- the exports are well-formed for their consumers (speedscope collapsed
  stacks, Perfetto trace events);
- the diff explainer names the phase whose share grew.
"""

import json

import pytest

from repro.obs import (PHASES, Profiler, build_spans, diff_attributions,
                       dump_chrome_trace, profile_scenario, tick_clock)
from repro.errors import TimeoutError
from repro.runtime import (Delay, IndexedBoard, OracleBoard, Receive,
                           Scheduler, Send, format_trace)
from repro.runtime.instrument import Sink, TeeSink, sink_overrides


def run_pingpong(profiler=None, rounds=3, board=IndexedBoard,
                 veto=None):
    """Two processes volleying a ball ``rounds`` times.

    ``veto=(window, deadline)`` installs a match filter that vetoes every
    pair until virtual time ``window`` (a ticker process's ``Delay`` moves
    the clock there) and sets ``match_deadline``; a party whose vetoed
    offer expires retries it, so the run completes either way.
    """
    scheduler = Scheduler(seed=7, board=board())
    if profiler is not None:
        profiler.attach(scheduler)

    def attempt(effect):
        while True:
            try:
                return (yield effect)
            except TimeoutError:
                continue

    def left():
        for _ in range(rounds):
            yield from attempt(Send("right", "ball"))
            yield from attempt(Receive("right"))

    def right():
        for _ in range(rounds):
            yield from attempt(Receive("left"))
            yield from attempt(Send("left", "ball"))

    if veto is not None:
        window, deadline = veto
        scheduler.match_filter = lambda s, r: scheduler.now >= window
        scheduler.match_deadline = deadline

        def ticker():
            yield Delay(window)

        scheduler.spawn("ticker", ticker())
    scheduler.spawn("left", left())
    scheduler.spawn("right", right())
    scheduler.run()
    return scheduler


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_default_report_is_byte_stable_across_runs():
    _, first = profile_scenario("demo-broadcast", seed=3, n=6)
    _, second = profile_scenario("demo-broadcast", seed=3, n=6)
    dump = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
    assert dump(first) == dump(second)


def test_deterministic_clock_pins_every_export():
    _, first = profile_scenario("demo-lock", seed=1, n=8, deterministic=True)
    _, second = profile_scenario("demo-lock", seed=1, n=8,
                                 deterministic=True)
    assert (json.dumps(first.to_dict(wall=True), sort_keys=True)
            == json.dumps(second.to_dict(wall=True), sort_keys=True))
    assert first.flame_lines() == second.flame_lines()
    assert first.chrome_events() == second.chrome_events()


def test_default_report_omits_wall_but_wall_flag_adds_it():
    _, report = profile_scenario("demo-broadcast", seed=0, n=5)
    assert "wall" not in report.to_dict()
    wall = report.to_dict(wall=True)["wall"]
    assert wall["clock"] == "perf_counter_ns"
    assert wall["run_ns"] == report.run_ns
    assert set(wall["phases"]) == set(PHASES)


# ---------------------------------------------------------------------------
# Zero distortion: profiled runs leave no trace in the trace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("board, veto", [
    (IndexedBoard, None),
    (OracleBoard, None),
    (IndexedBoard, (1.0, 3.0)),      # vetoed pair commits once it heals
    (OracleBoard, (1.0, 3.0)),
    (IndexedBoard, (1.0, 0.5)),      # vetoed offers expire and retry
], ids=["indexed", "oracle", "filtered", "oracle-filtered",
        "filtered-expiring"])
def test_profiled_trace_is_byte_identical_to_unprofiled(board, veto):
    plain = run_pingpong(board=board, veto=veto)
    profiled = run_pingpong(Profiler(), board=board, veto=veto)
    assert format_trace(profiled.tracer) == format_trace(plain.tracer)
    assert profiled.commit_count == plain.commit_count == 6
    assert (dump_chrome_trace(build_spans(profiled.tracer.snapshot()))
            == dump_chrome_trace(build_spans(plain.tracer.snapshot())))


def test_profiled_scenario_trace_matches_unprofiled():
    from repro.obs.scenarios import run_demo_election
    plain = run_demo_election(5, n=4)
    profiled = run_demo_election(5, n=4, profiler=Profiler())
    assert (format_trace(profiled.scheduler.tracer)
            == format_trace(plain.scheduler.tracer))


def test_attach_tees_on_existing_sink():
    from repro.obs.scenarios import run_demo_broadcast
    run = run_demo_broadcast(0, n=5, profiler=Profiler())
    # The metrics sink underneath still saw the run.
    assert run.metrics.to_dict()["metrics"]["comms_total"]["value"] > 0
    assert isinstance(run.scheduler.sink, TeeSink)


def test_capability_flags_only_arm_for_profiling_sinks():
    scheduler = Scheduler(seed=0, board=IndexedBoard())

    class CommitsOnly(Sink):
        def on_commit(self, time, sender, receiver, board, waiters):
            pass

    scheduler.sink = CommitsOnly()
    assert scheduler._sink_commit and not scheduler._sink_phase
    # Wrapping in a tee with a profiler arms the phase hooks; the
    # recursion sees through nested tees.
    tee = TeeSink(CommitsOnly(), Profiler())
    assert sink_overrides(tee, "on_phase")
    assert sink_overrides(tee, "on_commit")
    assert not sink_overrides(TeeSink(CommitsOnly()), "on_phase")
    scheduler.sink = tee
    assert scheduler._sink_phase and scheduler._sink_settle


# ---------------------------------------------------------------------------
# Report contents
# ---------------------------------------------------------------------------

def test_counters_and_attribution_sanity():
    profiler = Profiler()
    run_pingpong(profiler, rounds=4)
    report = profiler.report(scenario="pingpong", seed=7, n=1)
    assert report.commits == 8            # 2 directions x 4 rounds
    assert report.steps == report.phase_calls["dispatch"]
    assert report.counters["candidate_queries"] > 0
    assert report.counters["candidates_seen"] >= report.commits
    assert report.matcher["board"] == "IndexedBoard"
    assert report.matcher["index_pairs_max"] >= 1
    assert 0 < report.attributed_pct <= 100.0
    assert report.attributed_ns <= report.run_ns


def test_per_commit_rates_divide_by_commits():
    _, report = profile_scenario("demo-broadcast", seed=0, n=5)
    assert report.per_commit["candidate_queries"] == pytest.approx(
        report.counters["candidate_queries"] / report.commits, abs=1e-3)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def test_flame_lines_are_valid_collapsed_stacks():
    _, report = profile_scenario("demo-broadcast", seed=0, n=5,
                                 deterministic=True)
    lines = report.flame_lines()
    assert lines
    total = 0
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        assert stack and not stack.endswith(";")
        assert all(frame for frame in stack.split(";"))
        assert weight.isdigit() and int(weight) > 0
        total += int(weight)
    # Root self-time fills the gap: total width == measured run time.
    assert total == report.run_ns
    assert any(line.startswith("scheduler.run;settle;match ")
               for line in lines)


def test_chrome_events_tile_the_run_wall():
    _, report = profile_scenario("demo-lock", seed=0, n=8,
                                 deterministic=True)
    events = report.chrome_events()
    assert events[0]["ph"] == "M"
    assert events[0]["args"]["name"] == "kernel profile (wall)"
    xs = [e for e in events if e["ph"] == "X"]
    cursor = 0
    for event in xs:
        assert event["ts"] == cursor     # phases laid end to end
        assert event["dur"] > 0
        cursor += event["dur"]
    assert cursor == report.run_ns
    assert {e["name"] for e in xs} <= set(PHASES) | {"(unattributed)"}


def test_merged_chrome_document_stays_loadable():
    from repro.obs import merge_chrome_events, to_chrome_trace
    run, report = profile_scenario("demo-broadcast", seed=0, n=5,
                                   deterministic=True)
    document = to_chrome_trace(build_spans(run.scheduler.tracer.snapshot()))
    merged = json.loads(merge_chrome_events(document,
                                            report.chrome_events()))
    cats = {e.get("cat") for e in merged["traceEvents"]}
    assert "profile" in cats             # the profiler lane rode along
    span_events = [e for e in merged["traceEvents"]
                   if e.get("cat") != "profile" and e["ph"] != "M"]
    assert span_events                   # ...without displacing the spans


# ---------------------------------------------------------------------------
# The diff explainer
# ---------------------------------------------------------------------------

def _report_doc(pcts, rates, scenario="demo", with_wall=True, ns=None):
    """A profile document; phase ``ns`` defaults to a fixed 10 000 ns run."""
    ns = ns or {}
    phases = {p: {"ns": ns.get(p, int(pcts.get(p, 0) * 100)),
                  "pct": pcts.get(p, 0.0)} for p in PHASES}
    doc = {"scenario": scenario, "per_commit": rates}
    if with_wall:
        doc["wall"] = {"phases": phases}
    return doc


def test_diff_names_the_grown_phase():
    old = _report_doc({"match": 10.0, "dispatch": 40.0},
                      {"candidates_seen": 2.0})
    new = _report_doc({"match": 35.0, "dispatch": 30.0},
                      {"candidates_seen": 50.0})
    lines = diff_attributions(old, new)
    assert len(lines) == 1
    assert "'match' grew 10.0% -> 35.0%" in lines[0]
    assert "candidates_seen/commit 2.0 -> 50.0" in lines[0]


def test_diff_prints_phase_time_beside_share():
    old = _report_doc({"match": 10.0}, {}, ns={"match": 1000})
    new = _report_doc({"match": 35.0}, {}, ns={"match": 3500})
    assert "(+25.0 pts, 1000 -> 3500 ns)" in diff_attributions(old, new)[0]


def test_diff_ignores_share_growth_without_time_growth():
    # demo-broadcast --n 200 across the keyed-wakeup change: commit time
    # held flat at 22.7 -> 22.0 ms while dispatch fell 5x, so commit's
    # share of a shrunken run grew from 4.98% to 19.12%.
    old = _report_doc({"dispatch": 60.0, "commit": 4.98, "settle": 23.0},
                      {"waiters_polled": 500.5},
                      ns={"dispatch": 273_500_000, "commit": 22_700_000,
                          "settle": 104_800_000})
    new = _report_doc({"dispatch": 47.0, "commit": 19.12, "settle": 11.5},
                      {"waiters_polled": 2.0},
                      ns={"dispatch": 54_100_000, "commit": 22_000_000,
                          "settle": 13_200_000})
    lines = diff_attributions(old, new)
    assert len(lines) == 1
    assert "phase 'commit' grew" not in lines[0]
    assert "no phase share grew" in lines[0]
    assert "'commit' 4.98% -> 19.12%, 22700000 -> 22000000 ns" in lines[0]


def test_diff_skips_a_share_leader_whose_time_fell():
    # match's share grew most but its time fell; journal grew in both.
    old = _report_doc({"match": 10.0, "journal": 5.0}, {},
                      ns={"match": 4000, "journal": 2000})
    new = _report_doc({"match": 30.0, "journal": 8.0}, {},
                      ns={"match": 3000, "journal": 2500})
    assert "phase 'journal' grew 5.0% -> 8.0%" in \
        diff_attributions(old, new)[0]


def test_diff_reports_no_growth():
    doc = _report_doc({"match": 10.0}, {"candidates_seen": 2.0})
    lines = diff_attributions(doc, doc)
    assert len(lines) == 1
    assert "no phase share grew" in lines[0]


def test_diff_consumes_bench_sweep_shape():
    old = {"shapes": {"fanin": {"500": _report_doc(
        {"match": 10.0}, {"candidates_seen": 10.0}, scenario="fanin")}}}
    new = {"shapes": {"fanin": {"500": _report_doc(
        {"match": 60.0}, {"candidates_seen": 250.0}, scenario="fanin")}}}
    lines = diff_attributions(old, new)
    assert lines and lines[0].startswith("fanin N=500:")


def test_diff_skips_labels_without_wall():
    old = _report_doc({}, {}, with_wall=False)
    new = _report_doc({"match": 50.0}, {})
    assert diff_attributions(old, new) == []
