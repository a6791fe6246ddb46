"""Tests for the Chrome trace and JSONL exporters."""

import json

from repro.obs import (build_spans, dump_chrome_trace, dump_spans_jsonl,
                       jsonable, load_spans_jsonl, span_to_dict,
                       to_chrome_trace)
from repro.scenarios import TRACE, get


def scenario_spans(name="demo-broadcast", seed=0, n=3):
    run = get(name, TRACE).run(seed, n=n)
    return build_spans(run.scheduler.tracer.snapshot())


def test_chrome_trace_schema():
    document = to_chrome_trace(scenario_spans())
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert events, "no events exported"
    for event in events:
        for key in ("name", "ph", "pid", "tid", "ts"):
            assert key in event, f"{key} missing from {event}"
        assert event["ph"] in ("M", "X", "i")
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] == "t"
    timestamps = [e["ts"] for e in events if e["ph"] != "M"]
    assert timestamps == sorted(timestamps)


def test_chrome_trace_parents_precede_children_at_equal_ts():
    events = to_chrome_trace(scenario_spans())["traceEvents"]
    seen = set()
    for event in events:
        if event["ph"] == "M":
            continue
        args = event["args"]
        parent = args.get("parent")
        assert parent is None or parent in seen, event
        seen.add(args["sid"])


def test_chrome_trace_has_per_process_lanes():
    events = to_chrome_trace(scenario_spans(n=3))["traceEvents"]
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "script control" in names
    assert "T" in names
    assert "('R', 1)" in names


def test_exports_are_byte_identical_for_identical_seeds():
    first, second = scenario_spans(seed=3), scenario_spans(seed=3)
    assert dump_chrome_trace(first) == dump_chrome_trace(second)
    assert dump_spans_jsonl(first) == dump_spans_jsonl(second)


def test_different_seeds_may_differ_but_stay_valid_json():
    text = dump_chrome_trace(scenario_spans(seed=9))
    assert json.loads(text)["traceEvents"]


def test_jsonl_round_trip():
    spans = scenario_spans(name="demo-lock")
    loaded = load_spans_jsonl(dump_spans_jsonl(spans))
    assert len(loaded) == len(spans)
    assert [span_to_dict(s) for s in loaded] == \
        [span_to_dict(s) for s in spans]


def test_jsonable_handles_runtime_values():
    from repro.core.performance import RoleAddress

    address = RoleAddress("inst/p1", "sender")
    assert jsonable(address) == "inst/p1:'sender'"
    assert jsonable({("R", 1): {2, 1}}) == {"('R', 1)": [1, 2]}
    assert jsonable((1, "a", None)) == [1, "a", None]
