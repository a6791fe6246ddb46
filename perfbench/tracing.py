"""The traced run: spans around the calls into each layer, and the per-layer
metrics derived from them.

The benchmark installs thin wrappers around the public entry points of each
layer (plus the analyzer's check helpers), so no code under ``src/`` knows it
is being traced.  Each call, and each resumption of a wrapped generator,
records a span: name, start, end and parent.  Spans live in flat in-memory
arrays and are written out once, at the end of the run.  A span's self time
is its duration minus the spans nested in it, so every nanosecond of the
traced phase is charged to exactly one span (or to the benchmark root).

The kernel's own phase split (dispatch, match, commit, settle) and its work
counters come from :class:`repro.obs.profile.Profiler`, attached to every
scheduler the workload builds while tracing is on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

import repro.analysis.analyzer as analyzer_mod
import repro.analysis.param as param_mod
import repro.core.instance as instance_mod
import repro.lang as lang_mod
from repro.core import RoleContext, ScriptInstance
from repro.obs.profile import Profiler
from repro.persist import JournalRecorder
from repro.runtime import Scheduler, Tracer

#: Span-name prefixes that count as named layers (the module each wraps).
LAYERS = ("lang", "scripts", "core", "runtime", "persist", "analysis")

#: Root span of each traced round; its self time is the benchmark's own.
ROOT = "bench.round"


class Spans:
    """Flat span store with running self-time totals per span name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self._open: list[int] = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0)
        self._open.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        now = perf_counter_ns()
        if self._open.pop() != index:
            raise RuntimeError("span closed out of order")
        self.end[index] = now
        duration = now - self.start[index]
        nid = self.name[index]
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration
        parent = self.parent[index]
        if parent >= 0:
            self.self_ns[self.name[parent]] -= duration

    def stat(self, name: str) -> tuple[int, int, int]:
        """``(calls, total_ns, self_ns)`` for one span name (zeros if unseen)."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.total_ns[nid], self.self_ns[nid]

    def write(self, stem: Path) -> None:
        """Write ``<stem>.json`` (names, layout) and ``<stem>.bin`` (rows)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)
        header = {"names": self.names, "count": len(self.start),
                  "columns": [["name", "uint16"], ["parent", "int64"],
                              ["start_ns", "int64"], ["end_ns", "int64"]],
                  "layout": "column-major, native byte order; parent -1 "
                            "is the root; name indexes 'names'"}
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1))


def _resumptions(spans: Spans, nid: int, gen: Any):
    """Drive ``gen``, recording one span per resumption."""
    value = None
    error: BaseException | None = None
    while True:
        index = spans.open(nid)
        try:
            effect = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            spans.close(index)
            return stop.value
        except BaseException:
            spans.close(index)
            raise
        spans.close(index)
        error = None
        try:
            value = yield effect
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # delivered into gen on the next turn
            error, value = exc, None


class Tracing:
    """Wrappers, profilers and counters for one traced phase."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.schedulers: list[Scheduler] = []
        self.profilers: list[Profiler] = []
        self.recorders: list[JournalRecorder] = []
        self.solve_hits = 0
        self.solve_pool = 0
        self.param_states = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------

    def gen_wrapper(self, name: str, fn: Callable) -> Callable:
        nid = self.spans.name_id(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            return _resumptions(spans, nid, fn(*args, **kwargs))
        return traced

    def fn_wrapper(self, name: str, fn: Callable,
                   after: Callable[[tuple, Any], None] | None = None
                   ) -> Callable:
        nid = self.spans.name_id(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            index = spans.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.close(index)
            if after is not None:
                after(args, result)
            return result
        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Install every layer wrapper (undone by :meth:`uninstall`)."""
        gen, fn = self.gen_wrapper, self.fn_wrapper
        self._patch(ScriptInstance, "enroll",
                    gen("core.enroll", ScriptInstance.enroll))
        for method in ("send", "receive", "select", "broadcast", "gather"):
            self._patch(RoleContext, method,
                        gen("core.role", getattr(RoleContext, method)))
        self._patch(instance_mod, "solve",
                    fn("core.solve", instance_mod.solve, self._note_solve))
        self._patch(instance_mod, "consistent_extension",
                    fn("core.join", instance_mod.consistent_extension))
        self._patch(Scheduler, "run", fn("runtime.run", Scheduler.run))
        self._patch(Tracer, "emit", fn("runtime.trace", Tracer.emit))
        self._patch(JournalRecorder, "__init__",
                    fn("persist.open", JournalRecorder.__init__,
                       lambda args, _: self.recorders.append(args[0])))
        listener = JournalRecorder.event_listener
        self._patch(JournalRecorder, "event_listener",
                    lambda recorder: fn("persist.note", listener(recorder)))
        for method in ("on_decision", "_note_snapshot"):
            self._patch(JournalRecorder, method,
                        fn("persist.note", getattr(JournalRecorder, method)))
        self._patch(JournalRecorder, "finish",
                    fn("persist.finish", JournalRecorder.finish))
        for module in (lang_mod, analyzer_mod):
            self._patch(module, "parse_script",
                        fn("lang.parse", module.parse_script))
            self._patch(module, "analyze", fn("lang.analyze", module.analyze))
        self._patch(lang_mod, "compile_program",
                    fn("lang.compile", lang_mod.compile_program))
        self._patch(analyzer_mod, "analyze_source",
                    fn("analysis.source", analyzer_mod.analyze_source))
        for helper in ("collect_sites", "terminated_partners",
                       "_check_indices", "_check_unmatched"):
            self._patch(analyzer_mod, helper,
                        fn("analysis.check", getattr(analyzer_mod, helper)))
        self._patch(analyzer_mod, "analyze_deadlocks",
                    fn("analysis.deadlock", analyzer_mod.analyze_deadlocks))
        self._patch(analyzer_mod, "analyze_critical",
                    fn("analysis.critical", analyzer_mod.analyze_critical))
        self._patch(param_mod, "run_parameterized",
                    fn("analysis.param", param_mod.run_parameterized,
                       self._note_param))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _note_solve(self, args: tuple, result: Any) -> None:
        self.solve_pool += len(args[0])
        self.solve_hits += result is not None

    def _note_param(self, _args: tuple, result: Any) -> None:
        self.param_states += result.get("states", 0)

    # -- hooks the benchmark calls while tracing ----------------------------

    @contextlib.contextmanager
    def root(self):
        """One traced round: set-up through the end of its timed region."""
        index = self.spans.open(self.spans.name_id(ROOT))
        try:
            yield
        finally:
            self.spans.close(index)

    def adopt_scheduler(self, scheduler: Scheduler) -> None:
        """Attach a profiler to a scheduler the workload built."""
        self.schedulers.append(scheduler)
        self.profilers.append(Profiler().attach(scheduler))

    def wrap_bodies(self, script: Any, layer: str) -> None:
        """Time the role bodies of ``script`` as ``layer``'s self time."""
        for name, decl in list(script.declarations.items()):
            script.declarations[name] = dataclasses.replace(
                decl, body=self.gen_wrapper(layer, decl.body))

    def own_process(self, body: Any) -> Any:
        """Charge a benchmark-owned process body to the benchmark."""
        return _resumptions(self.spans, self.spans.name_id("bench.process"),
                            body)

    # -- results -----------------------------------------------------------

    def metrics(self, *, ops: int, msgs: int, overhead_ratio: float
                ) -> dict[str, float]:
        """Every per-layer metric of the traced phase (0 where unused)."""
        spans = self.spans
        _, wall_ns, _ = spans.stat(ROOT)

        def self_us(name: str) -> float:
            return spans.stat(name)[2] / 1e3 / msgs if msgs else 0.0

        def ms_per_call(name: str) -> float:
            calls, total, _ = spans.stat(name)
            return total / 1e6 / calls if calls else 0.0

        def ms_per_op(name: str) -> float:
            return spans.stat(name)[1] / 1e6 / ops

        def per_msg(count: float) -> float:
            return count / msgs if msgs else 0.0

        def phase_us(phase: str) -> float:
            return per_msg(sum(p.phase_ns[phase] for p in self.profilers)
                           / 1e3)

        layer_self = {layer: 0 for layer in LAYERS}
        for nid, name in enumerate(spans.names):
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += spans.self_ns[nid]
        solve_calls = spans.stat("core.solve")[0]
        commits = sum(p.commits for p in self.profilers)
        queries = sum(p.candidate_queries for p in self.profilers)
        values = {
            "core.solve_calls_per_op": solve_calls / ops,
            "core.solve_hit_ratio": (self.solve_hits / solve_calls
                                     if solve_calls else 0.0),
            "core.pool_at_solve_mean": (self.solve_pool / solve_calls
                                        if solve_calls else 0.0),
            "core.solve_us_per_msg": self_us("core.solve"),
            "core.join_us_per_msg": self_us("core.join"),
            "core.role_us_per_msg": self_us("core.role"),
            "runtime.dispatch_us_per_msg": phase_us("dispatch"),
            "runtime.match_us_per_msg": phase_us("match"),
            "runtime.commit_us_per_msg": phase_us("commit"),
            "runtime.settle_us_per_msg": phase_us("settle"),
            "runtime.settle_rounds_per_commit": (
                sum(p.settle_rounds for p in self.profilers) / commits
                if commits else 0.0),
            "runtime.candidates_per_query": (
                sum(p.candidates_seen for p in self.profilers) / queries
                if queries else 0.0),
            "runtime.cache_hits_per_msg": per_msg(
                sum(s.board.cache_hits for s in self.schedulers)),
            "runtime.board_depth_max": float(max(
                (p.board_depth_max for p in self.profilers), default=0)),
            "runtime.waiters_polled_per_msg": per_msg(
                sum(p.waiters_polled for p in self.profilers)),
            "runtime.events_per_msg": per_msg(spans.stat("runtime.trace")[0]),
            "runtime.trace_us_per_msg": self_us("runtime.trace"),
            "lang.parse_ms": ms_per_call("lang.parse"),
            "lang.analyze_ms": ms_per_call("lang.analyze"),
            "lang.compile_ms": ms_per_call("lang.compile"),
            "lang.step_us_per_msg": self_us("lang.step"),
            "scripts.body_us_per_msg": self_us("scripts.body"),
            "persist.frames_per_msg": per_msg(
                sum(r.writer.frames_written for r in self.recorders)),
            "persist.bytes_per_msg": per_msg(
                sum(r.writer.bytes_written for r in self.recorders)),
            "persist.note_us_per_msg": self_us("persist.note"),
            "persist.finish_ms": ms_per_call("persist.finish"),
            "analysis.check_ms": ms_per_op("analysis.check"),
            "analysis.deadlock_ms": ms_per_op("analysis.deadlock"),
            "analysis.critical_ms": ms_per_op("analysis.critical"),
            "analysis.param_ms": ms_per_op("analysis.param"),
            "analysis.param_states": self.param_states / ops,
        }
        for layer, ns in layer_self.items():
            values[f"{layer}.self_share"] = ns / wall_ns
        values["trace.attributed_share"] = sum(layer_self.values()) / wall_ns
        values["trace.overhead_ratio"] = overhead_ratio
        return values
