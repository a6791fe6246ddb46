"""The four workloads, each a closed loop driven through the public API.

A workload turns ``--seed`` into its inputs and runs in *rounds*.  One
round is one set-up (:meth:`Workload.setup`: everything up to the first
``Scheduler.run``, the ``setup_s`` region) followed by a fixed number of
operations (:meth:`Round.execute`, the timed region).  The benchmark runs
rounds until the run's timed wall reaches ``--seconds`` and checks each
round's outputs as soon as it has run (:meth:`Round.check`).

Rounds keep a run's memory and garbage-collection cost independent of how
many operations it completes: the program keeps a history of every
performance (``ScriptInstance.performances``) and of every trace event, so
one unbounded closed loop would get slower and larger the faster it ran.
A round is dropped once it is checked; the run keeps only its counts and
latencies.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from time import perf_counter
from typing import Any

import repro.analysis.analyzer as analyzer_mod
import repro.analysis.witness as witness_mod
import repro.lang as lang_mod
from repro.analysis import figure_corpus
from repro.core import Ref
from repro.persist import JournalRecorder, read_journal
from repro.runtime import Scheduler
from repro.scripts.broadcast import make_star_broadcast
from repro.scripts.lockmanager import ONE_READ_ALL_WRITE, ReplicatedLockService

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Enough steps for any round; the kernel's default guards livelock in
#: tests, not closed loops of thousands of operations.
MAX_STEPS = 10 ** 12


class Round:
    """One set-up and its fixed batch of operations."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.messages = 0

    def execute(self) -> float:
        """Run every operation of the round; return the timed wall."""
        raise NotImplementedError

    def check(self) -> tuple[int, int]:
        """``(attempted, failed)`` operations, from the outputs."""
        raise NotImplementedError

    def discard(self) -> None:
        """Release what an unused set-up holds."""


class Workload:
    """Inputs made from a seed, and the rounds that consume them."""

    name = ""
    #: Percentile reported as ``op_ms_tail`` (at least 10 samples beyond it
    #: at the benchmark's run length; see layers.json).
    tail = 99

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self, tracing: Any = None) -> Round:
        raise NotImplementedError

    def warm(self) -> None:
        """Fill lazy imports and caches before the first timed round."""


def _scheduler(seed: int, tracing: Any) -> Scheduler:
    scheduler = Scheduler(seed=seed, max_steps=MAX_STEPS)
    if tracing is not None:
        tracing.adopt_scheduler(scheduler)
    return scheduler


def _spawn(scheduler: Scheduler, name: Any, body: Any, tracing: Any) -> None:
    scheduler.spawn(name, body if tracing is None else tracing.own_process(body))


def _run(scheduler: Scheduler) -> float:
    start = perf_counter()
    scheduler.run()
    return perf_counter() - start


# ---------------------------------------------------------------------------
# star-wide: Figure 3 at N=200, recipients re-enrolling in a closed loop
# ---------------------------------------------------------------------------

STAR_N = 200
STAR_PERFORMANCES = 15


class StarRound(Round):
    def __init__(self, seed: int, tracing: Any):
        super().__init__()
        rng = random.Random(seed)
        self.sent = [(k, rng.getrandbits(32))
                     for k in range(STAR_PERFORMANCES)]
        self.received: dict[int, list] = {i: [] for i in range(1, STAR_N + 1)}
        script = make_star_broadcast(STAR_N)
        if tracing is not None:
            tracing.wrap_bodies(script, "scripts.body")
        self.scheduler = _scheduler(seed, tracing)
        self.instance = script.instance(self.scheduler)
        _spawn(self.scheduler, "sender", self._sender(), tracing)
        for i in range(1, STAR_N + 1):
            _spawn(self.scheduler, ("recipient", i), self._recipient(i),
                   tracing)

    def _sender(self):
        for value in self.sent:
            start = perf_counter()
            yield from self.instance.enroll("sender", data=value)
            self.latencies.append(perf_counter() - start)

    def _recipient(self, index: int):
        got = self.received[index]
        for _ in range(STAR_PERFORMANCES):
            out = yield from self.instance.enroll(("recipient", index),
                                                  data=Ref())
            got.append(out["data"])

    def execute(self) -> float:
        wall = _run(self.scheduler)
        self.messages = self.scheduler.commit_count
        del self.scheduler, self.instance
        return wall

    def check(self) -> tuple[int, int]:
        failed = sum(1 for k, value in enumerate(self.sent)
                     if k >= len(self.latencies) or any(
                         k >= len(got) or got[k] != value
                         for got in self.received.values()))
        return len(self.sent), failed


class StarWide(Workload):
    name = "star-wide"
    tail = 90

    def setup(self, tracing: Any = None) -> Round:
        return StarRound(self.rng.getrandbits(32), tracing)


# ---------------------------------------------------------------------------
# rings-compiled: token_ring.script (n=6) compiled from source, 50 rings
# ---------------------------------------------------------------------------

RING_N = 6
RINGS = 50
RING_CIRCULATIONS = 20


class RingRound(Round):
    def __init__(self, source: str, seed: int, tracing: Any):
        super().__init__()
        rng = random.Random(seed)
        self.seeds = [[(ring, k, rng.getrandbits(32))
                       for k in range(RING_CIRCULATIONS)]
                      for ring in range(RINGS)]
        self.tokens: list[dict[int, list]] = [
            {i: [] for i in range(1, RING_N + 1)} for _ in range(RINGS)]
        program = lang_mod.parse_script(source)
        info = lang_mod.analyze(program)
        script = lang_mod.compile_program(program, info)
        if tracing is not None:
            tracing.wrap_bodies(script, "lang.step")
        self.scheduler = _scheduler(seed, tracing)
        for ring in range(RINGS):
            instance = script.instance(self.scheduler)
            _spawn(self.scheduler, ("ring", ring, 1),
                   self._head(ring, instance), tracing)
            for i in range(2, RING_N + 1):
                _spawn(self.scheduler, ("ring", ring, i),
                       self._node(ring, i, instance), tracing)

    def _head(self, ring: int, instance: Any):
        got = self.tokens[ring][1]
        for seed in self.seeds[ring]:
            start = perf_counter()
            out = yield from instance.enroll(("node", 1), seed=seed,
                                             token=Ref())
            self.latencies.append(perf_counter() - start)
            got.append(out["token"])

    def _node(self, ring: int, index: int, instance: Any):
        got = self.tokens[ring][index]
        for _ in range(RING_CIRCULATIONS):
            out = yield from instance.enroll(("node", index), seed=None,
                                             token=Ref())
            got.append(out["token"])

    def execute(self) -> float:
        wall = _run(self.scheduler)
        self.messages = self.scheduler.commit_count
        del self.scheduler
        return wall

    def check(self) -> tuple[int, int]:
        attempted = failed = 0
        for seeds, tokens in zip(self.seeds, self.tokens):
            for k, seed in enumerate(seeds):
                attempted += 1
                failed += any(k >= len(got) or got[k] != seed
                              for got in tokens.values())
        return attempted, failed


class RingsCompiled(Workload):
    name = "rings-compiled"

    def __init__(self, seed: int):
        super().__init__(seed)
        text = (ROOT / "examples" / "scripts" / "token_ring.script").read_text()
        self.source, count = re.subn(r"CONST n = \d+;",
                                     f"CONST n = {RING_N};", text)
        if count != 1:
            raise SystemExit("token_ring.script no longer declares CONST n")

    def setup(self, tracing: Any = None) -> Round:
        return RingRound(self.source, self.rng.getrandbits(32), tracing)


# ---------------------------------------------------------------------------
# lock-journaled: Figure 5 (k=3, one-read-all-write), 4 clients, journaled
# ---------------------------------------------------------------------------

LOCK_K = 3
CLIENTS = 4
ITEMS = 8
WRITE_SHARE = 0.3
ROUND_REQUESTS = 250      # per client


class LockRound(Round):
    """One journaled scheduler run; the timed region ends with ``finish``."""

    def __init__(self, seed: int, path: Path, tracing: Any):
        super().__init__()
        self.path = path
        self.scheduler = _scheduler(seed, tracing)
        self.recorder = JournalRecorder(
            path, seed=seed, scenario="perfbench.lock-journaled",
            options={"k": LOCK_K, "clients": CLIENTS, "items": ITEMS,
                     "requests_per_client": ROUND_REQUESTS})
        self.recorder.attach(self.scheduler)
        self.service = ReplicatedLockService(self.scheduler, k=LOCK_K,
                                             strategy=ONE_READ_ALL_WRITE)
        if tracing is not None:
            tracing.wrap_bodies(self.service.script, "scripts.body")
        self.service.expect_operations(CLIENTS * ROUND_REQUESTS)
        self.issued: dict[str, list[tuple]] = {}
        rng = random.Random(seed)
        for c in range(CLIENTS):
            self.issued[f"c{c}"] = []
            _spawn(self.scheduler, f"client-{c}",
                   self._client(f"c{c}", random.Random(rng.getrandbits(64))),
                   tracing)
        self.service.spawn_managers()

    def _client(self, owner: str, rng: random.Random):
        held: dict[int, str] = {}
        issued = self.issued[owner]
        for _ in range(ROUND_REQUESTS):
            if held and (len(held) == ITEMS or rng.random() < 0.5):
                item = rng.choice(sorted(held))
                role, op = held.pop(item), "release"
            else:
                role = "writer" if rng.random() < WRITE_SHARE else "reader"
                item = rng.choice([i for i in range(ITEMS) if i not in held])
                op = "lock"
            start = perf_counter()
            status = yield from self.service.request(role, owner, item, op)
            self.latencies.append(perf_counter() - start)
            issued.append((op, role, item, status))
            if status == "granted":
                held[item] = role

    def execute(self) -> float:
        start = perf_counter()
        self.scheduler.run()
        self.recorder.finish("ok")
        wall = perf_counter() - start
        self.messages = self.scheduler.commit_count
        self.frames = self.recorder.writer.frames_written
        del self.scheduler, self.recorder, self.service
        return wall

    def check(self) -> tuple[int, int]:
        """Read the journal back and replay it on an independent model."""
        attempted = sum(len(ops) for ops in self.issued.values())
        document = read_journal(self.path)
        self.path.unlink()
        if not document.complete or len(document.frames) + 1 != self.frames:
            return attempted, attempted
        return attempted, _replay_lock_model(document.frames, self.issued)

    def discard(self) -> None:
        self.recorder.close()
        self.path.unlink()


def _replay_lock_model(frames: list[dict], issued: dict[str, list]) -> int:
    """Failed requests, replaying the journal on a one-read-all-write model.

    Each manager's table is modelled as ``item -> (readers, writer)`` and
    fed the lock and release messages in commit order; every reply a
    manager sent must equal the model's decision.  Each request's status
    must be what one-read-all-write gives for the model's decisions, and
    the requests a client sent must be, in order, those it issued.
    """
    tables: list[dict] = [{} for _ in range(LOCK_K + 1)]
    pending: dict[tuple[str, int], list[bool]] = {}
    current: dict[str, list] = {}
    journaled: dict[str, list[list]] = {owner: [] for owner in issued}
    failed = 0
    for frame in frames:
        if frame.get("k") != "event" or frame.get("kind") != "comm":
            continue
        value, receiver = frame["d"]["value"], frame["d"]["receiver"]
        if isinstance(receiver, list):              # client -> manager
            client, manager = frame["p"].strip("'"), receiver[1]
            if value[0] == "lock":
                _, item, owner, mode = value
                readers, writer = tables[manager].get(item, (frozenset(), None))
                granted = writer in (None, owner) and (
                    mode == "read" or not readers - {owner})
                if granted:
                    tables[manager][item] = (
                        readers | {owner} if mode == "read" else readers,
                        owner if mode == "write" else writer)
                pending.setdefault((client, manager), []).append(granted)
                current.setdefault(owner, ["lock", mode, item, []])[3].append(
                    granted)
            elif value[0] == "release":
                _, item, owner = value
                readers, writer = tables[manager].get(item, (frozenset(), None))
                readers = readers - {owner}
                writer = None if writer == owner else writer
                if readers or writer is not None:
                    tables[manager][item] = (readers, writer)
                else:
                    tables[manager].pop(item, None)
                current.setdefault(owner, ["release", None, item, []])
            else:                                   # ("done",): request over
                owner = "c" + client.rsplit("-", 1)[1]
                if owner in current:
                    journaled[owner].append(current.pop(owner))
        else:                                       # manager -> client
            manager = int(frame["p"].strip("()").split(",")[1])
            queue = pending.get((receiver, manager))
            if not queue or (value == "granted") != queue.pop(0):
                failed += 1
    for owner, ops in issued.items():
        seen = journaled[owner]
        for k, (op, role, item, status) in enumerate(ops):
            if k >= len(seen):
                failed += 1
                continue
            j_op, mode, j_item, grants = seen[k]
            if op == "lock":
                want = "write" if role == "writer" else "read"
                quorum = LOCK_K if role == "writer" else 1
                model = (None if mode != want
                         else "granted" if sum(grants) >= quorum
                         else "denied")
            else:
                model = "released"
            failed += (j_op, j_item, model) != (op, item, status)
    return failed


class LockJournaled(Workload):
    name = "lock-journaled"

    def setup(self, tracing: Any = None) -> Round:
        OUT.mkdir(parents=True, exist_ok=True)
        seed = self.rng.getrandbits(32)
        return LockRound(seed, OUT / f"lock-{seed:08x}.journal", tracing)


# ---------------------------------------------------------------------------
# verify-corpus: parameterized analysis of every shipped script, repeated
# ---------------------------------------------------------------------------

VERIFY_PASSES = 40


class VerifyRound(Round):
    def __init__(self, workload: "VerifyCorpus", seed: int):
        super().__init__()
        self.workload = workload
        self.corpus = [(path.stem, path.read_text())
                       for path in workload.files] + figure_corpus()
        rng = random.Random(seed)
        self.order = [rng.sample(range(len(self.corpus)), len(self.corpus))
                      for _ in range(VERIFY_PASSES)]
        self.reports: list[tuple[str, Any]] = []

    def execute(self) -> float:
        made: list[Scheduler] = []

        class CountingScheduler(Scheduler):
            """The witness replays' scheduler, kept so commits can be counted."""

            def __init__(self, *args: Any, **kwargs: Any):
                super().__init__(*args, **kwargs)
                made.append(self)

        witness_mod.Scheduler = CountingScheduler
        try:
            start = perf_counter()
            for order in self.order:
                for index in order:
                    label, source = self.corpus[index]
                    begin = perf_counter()
                    report = analyzer_mod.analyze_source(
                        source, label=label, parameterized=True)
                    self.latencies.append(perf_counter() - begin)
                    self.reports.append((label, report))
            wall = perf_counter() - start
        finally:
            witness_mod.Scheduler = Scheduler
        self.messages = sum(s.commit_count for s in made)
        return wall

    def check(self) -> tuple[int, int]:
        golden, clean = self.workload.golden, self.workload.clean
        failed = 0
        for label, report in self.reports:
            fixed_n = [f.to_dict() for f in report.findings
                       if f.code < "SCR010"]
            failed += ((label in golden and fixed_n != golden[label])
                       or (label in clean and report.error_count > 0))
        return len(self.reports), failed


class VerifyCorpus(Workload):
    name = "verify-corpus"

    def __init__(self, seed: int):
        super().__init__(seed)
        examples = sorted((ROOT / "examples" / "scripts").glob("*.script"))
        fixtures = sorted((ROOT / "tests" / "analysis" / "fixtures")
                          .glob("*.script"))
        self.files = examples + fixtures
        golden_dir = ROOT / "tests" / "analysis" / "golden"
        #: Fixed-N findings (SCR001-SCR009) each labelled source must give.
        self.golden = {
            path.stem: json.loads(path.read_text())["reports"][0]["findings"]
            for path in sorted(golden_dir.glob("*.json"))}
        #: Examples and figures must analyze with no errors.
        self.clean = {path.stem for path in examples} | {
            label for label, _ in figure_corpus()}
        if not examples or not fixtures or not self.golden:
            raise SystemExit("verify-corpus: corpus or goldens missing")

    def setup(self, tracing: Any = None) -> Round:
        return VerifyRound(self, self.rng.getrandbits(32))

    def warm(self) -> None:
        for label, source in VerifyRound(self, 0).corpus:
            analyzer_mod.analyze_source(source, label=label,
                                        parameterized=True)


WORKLOADS = {cls.name: cls for cls in (StarWide, RingsCompiled,
                                       LockJournaled, VerifyCorpus)}
