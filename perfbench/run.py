"""The repository's end-to-end benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload star-wide --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (see README.md and layers.json).  Metric names and units
are those of BENCHMARK.json.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Extra set-ups timed (and discarded) before each round, so that
#: ``setup_s`` is a median over samples spread across the whole run.
SETUP_SAMPLES_PER_ROUND = 8


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}; run "
                         f"from the root of a checkout of the repository")
    sys.path.insert(0, str(src))


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Outcome:
    """What a run keeps of one round once its outputs are checked."""

    wall: float
    messages: int
    traced: bool
    latencies: array

    @property
    def ops(self) -> int:
        return len(self.latencies)


@dataclass
class Run:
    outcomes: list[Outcome] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    #: ``ru_maxrss`` (KiB) at the end of the first round's timed region,
    #: before any output check could raise it.
    peak_rss_kb: int = 0
    attempted: int = 0
    failed: int = 0

    def wall_per_op(self, traced: bool) -> float:
        chosen = [o for o in self.outcomes if o.traced == traced]
        return sum(o.wall for o in chosen) / sum(o.ops for o in chosen)


def run_rounds(workload, seconds: float, tracing=None) -> Run:
    """Run rounds until their timed walls add up to ``seconds``.

    Each round is checked as soon as it has run, outside the timed region,
    and only its counts and latencies are kept, so what the benchmark
    retains does not grow with the work done.  Untimed runs also time
    ``SETUP_SAMPLES_PER_ROUND`` discarded set-ups before each round.  With
    ``tracing``, every second round is traced (at least one of each).
    """
    run = Run()
    timed = 0.0
    while timed < seconds or (tracing is not None and len(run.outcomes) < 2):
        traced = tracing is not None and len(run.outcomes) % 2 == 1
        gc.collect()
        if tracing is None:
            for _ in range(SETUP_SAMPLES_PER_ROUND):
                start = perf_counter()
                spare = workload.setup()
                run.setups.append(perf_counter() - start)
                spare.discard()
        if traced:
            tracing.install()
        try:
            with tracing.root() if traced else contextlib.nullcontext():
                start = perf_counter()
                round_ = workload.setup(tracing if traced else None)
                run.setups.append(perf_counter() - start)
                wall = round_.execute()
        finally:
            if traced:
                tracing.uninstall()
        if not run.outcomes:
            run.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        attempted, failed = round_.check()
        run.attempted += attempted
        run.failed += failed
        run.outcomes.append(Outcome(wall, round_.messages, traced,
                                    array("d", round_.latencies)))
        timed += wall
    return run


def timed(workload, seconds: float) -> dict:
    """The end-to-end metrics, each over every round of the run.

    The host's CPU speed swings by up to 2x in phases of seconds to
    minutes, so a run's rounds mix fast and slow phases in proportions that
    differ from run to run.  Sums and means over the rounds move in
    proportion to that mix; a median over them, or over the pooled
    latencies, jumps between phases.  So the rates are total work over
    total timed wall and ``op_ms_p50`` is the mean of the rounds' medians
    (README.md, "Steadiness").
    """
    workload.warm()
    run = run_rounds(workload, seconds)
    ordered = sorted(x for o in run.outcomes for x in o.latencies)
    wall = sum(o.wall for o in run.outcomes)
    beyond = len(ordered) - math.ceil(workload.tail / 100 * len(ordered))
    print(f"{workload.name}: {len(ordered)} ops in {len(run.outcomes)} "
          f"rounds, {wall:.3f} s timed; op_ms_tail is p{workload.tail} "
          f"with {beyond} samples beyond it")
    values = {
        "setup_s": statistics.median(run.setups),
        "ops_per_s": len(ordered) / wall,
        "op_ms_p50": statistics.fmean(
            percentile(sorted(o.latencies), 50) for o in run.outcomes) * 1e3,
        "op_ms_tail": percentile(ordered, workload.tail) * 1e3,
        "msgs_per_s": sum(o.messages for o in run.outcomes) / wall,
        "peak_rss_mb": run.peak_rss_kb / 1024,
    }
    return _result(run, values, _declared("end_to_end"))


def traced(workload, seconds: float) -> dict:
    from tracing import Tracing
    from workloads import OUT

    workload.warm()
    tracing = Tracing()
    run = run_rounds(workload, seconds, tracing)
    chosen = [o for o in run.outcomes if o.traced]
    values = tracing.metrics(
        ops=sum(o.ops for o in chosen),
        msgs=sum(o.messages for o in chosen),
        overhead_ratio=run.wall_per_op(True) / run.wall_per_op(False))
    tracing.spans.write(OUT / f"spans-{workload.name}")
    layers = json.loads((HERE / "layers.json").read_text())["per_layer"]
    units = _declared("per_layer")
    if set(layers) != set(units):
        raise SystemExit(f"perfbench: layers.json and BENCHMARK.json name "
                         f"different per-layer metrics: "
                         f"{sorted(set(layers) ^ set(units))}")
    return _result(run, values, units)


def _result(run: Run, values: dict[str, float], units: dict[str, str]
            ) -> dict:
    if set(values) != set(units):
        raise SystemExit(f"perfbench: BENCHMARK.json and the measured "
                         f"metrics disagree: {sorted(set(values) ^ set(units))}")
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    attempted, failed = run.attempted, run.failed
    print(f"fail_ratio {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} ops failed)")
    return {"correct": attempted > 0 and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    result = (traced if args.trace else timed)(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
