"""Golden deterministic profiles: the settle loop's work counters, pinned.

``profile_scenario(..., deterministic=True)`` runs a scenario under the
tick clock, so its whole report — work counters (settles, rounds,
candidate queries, candidates seen, waiters polled), per-commit rates,
phase call counts and the tick-weighted wall section — is a pure function
of the seed and of the kernel's control flow.  The documents in
``golden/profile_deterministic.json`` pin that control flow on the
default (indexed) board: a behaviour-preserving change to the scheduler's
settle loop must leave every document byte-identical.

Regenerate (only for a deliberate, explained change to what the settle
loop does) with::

    PYTHONPATH=src python -m tests.obs.test_profile_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.obs import profile_scenario

GOLDEN = Path(__file__).parent / "golden" / "profile_deterministic.json"

SCENARIOS = ("demo-broadcast", "demo-lock", "demo-election")
SEEDS = (0, 1)
CASES = [f"{name}/seed{seed}" for name in SCENARIOS for seed in SEEDS]


def _render(case: str) -> str:
    name, _, seed = case.partition("/seed")
    _, report = profile_scenario(name, int(seed), n=5, deterministic=True)
    return json.dumps(report.to_dict(wall=True), indent=1, sort_keys=True)


def _golden() -> dict[str, object]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_deterministic_profile_unchanged(case):
    golden = json.dumps(_golden()[case], indent=1, sort_keys=True)
    assert _render(case) == golden


def _write() -> None:
    documents = {case: json.loads(_render(case)) for case in CASES}
    GOLDEN.write_text(json.dumps(documents, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(documents)} profiles to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.obs.test_profile_golden "
                         "--write")
    _write()
