"""The scenario registry: one table, read by every verb."""

import argparse

import pytest

from repro.__main__ import build_parser
from repro.scenarios import CHAOS, JOURNAL, SCENARIOS, TRACE, get, names

PLANNED = [entry for entry in SCENARIOS if entry.draw_plan is not None]


@pytest.mark.parametrize("entry", PLANNED, ids=lambda entry: entry.name)
def test_plan_matches_what_the_runner_installs(entry):
    for seed in (0, 7, 19):
        assert entry.plan(seed).describe() == entry.run(seed).faults


def test_plan_follows_the_sizing_options():
    entry = get("broadcast", CHAOS)
    for seed in range(12):
        assert (entry.plan(seed, n=2).describe()
                == entry.run(seed, n=2).faults)


def _choices(verb: str) -> tuple[str, ...]:
    """The scenario choices argparse accepts for ``verb``."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    sub = subparsers.choices[verb]
    positional = next(action for action in sub._actions
                      if action.dest in ("scenario", "script"))
    return tuple(positional.choices)


CHOICES = {"trace": names(TRACE), "stats": names(TRACE) + ("analysis",),
           "profile": names(TRACE), "chaos": names(CHAOS),
           "_kill9-child": names(JOURNAL)}


@pytest.mark.parametrize("verb", sorted(CHOICES))
def test_cli_choices_are_the_registry_names(verb):
    assert _choices(verb) == CHOICES[verb]


def test_names_are_unique():
    assert len({entry.name for entry in SCENARIOS}) == len(SCENARIOS)


def test_unknown_names_raise_the_callers_error():
    with pytest.raises(KeyError, match="unknown scenario 'nope'"):
        get("nope", JOURNAL, KeyError)
    with pytest.raises(ValueError, match="known trace scenarios"):
        get("broadcast", TRACE)

