"""``race_and_behaviours`` against the two calls it fuses.

On every example program, under both semantics and both termination
modes, the fused exploration must give the verdict of ``find_race`` and
the set of ``program_behaviours``: from the race search's own graph
when the program is race-free, from the observer-free fallback when a
race halts the search. A program over the state bound still raises.
"""

import pytest

from repro.semantics import (
    ExplorationLimit,
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    find_race,
    program_behaviours,
    race,
    race_and_behaviours,
)
from repro.framework import lock_counter_system

from tests.helpers import example_programs

_PROGRAMS = example_programs()
_SEMANTICS = {
    "preemptive": PreemptiveSemantics,
    "nonpreemptive": NonPreemptiveSemantics,
}
_MAX_STATES = 20000
_MAX_EVENTS = 4


@pytest.mark.parametrize("sensitive", [True, False])
@pytest.mark.parametrize("sem", sorted(_SEMANTICS))
@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_fused_equals_separate_calls(name, sem, sensitive):
    ctx = GlobalContext(_PROGRAMS[name])
    semantics = _SEMANTICS[sem]()
    witness, behs = race_and_behaviours(
        ctx, semantics, _MAX_STATES, _MAX_EVENTS,
        termination_sensitive=sensitive,
    )
    assert (witness is None) == (
        find_race(ctx, semantics, _MAX_STATES) is None
    )
    assert behs == program_behaviours(
        ctx, semantics, _MAX_STATES, _MAX_EVENTS,
        termination_sensitive=sensitive,
    )


@pytest.mark.parametrize("name", ["racy.c", "peterson-tso"])
def test_racy_program_takes_the_fallback(name):
    # The halted search's witness keeps its schedule, and the behaviours
    # come from a second, observer-free exploration.
    ctx = GlobalContext(_PROGRAMS[name])
    witness, behs = race_and_behaviours(
        ctx, PreemptiveSemantics(), _MAX_STATES, _MAX_EVENTS,
    )
    assert witness is not None and witness.schedule is not None
    assert behs == program_behaviours(
        ctx, PreemptiveSemantics(), _MAX_STATES, _MAX_EVENTS
    )


def test_source_over_the_state_bound_raises():
    ctx = GlobalContext(lock_counter_system(2).source_program())
    with pytest.raises(ExplorationLimit):
        race_and_behaviours(ctx, PreemptiveSemantics(), 50, _MAX_EVENTS)


def test_race_free_program_is_explored_once(monkeypatch):
    calls = []
    real = race.explore

    def counting(*args, **kwargs):
        calls.append(kwargs.get("observer"))
        return real(*args, **kwargs)

    monkeypatch.setattr(race, "explore", counting)
    witness, behs = race_and_behaviours(
        GlobalContext(_PROGRAMS["counter.c"]), PreemptiveSemantics(),
        _MAX_STATES, _MAX_EVENTS,
    )
    assert witness is None and behs
    assert len(calls) == 1 and calls[0] is not None
