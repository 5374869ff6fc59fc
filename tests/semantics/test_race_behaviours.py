"""The ``Explorations`` memo against the two calls it fuses.

On every example program, under both semantics and both termination
modes, the memo must give the verdict of ``find_race`` and the set of
``program_behaviours``: from the race search's own graph when the
program is race-free, from the observer-free fallback when a race
halts the search. A program over the state bound still raises. Each
question is answered by one exploration per program and semantics.
"""

import pytest

from repro.semantics import (
    ExplorationLimit,
    Explorations,
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    find_race,
    program_behaviours,
    race,
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


def _counting(monkeypatch, name):
    """Record the keyword arguments of every call to ``race.<name>``."""
    calls = []
    real = getattr(race, name)

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(race, name, counting)
    return calls


@pytest.mark.parametrize("sensitive", [True, False])
@pytest.mark.parametrize("sem", sorted(_SEMANTICS))
@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_fused_equals_separate_calls(name, sem, sensitive):
    program = _PROGRAMS[name]
    ctx = GlobalContext(program)
    semantics = _SEMANTICS[sem]()
    runs = Explorations(_MAX_STATES, _MAX_EVENTS)
    behs = runs.behaviours(program, semantics, sensitive)
    assert (runs.race(program, semantics) is None) == (
        find_race(ctx, semantics, _MAX_STATES) is None
    )
    assert behs == program_behaviours(
        ctx, semantics, _MAX_STATES, _MAX_EVENTS,
        termination_sensitive=sensitive,
    )


@pytest.mark.parametrize("name", ["racy.c", "peterson-tso"])
def test_racy_program_takes_the_fallback(name, monkeypatch):
    # The halted search's witness keeps its schedule, and the behaviours
    # come from a second, observer-free exploration, run once.
    program = _PROGRAMS[name]
    fallbacks = _counting(monkeypatch, "program_behaviours")
    runs = Explorations(_MAX_STATES, _MAX_EVENTS)
    witness = runs.race(program, PreemptiveSemantics())
    assert witness is not None and witness.schedule is not None
    behs = runs.behaviours(program, PreemptiveSemantics())
    assert runs.behaviours(program, PreemptiveSemantics()) is behs
    assert len(fallbacks) == 1
    assert behs == program_behaviours(
        GlobalContext(program), PreemptiveSemantics(), _MAX_STATES,
        _MAX_EVENTS,
    )


def test_source_over_the_state_bound_raises(monkeypatch):
    # On every ask, from the one search per semantics that hit the
    # bound.
    searches = _counting(monkeypatch, "explore")
    program = lock_counter_system(2).source_program()
    runs = Explorations(50, _MAX_EVENTS)
    for semantics in (PreemptiveSemantics(), NonPreemptiveSemantics()):
        for ask in (runs.race, runs.behaviours, runs.race):
            with pytest.raises(ExplorationLimit, match="state bound 50"):
                ask(program, semantics)
    assert len(searches) == 2


def test_race_free_program_is_explored_once(monkeypatch):
    searches = _counting(monkeypatch, "explore")
    program = _PROGRAMS["counter.c"]
    runs = Explorations(_MAX_STATES, _MAX_EVENTS)
    # A fresh semantics object asks the same question.
    assert runs.race(program, PreemptiveSemantics()) is None
    assert runs.behaviours(program, PreemptiveSemantics())
    assert runs.behaviours(program, PreemptiveSemantics(), False)
    assert len(searches) == 1 and searches[0]["observer"] is not None


def test_memo_is_keyed_by_semantics_and_bound():
    program = _PROGRAMS["counter.c"]
    runs = Explorations(_MAX_STATES, _MAX_EVENTS)
    pre = runs.search(program, PreemptiveSemantics())
    assert runs.search(program, NonPreemptiveSemantics()) is not pre
    assert runs.search(program, PreemptiveSemantics(8)) is not pre
    assert runs.search(program, PreemptiveSemantics()) is pre
