"""``behaviours()`` against its tuple-keyed reference.

The explorer extracts behaviours with int-packed BFS nodes (a trace trie
plus ``trace_id * n + sid``) and a list/bytearray Tarjan. The reference
in :mod:`tests.semantics.behaviours_reference` is the straightforward
form: ``(sid, trace)`` tuples and dict-based Tarjan. On every example
program, with POR on and off and under the non-preemptive semantics,
both must give the same behaviour set, the same divergent states, and —
when the ``max_nodes`` bound cuts the enumeration — the same number of
pending traces in the truncation warning. Without the divergence
analysis (``termination_sensitive=False``) the set must lose exactly
its ``silent_div`` behaviours.
"""

import pytest

from repro import obs
from repro.semantics import (
    Behaviour,
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    behaviours,
    explore,
)
from repro.semantics.explore import _progress_divergent_states

from tests.helpers import example_programs
from tests.semantics import behaviours_reference as reference

_PROGRAMS = example_programs()
_MODES = {
    "full": (PreemptiveSemantics, False),
    "por": (PreemptiveSemantics, True),
    "nonpreemptive": (NonPreemptiveSemantics, False),
}
_DEFAULT_MAX_NODES = 200000
_MAX_NODES = [50, 1000, 5000, _DEFAULT_MAX_NODES]
_MAX_EVENTS = 4

_GRAPHS = {}


def _graph(name, mode):
    key = (name, mode)
    if key not in _GRAPHS:
        sem, reduce = _MODES[mode]
        _GRAPHS[key] = explore(
            GlobalContext(_PROGRAMS[name]), sem(), max_states=20000,
            reduce=reduce,
        )
    return _GRAPHS[key]


def _behaviours_and_pending(monkeypatch, graph, max_nodes):
    """Run ``behaviours()``, returning the set and the pending count
    its truncation warning reported (``None`` when not truncated)."""
    warned = []

    def record(message, **fields):
        warned.append(fields)

    monkeypatch.setattr(obs, "warn", record)
    if max_nodes == _DEFAULT_MAX_NODES:
        got = behaviours(graph, max_events=_MAX_EVENTS)
    else:
        got = behaviours(
            graph, max_events=_MAX_EVENTS, max_nodes=max_nodes
        )
    pending = [w["pending"] for w in warned if "pending" in w]
    assert len(pending) <= 1
    return got, (pending[0] if pending else None)


@pytest.mark.parametrize("max_nodes", _MAX_NODES)
@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_behaviours_match_reference(monkeypatch, name, mode, max_nodes):
    graph = _graph(name, mode)
    got = _behaviours_and_pending(monkeypatch, graph, max_nodes)
    assert got == reference.behaviours(graph, _MAX_EVENTS, max_nodes)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_divergent_states_match_reference(name, mode):
    graph = _graph(name, mode)
    div = _progress_divergent_states(graph)
    assert len(div) == graph.state_count()
    assert {sid for sid, d in enumerate(div) if d} == (
        reference.divergent_states(graph)
    )


def test_the_cube_covers_truncation_and_divergence(monkeypatch):
    # The comparisons above are only as strong as the cases they meet:
    # some cut the enumeration, and some graphs have divergent states.
    graph = _graph("lock-counter-source", "full")
    _, pending = _behaviours_and_pending(monkeypatch, graph, 50)
    assert pending
    assert any(_progress_divergent_states(graph))
    assert any(_progress_divergent_states(_graph("cimp-spin", "full")))


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_termination_insensitive_drops_only_silent_div(name, mode):
    # ``termination_sensitive=False`` skips the divergence analysis: the
    # set must be the default one without its ``silent_div`` members.
    graph = _graph(name, mode)
    full = behaviours(graph, max_events=_MAX_EVENTS)
    assert behaviours(
        graph, max_events=_MAX_EVENTS, termination_sensitive=False
    ) == {b for b in full if b.end != Behaviour.SILENT_DIV}


def test_the_cube_meets_silent_div():
    # The comparison above drops something on some graph.
    assert any(
        b.end == Behaviour.SILENT_DIV
        for b in behaviours(
            _graph("cimp-spin", "full"), max_events=_MAX_EVENTS
        )
    )
