"""Golden digests of explored world graphs.

Each case explores one program under one semantics and exploration mode
and hashes the whole graph: the state order, each world's current
thread, atomic bits, sorted memory items and per-thread frame reprs,
every edge, and the initial/done/stuck/truncated sets. The digests in
``graph_golden.json`` pin the explorer's output bit for bit, so any
change to the exploration loops, the semantics or interning that moves
a state, an edge or a verdict shows up here. The 3-thread source counter
and the x86-TSO cases are explored a second time with a heartbeat
written at every stride of the loop; they must give the same digests,
so telemetry cannot perturb exploration.

The digests must not depend on hash order; CI runs this file under a
fixed ``PYTHONHASHSEED`` too. Regenerate them, after a deliberate
change to the graphs, with::

    PYTHONPATH=src:. python -m tests.semantics.test_graph_golden --write
"""

import hashlib
import json
import os
import sys

import pytest

from repro.framework.build import lock_counter_system
from repro.obs import status
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    explore,
)
from repro.semantics.explore import _HB_STRIDE

from tests.helpers import example_programs

GOLDEN = os.path.join(os.path.dirname(__file__), "graph_golden.json")

#: ``mode -> (semantics factory, reduce)``.
MODES = {
    "preemptive-full": (PreemptiveSemantics, False),
    "preemptive-por": (PreemptiveSemantics, True),
    "nonpreemptive": (NonPreemptiveSemantics, False),
}

#: The 3-thread lock counter's programs at each level, explored under
#: the preemptive semantics, full and reduced. The state bound keeps the
#: full x86-SC graph (59,340 worlds) whole and cuts the full x86-TSO one,
#: so the truncated set is pinned too.
LOCK3_LEVELS = ("source", "sc", "tso")
LOCK3_MODES = ("preemptive-full", "preemptive-por")
LOCK3_MAX_STATES = 60000


def _lock3_program(level):
    system = lock_counter_system(3)
    return getattr(system, level + "_program")()


def world_records(states):
    """A hash-order-independent description of each world.

    Frames and memories are shared between worlds, so each one's
    rendering is computed once (keyed by identity: the graph keeps
    every object alive while this runs).
    """
    frames_seen = {}
    mems_seen = {}

    def frame_record(frame):
        rec = frames_seen.get(id(frame))
        if rec is None:
            rec = frames_seen[id(frame)] = [frame.mod_idx, repr(frame.core)]
        return rec

    def mem_record(mem):
        rec = mems_seen.get(id(mem))
        if rec is None:
            rec = mems_seen[id(mem)] = sorted(
                [addr, repr(value)] for addr, value in mem.items()
            )
        return rec

    return [
        [
            world.cur,
            list(world.bits),
            mem_record(world.mem),
            [[frame_record(f) for f in frames] for frames in world.threads],
        ]
        for world in states
    ]


def graph_digest(graph):
    """The sha256 of a canonical JSON rendering of ``graph``."""
    doc = {
        "states": world_records(graph.states),
        "edges": [
            [[repr(label), dst] for label, dst in graph.edges.get(sid, ())]
            for sid in range(graph.state_count())
        ],
        "initial": list(graph.initial),
        "done": sorted(graph.done),
        "stuck": sorted(graph.stuck),
        "truncated": sorted(graph.truncated),
        "halted": graph.halted,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _explore(program, mode, max_states=50000):
    factory, reduce = MODES[mode]
    return explore(
        GlobalContext(program), factory(), max_states=max_states,
        reduce=reduce,
    )


def cases():
    """``name -> thunk`` building each golden case's graph."""
    found = {}
    for name, prog in sorted(example_programs().items()):
        for mode in MODES:
            found["{}/{}".format(name, mode)] = (
                lambda prog=prog, mode=mode: _explore(prog, mode)
            )
    for level in LOCK3_LEVELS:
        for mode in LOCK3_MODES:
            found["lock-counter-3-{}/{}".format(level, mode)] = (
                lambda level=level, mode=mode: _explore(
                    _lock3_program(level), mode, LOCK3_MAX_STATES
                )
            )
    return found


def _load_golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


CASES = cases()


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_matches_golden_digest(name):
    assert graph_digest(CASES[name]()) == _load_golden()[name]


@pytest.mark.parametrize("mode", LOCK3_MODES)
def test_heartbeat_does_not_perturb_the_graph(mode, tmp_path):
    # Interval 0: every stride of the loop writes a heartbeat.
    status.configure(str(tmp_path / "st.json"), interval=0.0)
    try:
        graph = _explore(
            _lock3_program("source"), mode, LOCK3_MAX_STATES
        )
    finally:
        status.reset()
    assert graph_digest(graph) == _load_golden()[
        "lock-counter-3-source/{}".format(mode)
    ]
    assert (tmp_path / "st.json").exists()


#: Golden cases with several strides of states under each semantics and
#: loop: the x86-TSO lock counter and Peterson's algorithm.
HEARTBEAT_CASES = [
    "{}/{}".format(name, mode)
    for name in ("lock-counter-tso", "peterson-tso")
    for mode in MODES
]


@pytest.mark.parametrize("name", HEARTBEAT_CASES)
def test_heartbeat_does_not_perturb_small_graphs(name, tmp_path):
    status.configure(str(tmp_path / "st.json"), interval=0.0)
    try:
        graph = CASES[name]()
        beat = status.load(str(tmp_path / "st.json"))
    finally:
        status.reset()
    assert graph.state_count() > 2 * _HB_STRIDE
    assert beat["states"] == graph.state_count()
    assert graph_digest(graph) == _load_golden()[name]


def _write():
    digests = {name: graph_digest(build()) for name, build in CASES.items()}
    with open(GOLDEN, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote {} digests to {}".format(len(digests), GOLDEN))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.semantics.test_graph_golden --write")
    _write()
