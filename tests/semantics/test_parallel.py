"""The process-parallel frontier-sharded explorer (PR 5).

The strongest property is tested directly: without reduction, the
merged graph is *identical* to the sequential ``_explore_full``
graph — same state numbering, edge lists and classification sets —
because the coordinator's canonical BFS replays the same traversal
over the same recorded successor lists. POR mode is compared on
behaviour sets (the reduced state *set* legitimately differs: region
DFS stacks are shallower than the sequential global DFS, so the cycle
proviso fires at different worlds).
"""

import pytest

from repro.framework.build import lock_counter_system
from repro.semantics import (
    ExplorationLimit,
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    behaviours,
    explore,
    find_race,
    parallel_explore,
    replay_schedule,
)
from repro.semantics.explore import Behaviour
from repro.semantics.parallel import available, default_jobs

from tests.helpers import SUITE, cimp_program, minic_program

pytestmark = pytest.mark.skipif(
    not available(), reason="platform cannot fork workers"
)

_RACY = "t1(){ [C] := 1; x := [C]; } t2(){ [C] := 2; y := [C]; }"
_SAFE = "t1(){ <x := [C]; [C] := x + 1;> } t2(){ <[C] := 9;> }"


def _ctx(program):
    return GlobalContext(program)


def _graphs_identical(g1, g2):
    assert g1.states == g2.states
    assert g1.ids == g2.ids
    assert g1.edges == g2.edges
    assert g1.initial == g2.initial
    assert g1.done == g2.done
    assert g1.stuck == g2.stuck
    assert g1.truncated == g2.truncated
    assert g1.halted == g2.halted


@pytest.mark.parametrize("jobs", [2, 3, 4])
@pytest.mark.parametrize(
    "build",
    [
        lambda: cimp_program(_RACY, ["t1", "t2"]),
        lambda: minic_program([SUITE["loops"]], ["main"])[0],
        lambda: lock_counter_system(2).source_program(),
    ],
    ids=["cimp-racy", "minic-loops", "lock-counter-2"],
)
def test_full_mode_graph_is_bit_identical(build, jobs):
    ctx = _ctx(build())
    sem = PreemptiveSemantics()
    seq = explore(ctx, sem, reduce=False)
    par = explore(ctx, sem, reduce=False, jobs=jobs)
    _graphs_identical(seq, par)


@pytest.mark.parametrize("sem_cls", [PreemptiveSemantics,
                                     NonPreemptiveSemantics],
                         ids=lambda c: c.name)
def test_nonpreemptive_and_preemptive_full_mode(sem_cls):
    ctx = _ctx(cimp_program(_SAFE, ["t1", "t2"]))
    seq = explore(ctx, sem_cls(), reduce=False)
    par = explore(ctx, sem_cls(), reduce=False, jobs=2)
    _graphs_identical(seq, par)


@pytest.mark.parametrize("jobs", [2, 4])
def test_por_mode_behaviours_agree(jobs):
    ctx = _ctx(lock_counter_system(2).source_program())
    sem = PreemptiveSemantics()
    seq = behaviours(explore(ctx, sem, reduce=True), 12)
    par = behaviours(explore(ctx, sem, reduce=True, jobs=jobs), 12)
    assert seq == par


def test_jobs_one_falls_back_to_sequential():
    ctx = _ctx(lock_counter_system(1).source_program())
    sem = PreemptiveSemantics()
    _graphs_identical(
        explore(ctx, sem), explore(ctx, sem, jobs=1)
    )
    # parallel_explore itself also degrades to the sequential path.
    _graphs_identical(
        explore(ctx, sem), parallel_explore(ctx, sem, jobs=1)
    )


def test_observer_with_jobs_rejected():
    ctx = _ctx(cimp_program(_RACY, ["t1", "t2"]))
    with pytest.raises(ValueError, match="observer"):
        explore(
            ctx, PreemptiveSemantics(), jobs=2,
            observer=lambda w, o: False,
        )


def test_strict_limit_raises_in_parallel():
    ctx = _ctx(lock_counter_system(2).source_program())
    with pytest.raises(ExplorationLimit):
        explore(
            ctx, PreemptiveSemantics(), max_states=40, strict=True,
            jobs=2,
        )


def test_truncation_surfaces_as_cut_behaviours():
    ctx = _ctx(lock_counter_system(2).source_program())
    graph = explore(ctx, PreemptiveSemantics(), max_states=40, jobs=2)
    assert graph.truncated
    assert any(
        b.end == Behaviour.CUT for b in behaviours(graph, 12)
    )


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("red", [False, True], ids=["full", "por"])
def test_parallel_race_witness_is_replayable(jobs, red):
    ctx = _ctx(cimp_program(_RACY, ["t1", "t2"]))
    seq = find_race(ctx, PreemptiveSemantics(), reduce=red)
    par = find_race(ctx, PreemptiveSemantics(), reduce=red, jobs=jobs)
    assert (seq is None) == (par is None) is False
    assert par.schedule is not None
    # The merged graph's edge lists are in successor order, so the
    # captured schedule replays under the plain semantics.
    res = replay_schedule(ctx, par.schedule)
    assert res.world == par.world


@pytest.mark.parametrize("red", [False, True], ids=["full", "por"])
def test_parallel_race_verdict_negative(red):
    ctx = _ctx(cimp_program(_SAFE, ["t1", "t2"]))
    assert find_race(ctx, PreemptiveSemantics(), reduce=red,
                     jobs=2) is None


def test_race_on_the_fly_false_with_jobs():
    ctx = _ctx(cimp_program(_RACY, ["t1", "t2"]))
    witness = find_race(
        ctx, PreemptiveSemantics(), reduce=False, on_the_fly=False,
        jobs=2,
    )
    assert witness is not None and witness.schedule is not None


def test_max_atomic_steps_defaults_from_semantics():
    ctx = _ctx(cimp_program(_SAFE, ["t1", "t2"]))
    # A one-step horizon cripples Predict-1 less than not at all; the
    # point here is only that the semantics' bound is adopted without
    # crashing and the verdict stays stable for this safe program.
    sem = PreemptiveSemantics(max_atomic_steps=8)
    assert sem.max_atomic_steps == 8
    assert find_race(ctx, sem) is None


def test_default_jobs_parsing():
    assert default_jobs({}) == 1
    assert default_jobs({"REPRO_JOBS": "4"}) == 4
    assert default_jobs({"REPRO_JOBS": " 2 "}) == 2
    assert default_jobs({"REPRO_JOBS": "junk"}) == 1
    assert default_jobs({"REPRO_JOBS": "-3"}) == 1
    assert default_jobs({"REPRO_JOBS": "0"}) == 1
