"""The race checker's keyed entry point against its world entry point.

:class:`~repro.semantics.race._RaceChecker` checks explored worlds
through their packed keys (``observe``): it memoises predictions by an
int of the thread's key field and the memory id, and skips a world
whose key without ``cur`` it already checked. Callers holding worlds
call the checker itself. These tests feed every state an exploration
reaches to both entry points, in exploration order and with the
outcomes the loop shares, and hold them to the same verdict, witness
world and conflicting predictions; and they check that a race search
decodes a world only for a memo fill, a slow expansion or a witness.
"""

import importlib

import pytest

from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    explore,
    find_race,
)
from repro.semantics.race import _RaceChecker

from tests.helpers import example_programs
from tests.semantics.test_keyspace import _Capture

_EXAMPLES = example_programs()

explore_mod = importlib.import_module("repro.semantics.explore")


def _witness_parts(w):
    return (w.tid1, w.fp1, w.bit1, w.tid2, w.fp2, w.bit2)


@pytest.mark.parametrize("reduce", [False, True], ids=["full", "por"])
@pytest.mark.parametrize(
    "sem", [PreemptiveSemantics, NonPreemptiveSemantics],
    ids=["preemptive", "nonpreemptive"],
)
@pytest.mark.parametrize("name", sorted(_EXAMPLES))
def test_keyed_checker_matches_the_world_checker(name, sem, reduce):
    semantics = sem()
    ctx = GlobalContext(_EXAMPLES[name])
    quantum = sem is NonPreemptiveSemantics
    keyed = _RaceChecker(ctx, quantum, semantics.max_atomic_steps)
    plain = _RaceChecker(ctx, quantum, semantics.max_atomic_steps)
    fed = []

    def both(ks, k, live, outcomes):
        world = ks.decode(k)
        fed.append(world)
        got = keyed.observe(ks, k, live, outcomes)
        assert got == plain(world, outcomes), world
        return got

    graph = explore(
        ctx, semantics, max_states=20000, strict=True, reduce=reduce,
        observer=both,
    )
    assert fed
    assert (keyed.witness is None) == (plain.witness is None)
    assert graph.halted == (keyed.witness is not None)
    if keyed.witness is not None:
        assert keyed.witness.world == plain.witness.world
        assert keyed.witness.world == fed[-1]
        assert _witness_parts(keyed.witness) == _witness_parts(
            plain.witness
        )


def test_the_examples_race_and_share_predictions():
    """The differential cases above include racy and race-free runs,
    and the keyed memo and ``cur``-free skip are exercised."""
    verdicts = set()
    hits = skipped = 0
    for name in ("racy.c", "lock-counter-source"):
        semantics = PreemptiveSemantics()
        ctx = GlobalContext(_EXAMPLES[name])
        checker = _RaceChecker(ctx, False, semantics.max_atomic_steps)
        calls = []

        def observe(ks, k, live, outcomes):
            calls.append(k)
            return checker.observe(ks, k, live, outcomes)

        explore(ctx, semantics, max_states=20000, strict=True,
                observer=observe)
        verdicts.add(checker.witness is None)
        hits += checker._memo_hits
        skipped += len(calls) - checker.worlds_checked
    assert verdicts == {True, False}
    assert hits > 0 and skipped > 0


@pytest.mark.parametrize(
    "name, racy", [("lock-counter-source", False), ("racy.c", True)]
)
@pytest.mark.parametrize("reduce", [False, True], ids=["full", "por"])
def test_race_search_decodes_only_fills_and_the_witness(
    monkeypatch, name, racy, reduce
):
    monkeypatch.setattr(explore_mod, "KeySpace", _Capture)
    witness = find_race(
        GlobalContext(_EXAMPLES[name]), PreemptiveSemantics(),
        reduce=reduce, capture=False,
    )
    assert (witness is not None) == racy
    ks = _Capture.last
    assert ks.decodes == ks.fills + ks.slow + racy
