"""Whole-program consequences of the local simulation (Lems. 6–9).

The Coq development *derives* these; the executable analogue checks
them on concrete programs by comparing enumerated behaviour sets:

* :func:`check_compositionality` (Lem. 6 + 7, steps ⑤④③ of Fig. 2):
  per-module local simulations compose into whole-program refinement —
  the target program's behaviours (preemptive and non-preemptive) are
  included in the source's, and under determinism the sets coincide.
* :func:`check_npdrf_preservation` (Lem. 8, step ⑦): if the source is
  NPDRF, so is the target.
* :func:`check_semantics_equivalence` (Lem. 9, steps ①②): a DRF
  program has the same behaviours preemptively and non-preemptively.
* :func:`check_drf_npdrf_equivalence` (steps ⑥⑧): DRF ⇔ NPDRF.

:func:`drf_steps` gives ⑥⑧ and Lem. 9 from one preemptive race search.

Each reports a :class:`~repro.semantics.refinement.Verdict`: the
premise DRF (Lem. 9) or NPDRF(source) (Lem. 8) gates the check, which
passes vacuously when it fails; a bound makes a check inconclusive.
"""

import functools

from repro.semantics.explore import behaviours, program_behaviours
from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.preemptive import PreemptiveSemantics
from repro.semantics.race import find_race, race_search
from repro.semantics.refinement import (
    RefinementResult,
    checker,
    conclude,
    equivalent,
    gate,
    refines,
)
from repro.semantics.world import GlobalContext


def _behaviours(program, semantics, max_states, max_events):
    ctx = GlobalContext(program)
    return program_behaviours(ctx, semantics, max_states, max_events)


def _race(program, semantics, max_states):
    return find_race(GlobalContext(program), semantics, max_states)


def _no_race(witness):
    """A race search as a comparison: it holds when ``witness`` is
    ``None``, else the witness is its counterexample."""
    return RefinementResult(witness is None, () if witness is None
                            else (witness,))


@checker("Compositionality")
def check_compositionality(src_program, tgt_program, max_states=200000,
                           max_events=10):
    """Lems. 6+7 and the flip: target ≈ source, both semantics."""
    checks = []
    for semantics in (PreemptiveSemantics(), NonPreemptiveSemantics()):
        src_b = _behaviours(
            src_program, semantics, max_states, max_events
        )
        tgt_b = _behaviours(
            tgt_program, semantics, max_states, max_events
        )
        checks.append(
            (refines(tgt_b, src_b), semantics.name + ": target ⋢ source")
        )
        checks.append(
            (equivalent(src_b, tgt_b),
             semantics.name + ": flip failed (source has behaviours "
             "the deterministic target lacks)")
        )
    return conclude("target ≈ source in both semantics", *checks)


@checker("NPDRFPreservation")
def check_npdrf_preservation(src_program, tgt_program,
                             max_states=200000):
    """Lem. 8: NPDRF(source) ⇒ NPDRF(target)."""
    semantics = NonPreemptiveSemantics()
    premises = {
        "npdrf_source": _race(src_program, semantics, max_states) is None
    }
    failed = gate(premises, vacuous=True)
    if failed is not None:
        return failed
    return conclude(
        "NPDRF preserved",
        (_no_race(_race(tgt_program, semantics, max_states)),
         "target races"),
        premises=premises,
    )


def _preemptive_search(program, max_states):
    """A thunk that runs the strict preemptive race search of
    ``program`` once, for ⑥⑧ and Lem. 9 to share."""
    return functools.cache(lambda: race_search(
        GlobalContext(program), PreemptiveSemantics(), max_states
    ))


@checker("SemanticsEquivalence")
def _semantics_equivalence(program, search, max_states, max_events):
    witness, graph = search()
    premises = {"drf": witness is None}
    failed = gate(premises, vacuous=True)
    if failed is not None:
        return failed
    pre = behaviours(graph, max_events)
    non = _behaviours(
        program, NonPreemptiveSemantics(), max_states, max_events
    )
    return conclude(
        "preemptive ≈ non-preemptive",
        (equivalent(pre, non), "behaviour sets differ"),
        premises=premises,
    )


@checker("DRFNPDRFEquivalence")
def _drf_npdrf_equivalence(program, search, max_states):
    drf_race = search()[0]
    npdrf_race = _race(program, NonPreemptiveSemantics(), max_states)
    detail = "DRF={} NPDRF={}".format(drf_race is None, npdrf_race is None)
    agree = (drf_race is None) == (npdrf_race is None)
    witness = None if agree else drf_race or npdrf_race
    return conclude(detail, (_no_race(witness), detail))


def check_semantics_equivalence(program, max_states=200000,
                                max_events=10):
    """Lem. 9: DRF ⇒ preemptive ≈ non-preemptive behaviours. A race
    search that finds no race has explored the whole preemptive
    program, so the preemptive set is read off its graph; a racy
    program is gated before any behaviour set is built."""
    return _semantics_equivalence(
        program, _preemptive_search(program, max_states), max_states,
        max_events,
    )


def check_drf_npdrf_equivalence(program, max_states=200000):
    """Steps ⑥⑧: DRF(P) ⇔ NPDRF(P). A disagreement's counterexample is
    the race witness of the side that races."""
    return _drf_npdrf_equivalence(
        program, _preemptive_search(program, max_states), max_states
    )


def drf_steps(program, max_states=200000, max_events=10):
    """Yield the verdicts of steps ⑥⑧, then Lem. 9, from one preemptive
    race search; Lem. 9 runs only when asked for."""
    search = _preemptive_search(program, max_states)
    yield _drf_npdrf_equivalence(program, search, max_states)
    yield _semantics_equivalence(program, search, max_states, max_events)
