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

Each checker's body reads its race verdicts and behaviour sets from an
:class:`~repro.semantics.race.Explorations` memo: a caller that asks
several (``framework_steps``, a fuzz input) hands them all one memo,
and each public ``check_*`` builds its own.

Each reports a :class:`~repro.semantics.refinement.Verdict`: the
premise DRF (Lem. 9) or NPDRF(source) (Lem. 8) gates the check, which
passes vacuously when it fails; a bound makes a check inconclusive.
"""

from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.preemptive import PreemptiveSemantics
from repro.semantics.race import Explorations
from repro.semantics.refinement import (
    RefinementResult,
    checker,
    conclude,
    equivalent,
    gate,
    refines,
)


def _no_race(witness):
    """A race search as a comparison: it holds when ``witness`` is
    ``None``, else the witness is its counterexample."""
    return RefinementResult(witness is None, () if witness is None
                            else (witness,))


@checker("Compositionality")
def _compositionality(src_program, tgt_program, runs):
    checks = []
    for semantics in (PreemptiveSemantics(), NonPreemptiveSemantics()):
        src_b = runs.behaviours(src_program, semantics)
        tgt_b = runs.behaviours(tgt_program, semantics)
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
def _npdrf_preservation(src_program, tgt_program, runs):
    semantics = NonPreemptiveSemantics()
    premises = {"npdrf_source": runs.race(src_program, semantics) is None}
    failed = gate(premises, vacuous=True)
    if failed is not None:
        return failed
    return conclude(
        "NPDRF preserved",
        (_no_race(runs.race(tgt_program, semantics)), "target races"),
        premises=premises,
    )


@checker("SemanticsEquivalence")
def _semantics_equivalence(program, runs):
    semantics = PreemptiveSemantics()
    premises = {"drf": runs.race(program, semantics) is None}
    failed = gate(premises, vacuous=True)
    if failed is not None:
        return failed
    pre = runs.behaviours(program, semantics)
    non = runs.behaviours(program, NonPreemptiveSemantics())
    return conclude(
        "preemptive ≈ non-preemptive",
        (equivalent(pre, non), "behaviour sets differ"),
        premises=premises,
    )


@checker("DRFNPDRFEquivalence")
def _drf_npdrf_equivalence(program, runs):
    drf_race = runs.race(program, PreemptiveSemantics())
    npdrf_race = runs.race(program, NonPreemptiveSemantics())
    detail = "DRF={} NPDRF={}".format(drf_race is None, npdrf_race is None)
    agree = (drf_race is None) == (npdrf_race is None)
    witness = None if agree else drf_race or npdrf_race
    return conclude(detail, (_no_race(witness), detail))


def check_compositionality(src_program, tgt_program, max_states=200000,
                           max_events=10):
    """Lems. 6+7 and the flip: target ≈ source, both semantics."""
    runs = Explorations(max_states, max_events)
    return _compositionality(src_program, tgt_program, runs)


def check_npdrf_preservation(src_program, tgt_program, max_states=200000):
    """Lem. 8: NPDRF(source) ⇒ NPDRF(target)."""
    runs = Explorations(max_states)
    return _npdrf_preservation(src_program, tgt_program, runs)


def check_semantics_equivalence(program, max_states=200000,
                                max_events=10):
    """Lem. 9: DRF ⇒ preemptive ≈ non-preemptive behaviours; a racy
    program is gated before any behaviour set is built."""
    runs = Explorations(max_states, max_events)
    return _semantics_equivalence(program, runs)


def check_drf_npdrf_equivalence(program, max_states=200000):
    """Steps ⑥⑧: DRF(P) ⇔ NPDRF(P). A disagreement's counterexample is
    the race witness of the side that races."""
    return _drf_npdrf_equivalence(program, Explorations(max_states))
