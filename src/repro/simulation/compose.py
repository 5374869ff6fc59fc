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

Each reports a :class:`~repro.semantics.refinement.Verdict`: the
premise DRF (Lem. 9) or NPDRF(source) (Lem. 8) gates the check, which
passes vacuously when it fails; a bound makes a check inconclusive.
"""

from repro.semantics.explore import program_behaviours
from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.preemptive import PreemptiveSemantics
from repro.semantics.race import find_race
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


@checker("SemanticsEquivalence")
def check_semantics_equivalence(program, max_states=200000,
                                max_events=10):
    """Lem. 9: DRF ⇒ preemptive ≈ non-preemptive behaviours."""
    premises = {
        "drf": _race(program, PreemptiveSemantics(), max_states) is None
    }
    failed = gate(premises, vacuous=True)
    if failed is not None:
        return failed
    pre = _behaviours(
        program, PreemptiveSemantics(), max_states, max_events
    )
    non = _behaviours(
        program, NonPreemptiveSemantics(), max_states, max_events
    )
    return conclude(
        "preemptive ≈ non-preemptive",
        (equivalent(pre, non), "behaviour sets differ"),
        premises=premises,
    )


@checker("DRFNPDRFEquivalence")
def check_drf_npdrf_equivalence(program, max_states=200000):
    """Steps ⑥⑧: DRF(P) ⇔ NPDRF(P). A disagreement's counterexample is
    the race witness of the side that races."""
    drf_race = _race(program, PreemptiveSemantics(), max_states)
    npdrf_race = _race(program, NonPreemptiveSemantics(), max_states)
    detail = "DRF={} NPDRF={}".format(drf_race is None, npdrf_race is None)
    agree = (drf_race is None) == (npdrf_race is None)
    witness = None if agree else drf_race or npdrf_race
    return conclude(detail, (_no_race(witness), detail))
