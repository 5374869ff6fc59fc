"""Executable checks of the paper's theorems on concrete systems.

* :func:`check_correct` — ``Correct(CompCert)`` (Lem. 13 / Def. 10):
  per-pass translation validation of every client module.
* :func:`check_gcorrect` — Thm 12/14 (``GCorrect``, Def. 11): premises
  (Safe, DRF, ReachClose) plus the conclusion — the x86-SC program
  refines the Clight program.
* :func:`check_theorem15` — Thm 15: the x86-TSO program with π_o
  ``⊑′``-refines the Clight program with γ_o, under the extended
  premises (including the object simulation, checked contextually).
* :func:`framework_steps` — the eight implications of Fig. 2, each
  checked on the system.

Each program is explored once:
:func:`~repro.semantics.race.race_and_behaviours` takes the source's
DRF premise and its behaviour set from one on-the-fly race search, and
the target side is one :func:`program_behaviours` call. Under ``⊑′``
(Thm 15) both sets are built with ``termination_sensitive=False``, so
neither pays for the divergence analysis the comparison would discard.

A behaviour set holding ``cut`` traces (a bound was hit) fails no
premise: the check reports ``inconclusive`` with ``ok=False``.
"""

from repro.common.freelist import FreeList
from repro.semantics.explore import program_behaviours
from repro.semantics.preemptive import PreemptiveSemantics
# ``find_race`` stays importable from here: perfbench's ``race`` layer
# wraps ``theorems.find_race``.
from repro.semantics.race import find_race, race_and_behaviours
from repro.semantics.refinement import INCONCLUSIVE_DETAIL, refines, safe
from repro.semantics.world import GlobalContext
from repro.simulation.compose import (
    check_compositionality,
    check_drf_npdrf_equivalence,
    check_npdrf_preservation,
    check_semantics_equivalence,
)
from repro.simulation.reachclose import check_reach_close
from repro.simulation.validate import (
    resolve_args,
    sample_args,
    validate_compilation,
)
from repro.langs.minic.semantics import MINIC


class TheoremResult:
    """A theorem check: premises, conclusion, details.

    ``inconclusive``: no premise failed, but ``cut`` behaviours left the
    conclusion open; ``ok`` is then ``False``.
    """

    def __init__(self, name, ok, detail="", premises=None,
                 inconclusive=False):
        self.name = name
        self.ok = ok
        self.detail = detail
        self.premises = dict(premises or {})
        self.inconclusive = inconclusive

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "TheoremResult({}, ok={}, {})".format(
            self.name, self.ok, self.detail
        )


def check_correct(system, lockstep=False):
    """Validate every pass of every client module (Def. 10).

    Returns ``(ok, validations)`` where ``validations`` is a list of
    per-module lists of :class:`PassValidation`.
    """
    mem = system.initial_memory()
    shared = system.shared()
    all_validations = []
    ok = True
    for result in system.results:
        vals = validate_compilation(
            result, mem, shared, lockstep=lockstep
        )
        all_validations.append(vals)
        ok = ok and all(v.ok for v in vals)
    return ok, all_validations


def check_reachclose_all(system):
    """Def. 4 for every client function (premise 3 of Def. 11)."""
    mem = system.initial_memory()
    shared = system.shared()
    flist = FreeList.for_thread(0)
    reports = {}
    for result in system.results:
        module = result.source.module
        for name, func in sorted(module.functions.items()):
            args = resolve_args(sample_args(func), shared)
            if args is None:
                continue
            reports[name] = check_reach_close(
                MINIC, module, name, args, mem, shared, flist
            )
    ok = all(r.ok for r in reports.values())
    return ok, reports


def check_idtrans(system):
    """``Correct(IdTrans, CImp, CImp)``: the identity transformation of
    the object module satisfies the simulation (a premise of Thm 14 the
    paper discharges once and for all; we validate the instance)."""
    if not system.use_lock:
        return True
    from repro.langs.cimp.semantics import CIMP
    from repro.simulation.local import LocalSimulationChecker
    from repro.simulation.rg import Mu

    mem = system.initial_memory()
    checker = LocalSimulationChecker(
        CIMP,
        system.spec_module,
        CIMP,
        system.spec_module,
        Mu.identity(mem.domain()),
    )
    flist = FreeList.for_thread(0)
    ok = True
    for entry in sorted(system.spec_module.functions):
        report = checker.check_entry(
            entry, (), mem, mem, flist, flist
        )
        ok = ok and report.ok
    return ok


def _source_premises(system, semantics, max_states, max_events,
                     termination_sensitive):
    """Safe and DRF of the source program from one exploration:
    ``(premises, source behaviours)``. ``cut`` behaviours do not fail
    ``safe``; they make the conclusion inconclusive."""
    src_ctx = GlobalContext(system.source_program())
    witness, src_b = race_and_behaviours(
        src_ctx, semantics, max_states, max_events,
        termination_sensitive=termination_sensitive,
    )
    premises = {"safe": safe(src_b).holds, "drf": witness is None}
    return premises, src_b


def _conclude(name, result, holds, premises):
    """The verdict of a check whose conclusion is the refinement
    ``result``, under ``premises``."""
    premised = all(premises.values())
    inconclusive = premised and result.inconclusive
    if inconclusive:
        detail = INCONCLUSIVE_DETAIL
    elif result:
        detail = holds
    else:
        detail = "refinement fails ({} cex)".format(
            len(result.counterexamples)
        )
    return TheoremResult(
        name, bool(result) and premised, detail, premises, inconclusive
    )


def check_gcorrect(system, max_states=400000, max_events=10):
    """Thm 14: source premises + whole-program refinement to x86-SC."""
    semantics = PreemptiveSemantics()
    premises, src_b = _source_premises(
        system, semantics, max_states, max_events, True
    )
    correct_ok, _ = check_correct(system)
    premises["correct_seqcomp"] = correct_ok
    premises["correct_idtrans"] = check_idtrans(system)
    rc_ok, _ = check_reachclose_all(system)
    premises["reach_close"] = rc_ok

    if not all(premises.values()):
        failed = [k for k, v in premises.items() if not v]
        return TheoremResult(
            "GCorrect",
            False,
            "premise(s) failed: {}".format(", ".join(failed)),
            premises,
        )

    tgt_prog = system.sc_program()
    tgt_b = program_behaviours(
        GlobalContext(tgt_prog), semantics, max_states, max_events
    )
    return _conclude(
        "GCorrect", refines(tgt_b, src_b), "target ⊑ source", premises
    )


def check_theorem15(system, max_states=400000, max_events=10):
    """Thm 15: ``P_rmm ⊑′ P`` with the TSO object implementation."""
    semantics = PreemptiveSemantics()
    premises, src_b = _source_premises(
        system, semantics, max_states, max_events, False
    )
    correct_ok, _ = check_correct(system)
    premises["correct_seqcomp"] = correct_ok

    tso_prog = system.tso_program()
    tso_b = program_behaviours(
        GlobalContext(tso_prog), semantics, max_states, max_events,
        termination_sensitive=False,
    )
    # Premise 4 (object simulation) is itself checked contextually: the
    # refinement below *is* its observable content for this context.
    result = refines(tso_b, src_b, termination_sensitive=False)
    return _conclude("Theorem15", result, "P_rmm ⊑′ P", premises)


def framework_steps(system, max_states=400000, max_events=10):
    """The Fig. 2 implications, checked on this system.

    Returns an ordered dict-like list of (step, ComposeResult).
    """
    src = system.source_program()
    tgt = system.sc_program()
    steps = []
    steps.append(
        ("①② source equivalence (Lem. 9)",
         check_semantics_equivalence(src, max_states, max_events))
    )
    steps.append(
        ("①② target equivalence (Lem. 9)",
         check_semantics_equivalence(tgt, max_states, max_events))
    )
    steps.append(
        ("⑥⑧ DRF⇔NPDRF source",
         check_drf_npdrf_equivalence(src, max_states))
    )
    steps.append(
        ("⑥⑧ DRF⇔NPDRF target",
         check_drf_npdrf_equivalence(tgt, max_states))
    )
    steps.append(
        ("⑦ NPDRF preservation (Lem. 8)",
         check_npdrf_preservation(src, tgt, max_states))
    )
    steps.append(
        ("⑤④③ compositionality + flip + soundness",
         check_compositionality(src, tgt, max_states, max_events))
    )
    return steps
