"""Executable checks of the paper's theorems on concrete systems.

* :func:`check_correct` — ``Correct(CompCert)`` (Lem. 13 / Def. 10):
  per-pass translation validation of every client module.
* :func:`check_gcorrect` — Thm 12/14 (``GCorrect``, Def. 11): premises
  (Safe, DRF, ReachClose) plus the conclusion — the x86-SC program
  refines the Clight program.
* :func:`check_theorem15` — Thm 15: the x86-TSO program with π_o
  ``⊑′``-refines the Clight program with γ_o, under the extended
  premises (including the object simulation, checked contextually).
* :func:`framework_steps` — the steps ①–⑧ of Fig. 2 as six verdicts,
  each checked on the system.

Each program is explored once per semantics: one
:class:`~repro.semantics.race.Explorations` memo serves every step of
:func:`framework_steps`, and a theorem's source memo (its DRF premise
and behaviours from one race search) is gone before the target, one
:func:`program_behaviours` call, is explored. Under ``⊑′`` (Thm 15)
both sets skip the divergence analysis the comparison would discard.

Both checks report a :class:`~repro.semantics.refinement.Verdict`: a
failed premise fails the theorem before the target is explored, and a
bound (``cut`` traces, or a source over ``max_states``) fails no
premise: the check reports ``inconclusive`` with ``ok=False``.
"""

from repro import obs
from repro.common.freelist import FreeList
from repro.semantics.explore import program_behaviours
from repro.semantics.preemptive import PreemptiveSemantics
# ``find_race`` stays importable from here: perfbench's ``race`` layer
# wraps ``theorems.find_race``.
from repro.semantics.race import Explorations, find_race
from repro.semantics.refinement import (
    checker,
    conclude,
    gate,
    refines,
    safe,
)
from repro.semantics.world import GlobalContext
from repro.simulation.compose import (
    _compositionality,
    _drf_npdrf_equivalence,
    _npdrf_preservation,
    _semantics_equivalence,
)
from repro.simulation.reachclose import check_reach_close
from repro.simulation.validate import (
    resolve_args,
    sample_args,
    validate_compilation,
)
from repro.langs.minic.semantics import MINIC


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
    """Def. 4 for every client function (premise 3 of Def. 11).

    A function whose pointer parameter finds no shared global to point
    at is not run: it has no report, and the metric
    ``reachclose.entries_skipped`` counts it.
    """
    mem = system.initial_memory()
    shared = system.shared()
    flist = FreeList.for_thread(0)
    reports = {}
    for module in system.client_modules:
        for name, func in sorted(module.functions.items()):
            args = resolve_args(sample_args(func), shared)
            if args is None:
                obs.inc("reachclose.entries_skipped")
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
    spec = system.spec.code
    sim = LocalSimulationChecker(
        CIMP, spec, CIMP, spec, Mu.identity(mem.domain())
    )
    flist = FreeList.for_thread(0)
    ok = True
    for entry in sorted(spec.functions):
        report = sim.check_entry(
            entry, (), mem, mem, flist, flist
        )
        ok = ok and report.ok
    return ok


def _source_premises(system, semantics, max_states, max_events,
                     termination_sensitive):
    """Safe and DRF of the source program from one exploration:
    ``(premises, source behaviours)``. ``cut`` behaviours do not fail
    ``safe``; they make the conclusion inconclusive."""
    src = system.source_program()
    runs = Explorations(max_states, max_events)
    src_b = runs.behaviours(src, semantics, termination_sensitive)
    drf = runs.race(src, semantics) is None
    return {"safe": safe(src_b).holds, "drf": drf}, src_b


@checker("GCorrect")
def check_gcorrect(system, max_states=400000, max_events=10):
    """Thm 14: source premises + whole-program refinement to x86-SC."""
    semantics = PreemptiveSemantics()
    premises, src_b = _source_premises(
        system, semantics, max_states, max_events, True
    )
    premises["correct_seqcomp"] = check_correct(system)[0]
    premises["correct_idtrans"] = check_idtrans(system)
    premises["reach_close"] = check_reachclose_all(system)[0]
    failed = gate(premises)
    if failed is not None:
        return failed
    tgt_b = program_behaviours(
        GlobalContext(system.sc_program()), semantics, max_states,
        max_events,
    )
    return conclude(
        "target ⊑ source", (refines(tgt_b, src_b), "refinement fails"),
        premises=premises,
    )


@checker("Theorem15")
def check_theorem15(system, max_states=400000, max_events=10):
    """Thm 15: ``P_rmm ⊑′ P`` with the TSO object implementation."""
    semantics = PreemptiveSemantics()
    premises, src_b = _source_premises(
        system, semantics, max_states, max_events, False
    )
    premises["correct_seqcomp"] = check_correct(system)[0]
    failed = gate(premises)
    if failed is not None:
        return failed
    tso_b = program_behaviours(
        GlobalContext(system.tso_program()), semantics, max_states,
        max_events, termination_sensitive=False,
    )
    # Premise 4 (object simulation) is itself checked contextually: the
    # refinement below *is* its observable content for this context.
    result = refines(tso_b, src_b, termination_sensitive=False)
    return conclude(
        "P_rmm ⊑′ P", (result, "refinement fails"), premises=premises
    )


def framework_steps(system, max_states=400000, max_events=10):
    """The Fig. 2 implications, checked on this system.

    Returns an ordered list of ``(step, Verdict)``. Every step reads
    one :class:`~repro.semantics.race.Explorations` memo, so each of
    the two programs is explored once per semantics.
    """
    src = system.source_program()
    tgt = system.sc_program()
    runs = Explorations(max_states, max_events)
    return [
        ("①② source equivalence (Lem. 9)",
         _semantics_equivalence(src, runs)),
        ("①② target equivalence (Lem. 9)",
         _semantics_equivalence(tgt, runs)),
        ("⑥⑧ DRF⇔NPDRF source", _drf_npdrf_equivalence(src, runs)),
        ("⑥⑧ DRF⇔NPDRF target", _drf_npdrf_equivalence(tgt, runs)),
        ("⑦ NPDRF preservation (Lem. 8)",
         _npdrf_preservation(src, tgt, runs)),
        ("⑤④③ compositionality + flip + soundness",
         _compositionality(src, tgt, runs)),
    ]
