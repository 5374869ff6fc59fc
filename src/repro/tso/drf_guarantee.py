"""The strengthened DRF-guarantee theorem for x86-TSO (Lem. 16).

Standard DRF-guarantee: a data-race-free program has only SC behaviours
under TSO. The paper strengthens it to allow one racy-but-abstractable
module: if replacing the racy TSO object π_o by its abstraction γ_o
makes the program DRF under SC, then the all-TSO program refines
(``⊑′``) the SC program with γ_o.

:func:`check_strengthened_drf_guarantee` checks premises *and*
conclusion on a concrete program; :func:`check_plain_drf_guarantee` is
the degenerate corollary (empty object): DRF x86 clients behave the
same under TSO as under SC.

Both explore the SC program once, for its premises and its behaviour
set together (:func:`~repro.semantics.race.race_and_behaviours`), and
build both sets without the divergence analysis ``⊑′`` discards. A
failed premise makes the check vacuous before the TSO program is
explored; a bound makes it inconclusive, never vacuous.
"""

from repro.lang.module import ModuleDecl, link_program
from repro.langs.cimp.semantics import CIMP
from repro.langs.x86.sc import X86SC
from repro.langs.x86.tso import X86TSO
from repro.semantics.explore import program_behaviours
from repro.semantics.preemptive import PreemptiveSemantics
from repro.semantics.race import find_race, race_and_behaviours
from repro.semantics.refinement import (
    checker,
    conclude,
    gate,
    refines,
    safe,
)
from repro.semantics.world import GlobalContext


def _sc_search(prog_sc, semantics, max_states, max_events):
    """``(race witness or None, behaviours)`` of the SC program."""
    return race_and_behaviours(
        GlobalContext(prog_sc), semantics, max_states, max_events,
        termination_sensitive=False,
    )


def _tso_refines_sc(prog_tso, sc_b, semantics, max_states, max_events):
    tso_b = program_behaviours(
        GlobalContext(prog_tso), semantics, max_states, max_events,
        termination_sensitive=False,
    )
    return refines(tso_b, sc_b, termination_sensitive=False)


@checker("Lemma16")
def check_strengthened_drf_guarantee(client_stages, client_genvs,
                                     impl_module, impl_ge, spec_module,
                                     spec_ge, entries,
                                     max_states=400000, max_events=10):
    """Lem. 16: premises Safe(P_sc) ∧ DRF(P_sc), conclusion
    ``P_tso ⊑′ P_sc``. Also records that the TSO program is *not* DRF
    (the benign races are really there — otherwise the theorem would
    be the plain guarantee); that record gates nothing."""
    semantics = PreemptiveSemantics()
    prog_sc = link_program(
        client_stages, client_genvs, entries, X86SC,
        ModuleDecl(CIMP, spec_ge, spec_module),
    )
    witness, sc_b = _sc_search(prog_sc, semantics, max_states, max_events)
    premises = {"safe_sc": safe(sc_b).holds, "drf_sc": witness is None}
    failed = gate(premises, vacuous=True)
    if failed is not None:
        return failed
    prog_tso = link_program(
        client_stages, client_genvs, entries, X86TSO,
        ModuleDecl(X86TSO, impl_ge, impl_module),
    )
    premises["tso_has_races"] = (
        find_race(GlobalContext(prog_tso), semantics, max_states)
        is not None
    )
    result = _tso_refines_sc(
        prog_tso, sc_b, semantics, max_states, max_events
    )
    return conclude(
        "P_tso ⊑′ P_sc", (result, "refinement fails"), premises=premises
    )


@checker("PlainDRFGuarantee")
def check_plain_drf_guarantee(client_stages, client_genvs, entries,
                              max_states=400000, max_events=10):
    """The corollary with an empty object: DRF ⇒ TSO ≡-behaviour SC."""
    semantics = PreemptiveSemantics()
    witness, sc_b = _sc_search(
        link_program(client_stages, client_genvs, entries, X86SC),
        semantics, max_states, max_events,
    )
    premises = {"drf_sc": witness is None}
    failed = gate(premises, vacuous=True)
    if failed is not None:
        return failed
    result = _tso_refines_sc(
        link_program(client_stages, client_genvs, entries, X86TSO),
        sc_b, semantics, max_states, max_events,
    )
    return conclude(
        "TSO ⊑′ SC", (result, "TSO exhibits non-SC behaviour"),
        premises=premises,
    )
