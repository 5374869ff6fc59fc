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

Both explore the SC program once, for its DRF premise and its behaviour
set together (:func:`~repro.semantics.race.race_and_behaviours`), and
build both sets without the divergence analysis ``⊑′`` discards. A set
holding ``cut`` traces makes the check inconclusive, never vacuous.
"""

from repro.lang.module import ModuleDecl, Program
from repro.langs.x86.sc import X86SC
from repro.langs.x86.tso import X86TSO
from repro.semantics.explore import program_behaviours
from repro.semantics.preemptive import PreemptiveSemantics
from repro.semantics.race import find_race, race_and_behaviours
from repro.semantics.refinement import INCONCLUSIVE_DETAIL, refines, safe
from repro.semantics.world import GlobalContext
from repro.tso.objectsim import sc_program, tso_program


class GuaranteeResult:
    """A Lem. 16 check; ``inconclusive`` as in
    :class:`~repro.framework.theorems.TheoremResult`."""

    def __init__(self, ok, detail, premises=None, inconclusive=False):
        self.ok = ok
        self.detail = detail
        self.premises = dict(premises or {})
        self.inconclusive = inconclusive

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "GuaranteeResult(ok={}, {})".format(self.ok, self.detail)


def check_strengthened_drf_guarantee(client_stages, client_genvs,
                                     impl_module, impl_ge, spec_module,
                                     spec_ge, entries,
                                     max_states=400000, max_events=10):
    """Lem. 16: premises Safe(P_sc) ∧ DRF(P_sc), conclusion
    ``P_tso ⊑′ P_sc``. Also records that the TSO program is *not* DRF
    (the benign races are really there — otherwise the theorem would
    be the plain guarantee)."""
    semantics = PreemptiveSemantics()
    prog_sc = sc_program(
        client_stages, client_genvs, spec_module, spec_ge, entries
    )
    prog_tso = tso_program(
        client_stages, client_genvs, impl_module, impl_ge, entries
    )
    witness, sc_b = race_and_behaviours(
        GlobalContext(prog_sc), semantics, max_states, max_events,
        termination_sensitive=False,
    )

    premises = {}
    premises["safe_sc"] = safe(sc_b).holds
    premises["drf_sc"] = witness is None
    premises["tso_has_races"] = (
        find_race(GlobalContext(prog_tso), semantics, max_states)
        is not None
    )
    if not (premises["safe_sc"] and premises["drf_sc"]):
        return GuaranteeResult(
            True, "premises fail; theorem vacuous", premises
        )
    tso_b = program_behaviours(
        GlobalContext(prog_tso), semantics, max_states, max_events,
        termination_sensitive=False,
    )
    return _conclude(
        refines(tso_b, sc_b, termination_sensitive=False),
        "P_tso ⊑′ P_sc", "refinement fails", premises,
    )


def check_plain_drf_guarantee(client_stages, client_genvs, entries,
                              max_states=400000, max_events=10):
    """The corollary with an empty object: DRF ⇒ TSO ≡-behaviour SC."""
    semantics = PreemptiveSemantics()
    sc_prog = Program(
        [
            ModuleDecl(X86SC, ge, st.module)
            for st, ge in zip(client_stages, client_genvs)
        ],
        entries,
    )
    tso_prog = Program(
        [
            ModuleDecl(X86TSO, ge, st.module)
            for st, ge in zip(client_stages, client_genvs)
        ],
        entries,
    )
    witness, sc_b = race_and_behaviours(
        GlobalContext(sc_prog), semantics, max_states, max_events,
        termination_sensitive=False,
    )
    if witness is not None:
        return GuaranteeResult(True, "not DRF; vacuous")
    tso_b = program_behaviours(
        GlobalContext(tso_prog), semantics, max_states, max_events,
        termination_sensitive=False,
    )
    return _conclude(
        refines(tso_b, sc_b, termination_sensitive=False),
        "TSO ⊑′ SC", "TSO exhibits non-SC behaviour",
    )


def _conclude(result, holds, fails, premises=None):
    if result.inconclusive:
        return GuaranteeResult(
            False, INCONCLUSIVE_DETAIL, premises, inconclusive=True
        )
    return GuaranteeResult(
        bool(result), holds if result else fails, premises
    )
