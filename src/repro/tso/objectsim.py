"""The object simulation ``π_o ≼ᵒ γ_o`` (Sec. 7.3), checked contextually.

The paper's ``≼ᵒ`` (an extension of Liang-Feng simulation to TSO) gives
a contextual-refinement guarantee: any client using ``π_o`` under
relaxed semantics produces no more observable behaviours than using
``γ_o`` under SC, as long as the γ_o-program is DRF. We check exactly
that consequence over client contexts: behaviour inclusion of the
π_o-linked TSO program in the γ_o-linked SC program, termination-
insensitively (the paper's ``⊑′``). The check reads no premise; a
bound makes it inconclusive.
"""

from repro.lang.module import ModuleDecl, link_program
from repro.langs.cimp.semantics import CIMP
from repro.langs.x86.sc import X86SC
from repro.langs.x86.tso import X86TSO
from repro.semantics.explore import program_behaviours
from repro.semantics.preemptive import PreemptiveSemantics
from repro.semantics.refinement import checker, conclude, refines
from repro.semantics.world import GlobalContext


@checker("ObjectRefinement")
def check_object_refinement(client_stages, client_genvs, impl_module,
                            impl_ge, spec_module, spec_ge, entries,
                            max_states=400000, max_events=10):
    """``P_rmm ⊑′ P_sc`` for one client context.

    ``client_stages`` are the x86 stages of already-compiled client
    modules (syntactically identical under SC and TSO — the paper's
    identity transformation with a semantics change).
    """
    prog_tso = link_program(
        client_stages, client_genvs, entries, X86TSO,
        ModuleDecl(X86TSO, impl_ge, impl_module),
    )
    prog_sc = link_program(
        client_stages, client_genvs, entries, X86SC,
        ModuleDecl(CIMP, spec_ge, spec_module),
    )
    semantics = PreemptiveSemantics()
    # ``⊑′`` reads no ``silent_div`` end: skip the divergence analysis.
    tso_b = program_behaviours(
        GlobalContext(prog_tso), semantics, max_states, max_events,
        termination_sensitive=False,
    )
    sc_b = program_behaviours(
        GlobalContext(prog_sc), semantics, max_states, max_events,
        termination_sensitive=False,
    )
    return conclude(
        "⊑′ holds",
        (refines(tso_b, sc_b, termination_sensitive=False), "⊑′ fails"),
    )
