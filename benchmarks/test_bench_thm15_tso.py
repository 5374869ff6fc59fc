"""THM15 and FIG10 — the extended framework: x86-TSO backend with the
racy TTAS lock (Fig. 10b) against the abstract lock (Fig. 10a).

Shape claims (who wins / where the crossover falls):

* the TSO program with π_lock has real data races (``tso_has_races``);
* yet it ⊑′-refines the SC program with γ_lock (Lem. 16 / Thm 15);
* mutual exclusion survives at every level (no lost updates);
* the TSO machine itself genuinely relaxes SC: the SB litmus exhibits
  (0,0) only under TSO — so the refinement is not vacuous.
"""

import pytest

from repro.framework import check_theorem15, lock_counter_system
from repro.langs.ir.base import IRModule
from repro.langs.x86 import X86SC, X86TSO, X86Function
from repro.langs.x86 import ast as x
from repro.lang.module import GlobalEnv, ModuleDecl, Program, link_program
from repro.langs.cimp import CIMP
from repro.common.values import VInt
from repro.langs.minic import compile_unit, link_units
from repro.compiler import compile_minic
from repro.tso import (
    DEFAULT_LOCK_ADDR,
    check_object_refinement,
    check_strengthened_drf_guarantee,
    lock_impl,
    lock_spec,
)

from tests.helpers import LOCK_CLIENT, behaviours_of, done_traces


def _built():
    units = [compile_unit(LOCK_CLIENT)]
    mods, genvs, _ = link_units(
        units, extra_symbols={"L": DEFAULT_LOCK_ADDR}
    )
    client = mods[0].with_forbidden({DEFAULT_LOCK_ADDR})
    return compile_minic(client), genvs[0]


def test_thm15_end_to_end(benchmark):
    system = lock_counter_system(2)
    result = benchmark.pedantic(
        check_theorem15, args=(system,),
        kwargs={"max_states": 2000000}, rounds=1, iterations=1,
    )
    assert result.ok, result.detail


def test_fig10_object_refinement(benchmark):
    result_c, genv = _built()
    spec_mod, spec_ge = lock_spec()
    impl_mod, impl_ge = lock_impl()
    verdict = benchmark.pedantic(
        check_object_refinement,
        args=([result_c.target], [genv], impl_mod, impl_ge,
              spec_mod, spec_ge, ["inc", "inc"]),
        kwargs={"max_states": 2000000}, rounds=1, iterations=1,
    )
    assert verdict.ok, verdict.detail
    tso_done, sc_done = (
        done_traces(behaviours_of(
            link_program([result_c.target], [genv], ["inc", "inc"],
                         machine, obj),
            max_states=2000000,
        ))
        for machine, obj in (
            (X86TSO, ModuleDecl(X86TSO, impl_ge, impl_mod)),
            (X86SC, ModuleDecl(CIMP, spec_ge, spec_mod)),
        )
    )
    assert tso_done == sc_done == {(0, 1), (1, 0)}, (
        "mutual exclusion: both increments observed, no lost update"
    )


def test_fig10_strengthened_guarantee(benchmark):
    result_c, genv = _built()
    spec_mod, spec_ge = lock_spec()
    impl_mod, impl_ge = lock_impl()
    verdict = benchmark.pedantic(
        check_strengthened_drf_guarantee,
        args=([result_c.target], [genv], impl_mod, impl_ge,
              spec_mod, spec_ge, ["inc", "inc"]),
        kwargs={"max_states": 2000000}, rounds=1, iterations=1,
    )
    assert verdict.ok, verdict.detail
    assert verdict.premises["tso_has_races"], (
        "the benign races must really be present — otherwise this is "
        "just the plain DRF guarantee"
    )


A, B = 30, 31


def _sb_program(lang):
    def thread(name, mine, other):
        return X86Function(name, 0, [
            x.Pmov_ri("ebx", 1),
            x.Pmov_mr(("global", mine), "ebx"),
            x.Pmov_rm("ecx", ("global", other)),
            x.Pprint("ecx"),
            x.Pmov_ri("eax", 0),
            x.Pret(),
        ])

    module = IRModule(
        {"t1": thread("t1", "a", "b"), "t2": thread("t2", "b", "a")},
        {"a": A, "b": B},
    )
    ge = GlobalEnv({"a": A, "b": B}, {A: VInt(0), B: VInt(0)})
    return Program([ModuleDecl(lang, ge, module)], ["t1", "t2"])


def test_sb_litmus_crossover(benchmark):
    """The SC/TSO crossover: (0,0) appears exactly when buffering is
    enabled — the machine-model axis of the paper's Fig. 3."""

    def measure():
        sc = done_traces(behaviours_of(_sb_program(X86SC)))
        tso = done_traces(
            behaviours_of(_sb_program(X86TSO), max_states=400000)
        )
        return sc, tso

    sc, tso = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert (0, 0) not in sc
    assert (0, 0) in tso
    assert sc <= tso
    print("\n[THM15] SB litmus: SC traces={} TSO traces={}".format(
        sorted(sc), sorted(tso)))
