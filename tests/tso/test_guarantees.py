"""Tests for the object simulation ``≼ᵒ`` and the strengthened
DRF-guarantee theorem (Lem. 16)."""

from repro.lang.module import ModuleDecl, link_program
from repro.langs.cimp import CIMP
from repro.langs.minic import compile_unit, link_units
from repro.langs.x86 import X86SC, X86TSO
from repro.compiler import compile_minic
from repro.tso import (
    DEFAULT_LOCK_ADDR,
    check_object_refinement,
    check_plain_drf_guarantee,
    check_strengthened_drf_guarantee,
    lock_impl,
    lock_spec,
)

from tests.helpers import LOCK_CLIENT, behaviours_of, done_traces

LOCK = DEFAULT_LOCK_ADDR


def build(client_src=LOCK_CLIENT, nthreads=2, entry="inc"):
    units = [compile_unit(client_src)]
    mods, genvs, _ = link_units(units, extra_symbols={"L": LOCK})
    client = mods[0].with_forbidden({LOCK})
    result = compile_minic(client)
    spec_mod, spec_ge = lock_spec()
    impl_mod, impl_ge = lock_impl()
    return {
        "stages": [result.target],
        "genvs": [genvs[0]],
        "impl": (impl_mod, impl_ge),
        "spec": (spec_mod, spec_ge),
        "entries": [entry] * nthreads,
    }


class TestObjectRefinement:
    def test_lock_counter_context(self):
        s = build()
        result = check_object_refinement(
            s["stages"], s["genvs"], *s["impl"], *s["spec"],
            s["entries"], max_states=1500000,
        )
        assert result.ok, result.detail
        # The terminating traces coincide in this context.
        impl_mod, impl_ge = s["impl"]
        spec_mod, spec_ge = s["spec"]
        done_tso, done_sc = (
            done_traces(behaviours_of(
                link_program(s["stages"], s["genvs"], s["entries"],
                             machine, obj),
                max_states=1500000,
            ))
            for machine, obj in (
                (X86TSO, ModuleDecl(X86TSO, impl_ge, impl_mod)),
                (X86SC, ModuleDecl(CIMP, spec_ge, spec_mod)),
            )
        )
        assert done_tso == done_sc == {(0, 1), (1, 0)}

    def test_single_thread_context(self):
        s = build(nthreads=1)
        result = check_object_refinement(
            s["stages"], s["genvs"], *s["impl"], *s["spec"],
            s["entries"], max_states=400000,
        )
        assert result.ok


class TestStrengthenedGuarantee:
    def test_lemma16_holds(self):
        s = build()
        result = check_strengthened_drf_guarantee(
            s["stages"], s["genvs"], *s["impl"], *s["spec"],
            s["entries"], max_states=1500000,
        )
        assert result.ok, result.detail
        assert result.premises["safe_sc"]
        assert result.premises["drf_sc"]
        # The theorem is *strengthened*: the TSO side really races.
        assert result.premises["tso_has_races"]

    def test_truncated_traces_are_inconclusive_not_vacuous(self):
        # A 'cut' SC behaviour set fails no premise, so the theorem is
        # neither vacuous nor refuted.
        s = build()
        result = check_strengthened_drf_guarantee(
            s["stages"], s["genvs"], *s["impl"], *s["spec"],
            s["entries"], max_states=1500000, max_events=1,
        )
        assert not result.ok and result.inconclusive
        assert result.detail.startswith("inconclusive: ")
        assert result.premises["safe_sc"] and result.premises["drf_sc"]

    def test_vacuous_when_sc_program_races(self):
        racy = """
        extern void lock();
        extern void unlock();
        int x = 0;
        void inc() { x ++; print(x); }
        """
        s = build(racy)
        result = check_strengthened_drf_guarantee(
            s["stages"], s["genvs"], *s["impl"], *s["spec"],
            s["entries"], max_states=800000,
        )
        assert result.ok and "vacuous" in result.detail
        assert not result.premises["drf_sc"]


class TestPlainGuarantee:
    def test_drf_clients_sc_equals_tso(self):
        src = """
        int a = 0;
        void t1() { a = 1; print(a); }
        """
        units = [compile_unit(src)]
        mods, genvs, _ = link_units(units)
        result = compile_minic(mods[0])
        verdict = check_plain_drf_guarantee(
            [result.target], [genvs[0]], ["t1"]
        )
        assert verdict.ok and not verdict.inconclusive

    def test_truncated_traces_are_inconclusive(self):
        src = """
        int a = 0;
        void t1() { a = 1; print(a); print(a); }
        """
        units = [compile_unit(src)]
        mods, genvs, _ = link_units(units)
        result = compile_minic(mods[0])
        verdict = check_plain_drf_guarantee(
            [result.target], [genvs[0]], ["t1"], max_events=1
        )
        assert not verdict.ok and verdict.inconclusive
        assert verdict.detail.startswith("inconclusive: ")

    def test_racy_clients_vacuous(self):
        # The SB litmus shape: racy, so the plain guarantee does not
        # apply (and indeed TSO shows non-SC behaviour — see
        # tests/langs/test_tso.py).
        src = """
        int a = 0;
        int b = 0;
        void t1() { a = 1; print(b); }
        void t2() { b = 1; print(a); }
        """
        units = [compile_unit(src)]
        mods, genvs, _ = link_units(units)
        result = compile_minic(mods[0])
        verdict = check_plain_drf_guarantee(
            [result.target], [genvs[0]], ["t1", "t2"],
            max_states=800000,
        )
        assert verdict.ok and "vacuous" in verdict.detail

    def test_aborting_clients_fail_safe_and_are_vacuous(self):
        # The lock client without its object: each thread aborts at
        # the unresolved lock() call, so SC and TSO both give only
        # ((), abort). The sets are equal, but Safe fails, so the
        # corollary does not apply, as in Lem. 16.
        s = build()
        verdict = check_plain_drf_guarantee(
            s["stages"], s["genvs"], s["entries"]
        )
        assert verdict.ok
        assert verdict.detail == "premise(s) failed: safe_sc; vacuous"
        assert verdict.premises == {"safe_sc": False, "drf_sc": True}
