"""Tests for the whole-program lemma checkers (Lems. 6–9) and the
source-side obligations (ReachClose, determinism)."""

from repro.common.freelist import FreeList
from repro.common.values import VInt
from repro.langs.cimp import CIMP, parse_module as parse_cimp
from repro.langs.minic import MINIC, compile_unit, link_units
from repro.lang.module import GlobalEnv, ModuleDecl, Program
from repro.simulation.compose import (
    check_compositionality,
    check_drf_npdrf_equivalence,
    check_npdrf_preservation,
    check_semantics_equivalence,
)
from repro.simulation.determinism import check_determinism
from repro.simulation.reachclose import check_reach_close
from repro.simulation.rg import RELY_BUDGET

from tests.helpers import cimp_program

FLIST = FreeList.for_thread(0)


class TestSemanticsEquivalence:
    def test_drf_program_holds(self):
        prog = cimp_program(
            "t1(){ <x := [C]; [C] := x + 1;> print(1); }"
            "t2(){ <x := [C]; [C] := x + 1;> print(2); }",
            ["t1", "t2"],
        )
        assert bool(check_semantics_equivalence(prog))

    def test_racy_program_vacuous(self):
        prog = cimp_program(
            "t1(){ [C] := 1; } t2(){ [C] := 2; }", ["t1", "t2"]
        )
        result = check_semantics_equivalence(prog)
        assert result.ok and "vacuous" in result.detail

    def test_racy_counterexample_without_premise(self):
        # Demonstrate the premise is necessary: for this racy program
        # the two semantics genuinely differ.
        from repro.semantics.refinement import equivalent
        from tests.helpers import behaviours_of, np_behaviours_of

        prog = cimp_program(
            "t1(){ [C] := 1; [C] := 2; }"
            "t2(){ x := [C]; print(x); }",
            ["t1", "t2"],
        )
        assert not bool(
            equivalent(behaviours_of(prog), np_behaviours_of(prog))
        )


class TestDrfNpdrfAgreement:
    def test_agreement_on_drf(self):
        prog = cimp_program(
            "t1(){ <[C] := 1;> } t2(){ <[C] := 2;> }", ["t1", "t2"]
        )
        assert bool(check_drf_npdrf_equivalence(prog))

    def test_agreement_on_racy(self):
        prog = cimp_program(
            "t1(){ [C] := 1; } t2(){ [C] := 2; }", ["t1", "t2"]
        )
        result = check_drf_npdrf_equivalence(prog)
        assert result.ok
        assert "DRF=False NPDRF=False" in result.detail


class TestNpdrfPreservation:
    def _programs(self, tgt_src):
        src = cimp_program(
            "t1(){ <[C] := 1;> } t2(){ <[C] := 2;> }", ["t1", "t2"]
        )
        tgt = cimp_program(tgt_src, ["t1", "t2"])
        return src, tgt

    def test_preserving_compilation(self):
        src, tgt = self._programs(
            "t1(){ <[C] := 1;> } t2(){ <[C] := 2;> }"
        )
        assert bool(check_npdrf_preservation(src, tgt))

    def test_race_introducing_compilation_caught(self):
        src, tgt = self._programs(
            "t1(){ [C] := 1; } t2(){ [C] := 2; }"
        )
        assert not bool(check_npdrf_preservation(src, tgt))

    def test_vacuous_when_source_racy(self):
        src = cimp_program(
            "t1(){ [C] := 1; } t2(){ [C] := 2; }", ["t1", "t2"]
        )
        result = check_npdrf_preservation(src, src)
        assert result.ok and "vacuous" in result.detail


class TestCompositionality:
    def test_identical_programs(self):
        prog = cimp_program(
            "t1(){ print(1); } t2(){ print(2); }", ["t1", "t2"]
        )
        assert bool(check_compositionality(prog, prog))

    def test_detects_new_behaviour(self):
        src = cimp_program("t1(){ print(1); }", ["t1"])
        tgt = cimp_program("t1(){ print(2); }", ["t1"])
        assert not bool(check_compositionality(src, tgt))

    def test_state_bound_is_inconclusive(self):
        # Like the other three checkers: the strict race search raises
        # at the bound, so no set is cut.
        from repro.framework import lock_counter_system

        system = lock_counter_system(2)
        result = check_compositionality(
            system.source_program(), system.sc_program(), max_states=50
        )
        assert result.inconclusive
        assert result.detail == "inconclusive: state bound 50 exceeded"


class TestReachClose:
    def _minic(self, src):
        mods, genvs, _ = link_units([compile_unit(src)])
        return mods[0], genvs[0].memory()

    def test_well_behaved_module(self):
        module, mem = self._minic(
            "int g = 0; void main() { g = g + 1; print(g); }"
        )
        report = check_reach_close(
            MINIC, module, "main", (), mem, mem.domain(), FLIST
        )
        assert report.ok
        assert report.steps_checked > 0
        # Nothing after print touches a shared cell: no move to make.
        assert report.rely_moves == 0

    def test_rely_move_where_continuation_reads(self):
        module, mem = self._minic(
            "int g = 0; void main() { print(1); g = g + 1; print(g); }"
        )
        report = check_reach_close(
            MINIC, module, "main", (), mem, mem.domain(), FLIST
        )
        assert report.ok
        # One move: g at the first print, read and written after it.
        assert report.rely_moves == 1
        assert report.rely_budget_exhausted == 0

    def test_budget_exhaustion_counted(self):
        # As in the local simulation's test: 69 prints, 68 of them
        # followed by a read of G, want 68 moves on the identity path
        # alone.
        text = "f(){ " + "x := [G]; print(x); " * (RELY_BUDGET + 5) + "}"
        module = parse_cimp(text, symbols={"G": 10})
        mem = GlobalEnv({"G": 10}, {10: VInt(0)}).memory()
        report = check_reach_close(
            CIMP, module, "f", (), mem, mem.domain(), FLIST
        )
        assert report.ok
        assert report.rely_moves == RELY_BUDGET
        assert report.rely_budget_exhausted == 2276

    def test_scope_violation_past_an_abort_caught(self):
        # The assertion reads G and aborts at G == 0, so only a move of
        # G after print(0) reaches the out-of-scope read of H.
        module = parse_cimp(
            "f(){ print(0); assert([G] != 0); x := [H]; }",
            symbols={"G": 10, "H": 99},
        )
        from repro.common.memory import Memory

        mem = Memory({10: VInt(0), 99: VInt(1)})
        report = check_reach_close(
            CIMP, module, "f", (), mem, {10}, FLIST
        )
        assert not report.ok
        assert report.rely_moves == 1

    def test_cimp_module(self):
        module = parse_cimp(
            "f(){ x := [G]; [G] := x + 1; print(x); }",
            symbols={"G": 10},
        )
        mem = GlobalEnv({"G": 10}, {10: VInt(0)}).memory()
        report = check_reach_close(
            CIMP, module, "f", (), mem, mem.domain(), FLIST
        )
        assert report.ok

    def test_out_of_scope_access_caught(self):
        # A module peeking at an address that is neither shared nor in
        # its freelist violates HG.
        module = parse_cimp(
            "f(){ x := [H]; }", symbols={"G": 10, "H": 99}
        )
        from repro.common.memory import Memory

        mem = Memory({10: VInt(0), 99: VInt(1)})
        report = check_reach_close(
            CIMP, module, "f", (), mem, {10}, FLIST
        )
        assert not report.ok


class TestDeterminism:
    def test_deterministic_languages(self):
        module = parse_cimp(
            "f(){ i := 0; while (i < 3) { i := i + 1; } print(i); }"
        )
        from repro.common.memory import Memory

        report = check_determinism(
            CIMP, module, "f", (), Memory(), FLIST
        )
        assert report.ok
        assert report.states_checked > 3

    def test_tso_is_not_deterministic(self):
        from repro.langs.ir.base import IRModule
        from repro.langs.x86 import X86TSO, X86Function
        from repro.langs.x86 import ast as x
        from repro.common.memory import Memory

        f = X86Function("f", 0, [
            x.Pmov_ri("ebx", 1),
            x.Pmov_mr(("global", "a"), "ebx"),
            x.Pmov_ri("ecx", 2),
            x.Pmov_ri("eax", 0),
            x.Pret(),
        ])
        module = IRModule({"f": f}, {"a": 30})
        report = check_determinism(
            X86TSO, module, "f", (), Memory({30: VInt(0)}), FLIST
        )
        assert not report.ok, "buffer flushes are nondeterministic"
