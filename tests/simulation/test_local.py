"""Tests for the footprint-preserving simulation checker (Defs. 2, 3):
it must accept correct compilations — including legal reorderings — and
reject broken ones."""

import pytest

from repro.common.freelist import FreeList
from repro.common.values import VInt
from repro.langs.cimp import CIMP, parse_module as parse_cimp
from repro.langs.minic import MINIC, compile_unit, link_units
from repro.lang.module import GlobalEnv
from repro.compiler import compile_minic
from repro.simulation.local import LocalSimulationChecker
from repro.simulation.rg import RELY_BUDGET, Mu
from repro.simulation.validate import validate_compilation

FLIST = FreeList.for_thread(0)


def compiled(src):
    mods, genvs, _ = link_units([compile_unit(src)])
    result = compile_minic(mods[0])
    mem = genvs[0].memory()
    return result, mem, mem.domain()


class TestAcceptsCorrectCompilation:
    def test_suite_program(self):
        result, mem, shared = compiled(
            "int g = 4; "
            "int addg(int a) { return a + g; } "
            "void main() { int r; r = addg(1); g = r; print(r); }"
        )
        validations = validate_compilation(result, mem, shared)
        assert all(v.ok for v in validations), [
            (v.pass_name, v.report.failures[:2])
            for v in validations
            if not v.ok
        ]

    def test_stats_populated(self):
        result, mem, shared = compiled(
            "int g = 0; void main() { g = 1; print(g); }"
        )
        (first, *_rest) = validate_compilation(result, mem, shared)
        st = first.report.stats
        assert st.messages_matched > 0
        assert st.fpmatch_checks > 0
        # The continuation after print touches no shared cell, so no
        # rely move can change what either side does there.
        assert st.rely_moves == 0
        assert st.rely_budget_exhausted == 0

    def test_rely_move_where_continuation_reads(self):
        result, mem, shared = compiled(
            "int g = 0; void main() { print(1); print(g); }"
        )
        (first, *_rest) = validate_compilation(result, mem, shared)
        assert first.ok, first.report.failures
        # One move: g at the first print, read by the next segment.
        assert first.report.stats.rely_moves == 1

    def test_entry_without_pointer_target_is_skipped(self):
        # No shared global for p to point at: f is not run, and the
        # report says so instead of reading as validated.
        result, mem, shared = compiled(
            "void f(int *p) { *p = 1; print(*p); }"
        )
        for v in validate_compilation(result, mem, shared):
            assert v.ok
            assert v.report.skipped == ["f"]
            assert v.report.stats.entries_skipped == 1
            assert v.report.stats.segments == 0


class TestReordering:
    """Example (2.2): the accumulated FPmatch admits swapped stores;
    the lockstep (ABL-FP) mode rejects them."""

    SRC_XY = """
    int x = 0;
    int y = 0;
    void body() {
      x = 1;
      y = 2;
      print(y);
    }
    """

    def _cimp_pair(self, reordered):
        # Source stores x then y; "target" is a CImp module too —
        # the checker is language-independent.
        src = parse_cimp(
            "body(){ [X] := 1; [Y] := 2; print(9); }",
            symbols={"X": 10, "Y": 11},
        )
        tgt_text = (
            "body(){ [Y] := 2; [X] := 1; print(9); }"
            if reordered
            else "body(){ [X] := 1; [Y] := 2; print(9); }"
        )
        tgt = parse_cimp(tgt_text, symbols={"X": 10, "Y": 11})
        ge = GlobalEnv(
            {"X": 10, "Y": 11}, {10: VInt(0), 11: VInt(0)}
        )
        return src, tgt, ge.memory()

    def test_swap_accepted_with_accumulation(self):
        src, tgt, mem = self._cimp_pair(reordered=True)
        checker = LocalSimulationChecker(
            CIMP, src, CIMP, tgt, Mu.identity(mem.domain())
        )
        report = checker.check_entry(
            "body", (), mem, mem, FLIST, FLIST
        )
        assert report.ok, report.failures

    def test_swap_rejected_in_lockstep_mode(self):
        src, tgt, mem = self._cimp_pair(reordered=True)
        checker = LocalSimulationChecker(
            CIMP, src, CIMP, tgt, Mu.identity(mem.domain()),
            lockstep=True,
        )
        report = checker.check_entry(
            "body", (), mem, mem, FLIST, FLIST
        )
        assert not report.ok

    def test_identical_accepted_in_lockstep_mode(self):
        src, tgt, mem = self._cimp_pair(reordered=False)
        checker = LocalSimulationChecker(
            CIMP, src, CIMP, tgt, Mu.identity(mem.domain()),
            lockstep=True,
        )
        report = checker.check_entry(
            "body", (), mem, mem, FLIST, FLIST
        )
        assert report.ok, report.failures


class TestRejectsBrokenCompilation:
    def _pair(self, src_text, tgt_text, symbols=None, init=None):
        symbols = symbols or {"G": 10}
        init = init or {10: VInt(0)}
        src = parse_cimp(src_text, symbols=symbols)
        tgt = parse_cimp(tgt_text, symbols=symbols)
        ge = GlobalEnv(symbols, init)
        mem = ge.memory()
        checker = LocalSimulationChecker(
            CIMP, src, CIMP, tgt, Mu.identity(mem.domain())
        )
        return checker.check_entry("f", (), mem, mem, FLIST, FLIST)

    def test_wrong_event_value(self):
        report = self._pair(
            "f(){ print(1); }", "f(){ print(2); }"
        )
        assert not report.ok
        assert any("mismatch" in f for f in report.failures)

    def test_wrong_return_value(self):
        report = self._pair(
            "f(){ return 1; }", "f(){ return 2; }"
        )
        assert not report.ok

    def test_extra_shared_write_rejected(self):
        # The "optimizer" invented a write to shared memory.
        report = self._pair(
            "f(){ print(0); }", "f(){ [G] := 5; print(0); }"
        )
        assert not report.ok
        assert any("FPmatch" in f for f in report.failures)

    def test_extra_shared_read_rejected(self):
        report = self._pair(
            "f(){ print(0); }", "f(){ x := [G]; print(0); }"
        )
        assert not report.ok

    def test_dropped_shared_write_accepted(self):
        # Removing a write shrinks the footprint: FPmatch allows it,
        # but LG's Inv check rejects it when the contents diverge.
        report = self._pair(
            "f(){ [G] := 5; print(0); }", "f(){ print(0); }"
        )
        assert not report.ok
        assert any("LG" in f for f in report.failures)

    def test_write_weakened_to_read_allowed(self):
        # Reading where the source wrote the same value back is a legal
        # footprint weakening *if* the memory still matches; storing
        # the existing value is equivalent to reading it.
        report = self._pair(
            "f(){ [G] := 0; print(0); }",
            "f(){ x := [G]; print(0); }",
        )
        # [G] already holds 0, so contents agree; FPmatch allows
        # ws→rs weakening.
        assert report.ok, report.failures

    def test_target_divergence_rejected(self):
        report = self._pair(
            "f(){ print(0); }",
            "f(){ while (1 == 1) { skip; } print(0); }",
        )
        assert not report.ok
        assert any("budget" in f or "segment" in f
                   for f in report.failures)

    def test_target_abort_rejected(self):
        report = self._pair(
            "f(){ print(0); }", "f(){ assert(0); }"
        )
        assert not report.ok

    def test_source_abort_vacuous(self):
        report = self._pair(
            "f(){ assert(0); }", "f(){ print(9); }"
        )
        assert report.ok
        assert report.stats.vacuous_aborts == 1


class TestRelyInterference:
    @pytest.mark.parametrize("cell", ["G", "H"])
    def test_env_sensitive_difference_caught(self, cell):
        # Source re-reads the cell after the event; the broken target
        # caches the pre-event value. Only environment interference
        # between the two events distinguishes them, whichever shared
        # cell is read.
        symbols = {"G": 10, "H": 11}
        init = {10: VInt(1), 11: VInt(2)}
        src = parse_cimp(
            "f(){{ x := [{0}]; print(x); y := [{0}]; print(y); }}".format(
                cell
            ),
            symbols=symbols,
        )
        tgt = parse_cimp(
            "f(){{ x := [{0}]; print(x); print(x); }}".format(cell),
            symbols=symbols,
        )
        ge = GlobalEnv(symbols, init)
        mem = ge.memory()
        checker = LocalSimulationChecker(
            CIMP, src, CIMP, tgt, Mu.identity(mem.domain())
        )
        report = checker.check_entry("f", (), mem, mem, FLIST, FLIST)
        assert not report.ok, (
            "caching a shared read across a switch point must be "
            "rejected under Rely"
        )

    def test_aborting_segment_moves_its_cells(self):
        # The division reads g and aborts at g == 0, so the identity
        # path is vacuous after print(0). Only a move of g lets the
        # source reach print(a), which the target gets wrong.
        src_text = ("int g = 0; void main() "
                    "{{ int a; print(0); a = 10 / g; print({}); }}")
        src_mods, genvs, _ = link_units([compile_unit(src_text.format("a"))])
        tgt_mods, _, _ = link_units([compile_unit(
            src_text.format("a + 1"))])
        mem = genvs[0].memory()
        checker = LocalSimulationChecker(
            MINIC, src_mods[0], MINIC, tgt_mods[0],
            Mu.identity(mem.domain()),
        )
        report = checker.check_entry("main", (), mem, mem, FLIST, FLIST)
        assert not report.ok, "a miscompilation past an abort on g"
        assert report.stats.vacuous_aborts == 1

    def test_budget_exhaustion_counted(self):
        # Each print but the last is a switch point whose next segment
        # reads G and wants one move. The identity path runs first and
        # spends the budget on prints 1..64 (prints 65..68 go without);
        # then the move made at print k walks prints k+1..68, none of
        # which gets one: 4 + sum(68 - k for k in 1..64) = 2,276.
        n = RELY_BUDGET + 5
        text = "f(){ " + "x := [G]; print(x); " * n + "}"
        src = parse_cimp(text, symbols={"G": 10})
        mem = GlobalEnv({"G": 10}, {10: VInt(0)}).memory()
        checker = LocalSimulationChecker(
            CIMP, src, CIMP, src, Mu.identity(mem.domain())
        )
        report = checker.check_entry("f", (), mem, mem, FLIST, FLIST)
        assert report.ok, report.failures[:2]
        assert report.stats.rely_moves == RELY_BUDGET == 64
        assert report.stats.rely_budget_exhausted == 2276
