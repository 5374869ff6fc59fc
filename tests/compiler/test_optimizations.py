"""Tests for the extension optimization passes (ConstProp, CSE,
Deadcode) — the paper's future-work passes, validated by the same
footprint-preserving criterion."""

import types

import pytest

from repro.compiler import cse as cse_pass
from repro.langs.ir import rtl
from repro.langs.ir.base import IRModule
from repro.langs.minic import compile_unit, link_units
from repro.compiler import compile_minic
from repro.compiler.constprop import constprop, transf_function as cp_fn
from repro.compiler.cse import cse, transf_function as cse_fn
from repro.compiler.deadcode import deadcode, transf_function as dc_fn
from repro.simulation.validate import validate_compilation

from tests.helpers import SUITE


def rtl_func(code, params=(), stacksize=0, entry=0):
    return rtl.RTLFunction("f", params, stacksize, entry, code)


class TestConstProp:
    def test_folds_constant_chain(self):
        func = rtl_func({
            0: rtl.Iconst(4, 1, 1),
            1: rtl.Iconst(5, 2, 2),
            2: rtl.Iop("+", (1, 2), 3, 3),
            3: rtl.Ireturn(3),
        })
        out = cp_fn(func)
        assert out.code[2] == rtl.Iconst(9, 3, 3)

    def test_resolves_known_condition(self):
        func = rtl_func({
            0: rtl.Iconst(1, 1, 1),
            1: rtl.Iconst(2, 2, 2),
            2: rtl.Icond("<", (1, 2), 3, 4),
            3: rtl.Ireturn(1),
            4: rtl.Ireturn(2),
        })
        out = cp_fn(func)
        assert out.code[2] == rtl.Inop(3)

    def test_join_loses_divergent_values(self):
        # r1 is 1 on one path and 2 on the other: unknown at the join.
        func = rtl_func({
            0: rtl.Iconst(0, 9, 1),
            1: rtl.Icond("==", (9, 9), 2, 3),
            2: rtl.Iconst(1, 1, 4),
            3: rtl.Iconst(2, 1, 4),
            4: rtl.Iop("+", (1, 1), 5, 5),
            5: rtl.Ireturn(5),
        })
        out = cp_fn(func)
        assert isinstance(out.code[4], rtl.Iop), (
            "must not fold across a join with conflicting constants"
        )

    def test_undefined_division_not_folded(self):
        func = rtl_func({
            0: rtl.Iconst(1, 1, 1),
            1: rtl.Iconst(0, 2, 2),
            2: rtl.Iop("/", (1, 2), 3, 3),
            3: rtl.Ireturn(3),
        })
        out = cp_fn(func)
        assert isinstance(out.code[2], rtl.Iop), (
            "folding 1/0 would erase the abort"
        )

    def test_call_result_unknown(self):
        callee = rtl.RTLFunction("k", (), 0, 0, {0: rtl.Ireturn(None)})
        func = rtl_func({
            0: rtl.Icall("k", (), 1, 1, False),
            1: rtl.Iop("+", (1, 1), 2, 2),
            2: rtl.Ireturn(2),
        })
        module = IRModule({"f": func, "k": callee}, {})
        out = constprop(module)
        assert isinstance(out.functions["f"].code[1], rtl.Iop)


class TestCSE:
    def test_repeated_op_becomes_move(self):
        func = rtl_func({
            0: rtl.Iconst(3, 1, 1),
            1: rtl.Iconst(4, 2, 2),
            2: rtl.Iop("+", (1, 2), 3, 3),
            3: rtl.Iop("+", (1, 2), 4, 4),
            4: rtl.Ireturn(4),
        })
        out = cse_fn(func)
        assert out.code[3] == rtl.Iop("move", (3,), 4, 4)

    def test_redefined_operand_blocks_reuse(self):
        func = rtl_func({
            0: rtl.Iconst(3, 1, 1),
            1: rtl.Iop("+", (1, 1), 2, 2),
            2: rtl.Iconst(9, 1, 3),   # r1 redefined
            3: rtl.Iop("+", (1, 1), 4, 4),
            4: rtl.Ireturn(4),
        })
        out = cse_fn(func)
        assert isinstance(out.code[3], rtl.Iop)
        assert out.code[3].op == "+"

    def test_repeated_load_eliminated(self):
        func = rtl_func({
            0: rtl.Iaddrglobal("g", 1, 1),
            1: rtl.Iload(1, 2, 2),
            2: rtl.Iload(1, 3, 3),
            3: rtl.Ireturn(3),
        })
        out = cse_fn(func)
        assert out.code[2] == rtl.Iop("move", (2,), 3, 3)

    def test_store_kills_loads(self):
        func = rtl_func({
            0: rtl.Iaddrglobal("g", 1, 1),
            1: rtl.Iload(1, 2, 2),
            2: rtl.Istore(1, 2, 3),
            3: rtl.Iload(1, 4, 4),
            4: rtl.Ireturn(4),
        })
        out = cse_fn(func)
        assert isinstance(out.code[3], rtl.Iload), (
            "a store must invalidate remembered loads"
        )

    def test_print_kills_loads(self):
        # Regression: an observable event is a switch point — the
        # environment may rewrite shared memory there. Caching a load
        # across it was a real miscompilation the footprint-preserving
        # validator caught (see EXPERIMENTS.md).
        func = rtl_func({
            0: rtl.Iaddrglobal("g", 1, 1),
            1: rtl.Iload(1, 2, 2),
            2: rtl.Iprint(2, 3),
            3: rtl.Iload(1, 4, 4),
            4: rtl.Ireturn(4),
        })
        out = cse_fn(func)
        assert isinstance(out.code[3], rtl.Iload), (
            "loads must not be cached across observable events"
        )

    def test_spawn_kills_loads(self):
        func = rtl_func({
            0: rtl.Iaddrglobal("g", 1, 1),
            1: rtl.Iload(1, 2, 2),
            2: rtl.Ispawn("w", 3),
            3: rtl.Iload(1, 4, 4),
            4: rtl.Ireturn(4),
        })
        out = cse_fn(func)
        assert isinstance(out.code[3], rtl.Iload)

    def test_call_kills_loads(self):
        func = rtl_func({
            0: rtl.Iaddrglobal("g", 1, 1),
            1: rtl.Iload(1, 2, 2),
            2: rtl.Icall("k", (), None, 3, True),
            3: rtl.Iload(1, 4, 4),
            4: rtl.Ireturn(4),
        })
        out = cse_fn(func)
        assert isinstance(out.code[3], rtl.Iload)

    def test_join_point_starts_fresh(self):
        # The expression is available on only one path into the join.
        func = rtl_func({
            0: rtl.Iconst(0, 9, 1),
            1: rtl.Icond("==", (9, 9), 2, 3),
            2: rtl.Iop("+", (9, 9), 1, 4),
            3: rtl.Inop(4),
            4: rtl.Iop("+", (9, 9), 2, 5),
            5: rtl.Ireturn(2),
        })
        out = cse_fn(func)
        assert out.code[4].op == "+", (
            "cross-block reuse without availability on all paths"
        )


class TestPrintKillIsNeeded:
    """With ``Iprint`` dropped from CSE's kill rule, a load kept live
    across ``print`` must be rejected by the CSE pass check and the
    end-to-end check, whichever global it reads: the rely moves at the
    ``print`` cover every shared cell the next segment reads."""

    SRC = (
        "int g = 0; int h = 0; "
        "void main() {{ int a; int b; a = {0}; print(a); "
        "b = {0}; print(b); }}"
    )

    @pytest.mark.parametrize("cell", ["g", "h"])
    def test_load_kept_across_print_rejected(self, cell, monkeypatch):
        class NotAnInstruction:
            pass

        no_print = types.SimpleNamespace(**vars(rtl))
        no_print.Iprint = NotAnInstruction
        monkeypatch.setattr(cse_pass, "rtl", no_print)
        mods, genvs, _ = link_units([compile_unit(self.SRC.format(cell))])
        mem = genvs[0].memory()
        vals = validate_compilation(
            compile_minic(mods[0], optimize=True), mem, mem.domain()
        )
        assert [v.pass_name for v in vals if not v.ok] == [
            "CSE", "end-to-end",
        ]


class TestDeadcode:
    def test_dead_const_removed(self):
        func = rtl_func({
            0: rtl.Iconst(3, 1, 1),
            1: rtl.Iconst(4, 2, 2),
            2: rtl.Ireturn(2),
        })
        out = dc_fn(func)
        assert out.code[0] == rtl.Inop(1)
        assert out.code[1] == rtl.Iconst(4, 2, 2)

    def test_dead_load_removed(self):
        func = rtl_func({
            0: rtl.Iaddrglobal("g", 1, 1),
            1: rtl.Iload(1, 2, 2),
            2: rtl.Iconst(0, 3, 3),
            3: rtl.Ireturn(3),
        })
        out = dc_fn(func)
        assert out.code[1] == rtl.Inop(2), "dead load shrinks footprint"

    def test_store_never_removed(self):
        func = rtl_func({
            0: rtl.Iaddrglobal("g", 1, 1),
            1: rtl.Iconst(5, 2, 2),
            2: rtl.Istore(1, 2, 3),
            3: rtl.Iconst(0, 4, 4),
            4: rtl.Ireturn(4),
        })
        out = dc_fn(func)
        assert isinstance(out.code[2], rtl.Istore)

    def test_live_through_loop_kept(self):
        func = rtl_func({
            0: rtl.Iconst(0, 1, 1),
            1: rtl.Iconst(3, 2, 2),
            2: rtl.Icond("<", (1, 2), 3, 5),
            3: rtl.Iconst(1, 3, 4),
            4: rtl.Iop("+", (1, 3), 1, 1),
            5: rtl.Ireturn(1),
        })
        out = dc_fn(func)
        assert isinstance(out.code[4], rtl.Iop)


class TestOptimizedPipeline:
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_suite_validates_with_optimizations(self, name):
        mods, genvs, _ = link_units([compile_unit(SUITE[name])])
        result = compile_minic(mods[0], optimize=True)
        names = [s.name for s in result.stages]
        assert names[7:10] == ["ConstProp", "CSE", "Deadcode"]
        mem = genvs[0].memory()
        vals = validate_compilation(result, mem, mem.domain())
        bad = [
            (v.pass_name, v.report.failures[:2])
            for v in vals
            if not v.ok
        ]
        assert not bad, bad

    def test_optimizations_shrink_code(self):
        src = """
        int g = 2;
        void main() {
          int a = 3;
          int b;
          b = a * 4;        // constant-foldable
          int c;
          c = g + g;        // uses a repeated load
          int d;
          d = g + g;        // CSE candidate
          int unused;
          unused = 99;      // dead
          print(b + c + d);
        }
        """
        mods, genvs, _ = link_units([compile_unit(src)])
        plain = compile_minic(mods[0]).stage("Renumber").module
        opt_result = compile_minic(mods[0], optimize=True)
        opt = opt_result.stage("Deadcode").module

        def loads(module):
            return sum(
                isinstance(i, rtl.Iload)
                for f in module.functions.values()
                for i in f.code.values()
            )

        assert loads(opt) < loads(plain), (
            "CSE/Deadcode must remove shared-memory reads"
        )
