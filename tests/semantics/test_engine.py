"""Unit tests for the shared global-semantics engine: the message
protocol (Fig. 7 rules + interaction semantics)."""

import pytest

from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.values import VInt
from repro.lang.messages import ENT_ATOM, EXT_ATOM, TAU, SpawnMsg
from repro.lang.steps import Step
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
)
from repro.semantics.engine import (
    SW,
    GAbort,
    GStep,
    SyncPoint,
    thread_successors,
)

from tests.helpers import behaviours_of, cimp_program, done_traces


def _step_until(ctx, world, pred, semantics=None, bound=100):
    """Follow non-switch global steps until ``pred(world)``."""
    semantics = semantics or PreemptiveSemantics()
    for _ in range(bound):
        if pred(world):
            return world
        outs = [
            o
            for o in semantics.successors(ctx, world)
            if isinstance(o, GStep) and o.label != SW
        ]
        world = outs[0].world
    raise AssertionError("predicate never satisfied")


class TestAtomProtocol:
    def test_entatom_sets_bit(self):
        prog = cimp_program("main(){ <skip;> }", ["main"])
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        world = _step_until(ctx, world, lambda w: w.bits[0] == 1)
        assert world.bits == (1,)

    def test_extatom_clears_bit(self):
        prog = cimp_program("main(){ <skip;> print(1); }", ["main"])
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        world = _step_until(ctx, world, lambda w: w.bits[0] == 1)
        world = _step_until(ctx, world, lambda w: w.bits[0] == 0)
        assert world.bits == (0,)

    def test_impure_entatom_rejected(self):
        # A hand-built language emitting EntAtom with a footprint
        # violates the Fig. 7 EntAt purity side condition.
        from types import SimpleNamespace

        from repro.lang.interface import ModuleLanguage

        class BadLang(ModuleLanguage):
            name = "bad"

            def init_core(self, module, entry, args=()):
                return "start"

            def step(self, module, core, mem, flist):
                return [
                    Step(
                        ENT_ATOM, Footprint({1}, ()), "in", mem
                    )
                ]

        from repro.lang.module import GlobalEnv, ModuleDecl, Program
        from repro.common.memory import Memory

        module = SimpleNamespace(functions={"f": None})
        prog = Program(
            [ModuleDecl(BadLang(), GlobalEnv({}, {}), module)], ["f"]
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        with pytest.raises(SemanticsError):
            thread_successors(ctx, world)


class TestCallProtocol:
    def test_cross_module_call_pushes_frame(self):
        from tests.helpers import minic_program

        prog, _, _, _ = minic_program(
            [
                "extern int g2(); void main() { int r; r = g2(); "
                "print(r); }",
                "int g2() { return 7; }",
            ],
            ["main"],
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        deep = _step_until(
            ctx, world, lambda w: len(w.threads[0]) == 2
        )
        assert deep.top_frame().mod_idx == 1
        # Run to completion; the result flows back.
        assert done_traces(behaviours_of(prog)) == {(7,)}

    def test_callee_frame_freelist_disjoint(self):
        from tests.helpers import minic_program

        prog, _, _, _ = minic_program(
            [
                "extern int g2(); void main() { int r; r = g2(); "
                "print(r); }",
                "int g2() { int local = 7; return local; }",
            ],
            ["main"],
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        deep = _step_until(
            ctx, world, lambda w: len(w.threads[0]) == 2
        )
        caller, callee = deep.threads[0]
        assert caller.flist.disjoint_from(callee.flist)


class TestSpawnProtocol:
    def test_preemptive_spawn_is_plain_step(self):
        prog = cimp_program(
            "main(){ spawn worker; } worker(){ skip; }", ["main"]
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        outs = thread_successors(ctx, world)
        assert len(outs) == 1
        assert isinstance(outs[0], SyncPoint)
        assert outs[0].kind == "spawn"
        assert len(outs[0].world.threads) == 2

    def test_np_spawn_is_switch_point(self):
        prog = cimp_program(
            "main(){ spawn worker; print(1); } worker(){ print(2); }",
            ["main"],
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        outs = NonPreemptiveSemantics().successors(ctx, world)
        # Spawn offers both: continue in main, or switch to the child.
        currents = {o.world.cur for o in outs if isinstance(o, GStep)}
        assert currents == {0, 1}

    def test_np_spawned_interleavings(self):
        prog = cimp_program(
            "main(){ spawn worker; print(1); } worker(){ print(2); }",
            ["main"],
        )
        from tests.helpers import np_behaviours_of

        assert done_traces(np_behaviours_of(prog)) == {
            (1, 2), (2, 1),
        }


class TestAbortPropagation:
    def test_unresolved_call_aborts_globally(self):
        from tests.helpers import minic_program

        prog, _, _, _ = minic_program(
            ["extern void ghost(); void main() { ghost(); }"],
            ["main"],
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        world = _step_until(
            ctx,
            world,
            lambda w: any(
                isinstance(o, GAbort)
                for o in thread_successors(ctx, w)
            ),
        )
        aborts = [
            o
            for o in thread_successors(ctx, world)
            if isinstance(o, GAbort)
        ]
        assert "ghost" in aborts[0].reason
