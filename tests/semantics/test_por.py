"""Footprint-directed partial-order reduction (ample sets).

Unit-level coverage of :mod:`repro.semantics.por` and the reduced
exploration path: the privacy check, the ample decision (including the
one-step-disjointness counterexample from the module docstring), the
cycle proviso on spin loops, the reduction counters, and the on-the-fly
race-detection fusion. The systematic POR-on/POR-off agreement over
the whole example suite lives in ``test_por_crossval.py``.
"""

import pytest

from repro import obs
from repro.common.footprint import Footprint, disjoint
from repro.common.freelist import LOCAL_BASE
from repro.framework.build import lock_counter_system
from repro.lang.closure import step_outcomes
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    explore,
    find_race,
    program_behaviours,
)
from repro.semantics.por import (
    THREAD_SPAN,
    AmpleReducer,
    default_reduce,
)

from tests.helpers import cimp_program

PRE = PreemptiveSemantics()


class TestDefaultReduce:
    def test_unset_is_on(self):
        assert default_reduce({}) is True

    @pytest.mark.parametrize("value", ["0", "false", "OFF", "no", ""])
    def test_off_values(self, value):
        assert default_reduce({"REPRO_POR": value}) is False

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes"])
    def test_on_values(self, value):
        assert default_reduce({"REPRO_POR": value}) is True


class TestFootprintPrivate:
    def test_empty_footprint_is_private(self):
        r = AmpleReducer()
        assert r.footprint_private(Footprint(), 0)
        assert r.footprint_private(Footprint(), 5)

    def test_own_freelist_range(self):
        r = AmpleReducer()
        t1_addr = LOCAL_BASE + THREAD_SPAN + 3
        fp = Footprint(rs=(t1_addr,), ws=(t1_addr,))
        assert r.footprint_private(fp, 1)
        assert not r.footprint_private(fp, 0)
        assert not r.footprint_private(fp, 2)

    def test_shared_address_never_private(self):
        # Globals live below LOCAL_BASE; no thread owns them.
        fp = Footprint(ws=(100,))
        r = AmpleReducer()
        assert not r.footprint_private(fp, 0)
        assert not r.footprint_private(fp, 1)

    def test_mixed_footprint_not_private(self):
        fp = Footprint(rs=(LOCAL_BASE + 1,), ws=(100,))
        assert not AmpleReducer().footprint_private(fp, 0)


class TestAmpleDecision:
    def test_shared_write_refuses_reduction(self):
        prog = cimp_program(
            "t1(){ [C] := 1; } t2(){ skip; }", ["t1", "t2"]
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        assert world.cur == 0
        _outs, _results, ample = AmpleReducer().decide(ctx, world)
        assert not ample

    def test_minic_private_locals_reduce(self):
        # MiniC locals live in the thread's freelist pages: the entry
        # steps of the lock-counter clients are private and reducible.
        prog = lock_counter_system(2).source_program()
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        outs, results, ample = AmpleReducer().decide(ctx, world)
        assert ample
        assert outs and results

    def test_one_step_disjointness_is_not_enough(self):
        # The module-docstring counterexample: t1's write to [C] is
        # disjoint from t2's *next* step (a register assignment, empty
        # footprint), but pruning t2 here would lose the interleaving
        # where t2 runs to its read of [C] *before* the write — the
        # ``print 0`` behaviour. Privacy (not one-step disjointness)
        # is the reduction criterion, so t1's shared write refuses.
        prog = cimp_program(
            "t1(){ [C] := 1; } t2(){ x := 5; y := [C]; print(y); }",
            ["t1", "t2"],
        )
        ctx = GlobalContext(prog)
        world = ctx.load()[0]
        assert world.cur == 0

        def outcomes(tid):
            frame = world.top_frame(tid)
            return step_outcomes(
                ctx.module(frame.mod_idx), frame.core, world.mem,
                frame.flist,
            )

        outs0 = outcomes(0)
        outs1 = outcomes(1)
        assert all(
            disjoint(a.fp, b.fp) for a in outs0 for b in outs1
        ), "counterexample premise: one-step footprints disjoint"

        _outs, _results, ample = AmpleReducer().decide(ctx, world)
        assert not ample

        on = program_behaviours(ctx, PRE, 50000, reduce=True)
        off = program_behaviours(GlobalContext(prog), PRE, 50000,
                                 reduce=False)
        assert on == off
        assert {0, 1} <= {
            e.value for b in on for e in b.events
        }, "both read-before-write and write-before-read survive"


class TestCycleProviso:
    def test_spin_loop_does_not_starve_other_threads(self):
        # t1 spins silently forever on registers (empty footprints:
        # every step is a reduction candidate). Without the proviso,
        # the reduced DFS would chase the spin cycle and never emit the
        # switch to t2, losing ``print 7`` — and ``silent_div`` must
        # still be reported exactly.
        prog = cimp_program(
            "t1(){ x := 0; while(x == 0){ skip; } } t2(){ print(7); }",
            ["t1", "t2"],
        )
        on = program_behaviours(GlobalContext(prog), PRE, 50000,
                                reduce=True)
        off = program_behaviours(GlobalContext(prog), PRE, 50000,
                                 reduce=False)
        assert on == off
        assert any(
            e.value == 7 for b in on for e in b.events
        )
        assert all(b.end == "silent_div" for b in on)

    def test_proviso_counter_ticks(self):
        obs.reset()
        try:
            obs.configure(metrics=True)
            prog = cimp_program(
                "t1(){ x := 0; while(x == 0){ skip; } }"
                "t2(){ print(7); }",
                ["t1", "t2"],
            )
            explore(GlobalContext(prog), PRE, 50000, reduce=True)
            assert obs.counter_value("por.proviso_expansions") > 0
        finally:
            obs.reset()


class TestReduction:
    def test_lock_counter_state_ratio(self):
        # The PR acceptance target: POR-on explores at most half the
        # states of the full graph on the 3-thread lock counter.
        prog = lock_counter_system(3).source_program()
        full = explore(GlobalContext(prog), PRE, 200000)
        red = explore(GlobalContext(prog), PRE, 200000, reduce=True)
        assert not full.truncated and not red.truncated
        assert red.state_count() <= full.state_count() // 2
        assert red.done and full.done
        assert not red.stuck and not full.stuck

    def test_explore_default_is_full(self):
        prog = lock_counter_system(2).source_program()
        default = explore(GlobalContext(prog), PRE, 200000)
        full = explore(GlobalContext(prog), PRE, 200000, reduce=False)
        assert default.state_count() == full.state_count()

    def test_nonpreemptive_falls_back_to_full(self):
        # The reducer is preemptive-only: its pruned switch points are
        # exactly the sync points NPDRF quantifies over.
        prog = lock_counter_system(2).source_program()
        sem = NonPreemptiveSemantics()
        on = explore(GlobalContext(prog), sem, 200000, reduce=True)
        off = explore(GlobalContext(prog), sem, 200000, reduce=False)
        assert on.state_count() == off.state_count()

    def test_reduction_counters(self):
        obs.reset()
        try:
            obs.configure(metrics=True)
            prog = lock_counter_system(2).source_program()
            explore(GlobalContext(prog), PRE, 200000, reduce=True)
            assert obs.counter_value("por.ample_worlds") > 0
            assert obs.counter_value("por.full_expansions") > 0
            assert obs.counter_value("por.steps_avoided") > 0
        finally:
            obs.reset()

    def test_lock_counter_race_search_counters(self):
        # The exact work of the fused race search on the 3-thread lock
        # counter. Any change to the ample decision, the cycle proviso
        # or the order in which the DFS links and numbers states moves
        # at least one of these.
        obs.reset()
        try:
            obs.configure(metrics=True)
            prog = lock_counter_system(3).source_program()
            assert find_race(GlobalContext(prog), PRE, reduce=True) is None
            counters = {
                name: obs.counter_value(name)
                for name in (
                    "por.ample_worlds",
                    "por.full_expansions",
                    "por.proviso_expansions",
                    "por.steps_avoided",
                    "explore.states_visited",
                )
            }
            assert counters == {
                "por.ample_worlds": 1695,
                "por.full_expansions": 3315,
                "por.proviso_expansions": 63,
                "por.steps_avoided": 2862,
                "explore.states_visited": 5028,
            }
        finally:
            obs.reset()


class TestOnTheFlyFusion:
    RACY = "t1(){ [C] := 1; x := [C]; } t2(){ [C] := 2; y := [C]; }"

    def test_on_the_fly_halts_early(self):
        # A witness at (or near) the initial world: the fused detector
        # must stop the exploration instead of materialising the full
        # state space first.
        prog = cimp_program(self.RACY, ["t1", "t2"])

        def states_visited(on_the_fly):
            obs.reset()
            try:
                obs.configure(metrics=True)
                witness = find_race(
                    GlobalContext(prog), PRE, 50000,
                    on_the_fly=on_the_fly,
                )
                assert witness is not None
                return obs.counter_value("explore.states_visited")
            finally:
                obs.reset()

        assert states_visited(True) < states_visited(False)

    def test_prediction_memo_hits(self):
        obs.reset()
        try:
            obs.configure(metrics=True)
            prog = lock_counter_system(2).source_program()
            assert find_race(GlobalContext(prog), PRE, 200000) is None
            assert obs.counter_value("race.prediction_memo_hits") > 0
        finally:
            obs.reset()
