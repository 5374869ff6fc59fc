"""Differential: the memoised step equals the interpreter, everywhere.

Exploration steps a thread through :func:`repro.lang.closure.step_outcomes`,
the step-outcome memo in front of ``lang.step``. The memo's contract is
that it is invisible: for every ``(core, mem, flist)`` it answers the
same outcome list, in the same order, with the same messages,
footprints, successor cores/memories and the same abort *reasons*
(``StepAbort.__eq__`` ignores the reason, so we compare it explicitly
here) as a fresh call of the interpreter.

We check this by brute force: explore every reachable world of a
program through the engine (which fills the memo), and at every
reachable ``(core, mem, flist)`` configuration of every thread compare
the memo's answer with a fresh ``lang.step``, elementwise. A memo entry
filled from one world and answered to another is exactly where a key
that misses part of the configuration would show. The MiniC suite
compiled through the full pipeline covers all nine pipeline languages
(MiniC, C#minor, Cminor, CminorSel, RTL, LTL, Linear, Mach, x86-SC);
the same x86 module under TSO covers the buffered semantics and the
per-language keying of the memo; CImp programs cover the tenth core
plus spawn and atomic blocks; the abort suite covers the
undefined-behaviour paths (division, access checks).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import obs
from repro.lang import closure
from repro.lang.module import ModuleDecl, Program
from repro.lang.steps import StepAbort
from repro.langs.minic import compile_unit, link_units
from repro.langs.x86 import X86SC, X86TSO
from repro.semantics.engine import thread_expansion, switch_targets
from repro.semantics.world import GlobalContext
from repro.compiler import compile_minic

from tests.helpers import SUITE, cimp_program
from tests.integration.test_differential import (
    cimp_threads,
    minic_programs,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    closure.clear_cache()
    yield
    closure.clear_cache()


def assert_same_outcomes(lang, module, core, mem, flist, staged):
    """One configuration: fresh interpreter vs memo, elementwise."""
    want = lang.step(module, core, mem, flist)
    got = staged.outcomes(core, mem, flist)
    assert len(got) == len(want), (lang.name, core, got, want)
    for g, w in zip(got, want):
        assert type(g) is type(w), (lang.name, core, g, w)
        assert g == w, (lang.name, core, g, w)
        if isinstance(w, StepAbort):
            # StepAbort.__eq__ ignores the reason; the memo must hand
            # back the interpreter's diagnostics verbatim.
            assert g.reason == w.reason, (lang.name, core, g, w)
        else:
            assert g.msg == w.msg and g.fp == w.fp
            assert g.core == w.core and g.mem == w.mem
    # A repeat is answered from the memo: the very same list.
    assert staged.outcomes(core, mem, flist) is got
    return want


def explore_differential(program, max_worlds=60000):
    """BFS every reachable world, comparing each thread's local step.

    Returns ``(configs_compared, aborts_seen)``. The world successors
    come from the engine, which steps through the memo — so every
    comparison below is against an entry the engine filled (or would
    fill) for some world, checked against an independent interpreter
    call.
    """
    ctx = GlobalContext(program)
    staged = {
        idx: closure.stage(decl.lang, decl.code)
        for idx, decl in enumerate(ctx.modules)
    }
    seen_worlds = set()
    seen_configs = set()
    frontier = list(ctx.load())
    aborts = 0
    while frontier:
        world = frontier.pop()
        if world in seen_worlds:
            continue
        seen_worlds.add(world)
        assert len(seen_worlds) <= max_worlds, "state-space blow-up"
        for result in thread_expansion(ctx, world)[1] or []:
            nxt = getattr(result, "world", None)
            if nxt is None:
                aborts += 1
            else:
                frontier.append(nxt)
        for tid in switch_targets(world, include_self=False):
            frontier.append(world.with_current(tid))
        for tid in world.live_threads():
            frame = world.threads[tid][-1]
            key = (frame.mod_idx, frame.core, frame.flist, world.mem)
            if key in seen_configs:
                continue
            seen_configs.add(key)
            decl = ctx.module(frame.mod_idx)
            assert_same_outcomes(
                decl.lang, decl.code, frame.core, world.mem,
                frame.flist, staged[frame.mod_idx],
            )
    # The engine stepped through the memo, not around it.
    for idx, memo in staged.items():
        assert closure.stage(ctx.module(idx).lang, ctx.module(idx).code) \
            is memo
    assert any(memo.memo for memo in staged.values())
    return len(seen_configs), aborts


def _stage_program(stage, genv, entries=("main",)):
    return Program(
        [ModuleDecl(stage.lang, genv, stage.module)], list(entries)
    )


class TestPipelineStages:
    """Every suite program, every pipeline language."""

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_all_stages(self, name):
        mods, genvs, _ = link_units([compile_unit(SUITE[name])])
        result = compile_minic(mods[0])
        for stage in result.stages:
            configs, _ = explore_differential(
                _stage_program(stage, genvs[0])
            )
            assert configs > 0, stage.name

    def test_optimized_rtl(self):
        # ConstProp/CSE/Deadcode reshape the RTL graphs; the memo must
        # agree with the interpreter on those shapes too.
        mods, genvs, _ = link_units([compile_unit(SUITE["loops"])])
        result = compile_minic(mods[0], optimize=True)
        for stage in result.stages:
            explore_differential(_stage_program(stage, genvs[0]))


class TestX86TSO:
    """The buffered semantics: same module, TSO memory model."""

    @pytest.mark.parametrize("name", ["globals", "pointers"])
    def test_tso_target(self, name):
        mods, genvs, _ = link_units([compile_unit(SUITE[name])])
        target = compile_minic(mods[0]).target
        program = Program(
            [ModuleDecl(X86TSO, genvs[0], target.module)], ["main"]
        )
        configs, _ = explore_differential(program)
        assert configs > 0

    @pytest.mark.parametrize("name", ["globals", "pointers"])
    def test_tso_after_sc_memo(self, name):
        # x86-SC and x86-TSO step the *same* module object. Warm the SC
        # memo first: the TSO run must still get TSO answers, so the
        # memo is keyed by language instance, not by module alone.
        mods, genvs, _ = link_units([compile_unit(SUITE[name])])
        module = compile_minic(mods[0]).target.module
        explore_differential(
            Program([ModuleDecl(X86SC, genvs[0], module)], ["main"])
        )
        sc_memo = closure.stage(X86SC, module)
        assert sc_memo.memo
        tso_memo = closure.stage(X86TSO, module)
        assert tso_memo is not sc_memo
        configs, _ = explore_differential(
            Program([ModuleDecl(X86TSO, genvs[0], module)], ["main"])
        )
        assert configs > 0
        assert closure.stage(X86SC, module) is sc_memo


class TestCImp:
    """The object-language core: spawn, atomic blocks, asserts."""

    def test_interleavings(self):
        prog = cimp_program(
            "t1(){ x := [C]; [C] := x + 1; } t2(){ [C] := 7; }",
            ["t1", "t2"],
        )
        configs, _ = explore_differential(prog)
        assert configs > 0

    def test_atomic_and_assert(self):
        prog = cimp_program(
            "t1(){ <x := [C]; [C] := x + 1;> assert (x >= 0); }"
            " t2(){ <[C] := [C] + 1;> }",
            ["t1", "t2"],
        )
        explore_differential(prog)

    def test_spawn(self):
        prog = cimp_program(
            "main(){ spawn worker; print(1); } worker(){ [C] := 2; }",
            ["main"],
        )
        explore_differential(prog)

    def test_failed_assert_reason(self):
        prog = cimp_program("main(){ assert (0 == 1); }", ["main"])
        _, aborts = explore_differential(prog)
        assert aborts > 0


class TestHypothesisDifferential:
    """Random programs: the fixed suites pin known node shapes; the
    hypothesis generators (shared with the end-to-end differential in
    ``tests/integration/test_differential.py``) search for
    configurations the memo key tells apart wrongly."""

    # The autouse memo fixture is function-scoped; each example clears
    # the memo itself, so sharing it across examples is fine.
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(minic_programs())
    def test_random_minic_through_pipeline(self, source):
        closure.clear_cache()
        mods, genvs, _ = link_units([compile_unit(source)])
        result = compile_minic(mods[0], optimize=True)
        for stage in result.stages:
            configs, _ = explore_differential(
                _stage_program(stage, genvs[0])
            )
            assert configs > 0, stage.name

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(cimp_threads())
    def test_random_cimp_interleavings(self, source):
        closure.clear_cache()
        prog = cimp_program(source, ["t1", "t2"])
        configs, _ = explore_differential(prog)
        assert configs > 0


#: Undefined behaviour: each program aborts on at least one path, and
#: the differential asserts the memoised abort reason matches the
#: interpreter's at every stage of the pipeline.
ABORT_SUITE = {
    "div_zero": """
        void main() {
          int z = 0;
          print(10 / z);
        }
    """,
    "mod_zero": """
        void main() {
          int z = 0;
          print(10 % z);
        }
    """,
}


class TestAbortReasons:
    @pytest.mark.parametrize("name", sorted(ABORT_SUITE))
    def test_all_stages_abort_identically(self, name):
        mods, genvs, _ = link_units([compile_unit(ABORT_SUITE[name])])
        result = compile_minic(mods[0])
        for stage in result.stages:
            _, aborts = explore_differential(
                _stage_program(stage, genvs[0])
            )
            assert aborts > 0, stage.name

    def test_forbidden_global_access(self):
        # A module storing to an address it does not own: the memo must
        # hand back the interpreter's exact abort reason at every stage.
        mods, genvs, _ = link_units(
            [compile_unit("int g = 0; void main() { g = 1; }")]
        )
        addr = genvs[0].address_of("g")
        result = compile_minic(mods[0].with_forbidden(frozenset({addr})))
        for stage in result.stages:
            _, aborts = explore_differential(
                _stage_program(stage, genvs[0])
            )
            assert aborts > 0, stage.name


def _count_misses(program):
    """Explore ``program`` with metrics on; return (misses, hits, configs)."""
    obs.reset()
    try:
        obs.configure(metrics=True)
        configs, _ = explore_differential(program)
        return (
            obs.counter_value("closure.memo_misses"),
            obs.counter_value("closure.memo_hits"),
            configs,
        )
    finally:
        obs.reset()


class TestWarmMemo:
    """A second exploration of the same modules is answered entirely
    from the memo: not one interpreter call, and the same answers."""

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_second_run_makes_no_interpreter_call(self, name):
        mods, genvs, _ = link_units([compile_unit(SUITE[name])])
        target = compile_minic(mods[0]).target
        program = _stage_program(target, genvs[0])
        cold_misses, _, cold_configs = _count_misses(program)
        assert cold_misses > 0
        warm_misses, warm_hits, warm_configs = _count_misses(program)
        assert warm_misses == 0
        assert warm_hits > 0
        assert warm_configs == cold_configs


class TestMemoBoundUnderExploration:
    """The memo self-clears at ``MEMO_MAX`` mid-exploration; answers
    after a clear still equal the interpreter's, and the stage cache
    self-clears at ``CACHE_MAX`` between modules without harm."""

    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_tiny_bounds(self, name, monkeypatch):
        monkeypatch.setattr(closure, "MEMO_MAX", 2)
        monkeypatch.setattr(closure, "CACHE_MAX", 1)
        mods, genvs, _ = link_units([compile_unit(SUITE[name])])
        result = compile_minic(mods[0])
        for stage in result.stages:
            configs, _ = explore_differential(
                _stage_program(stage, genvs[0])
            )
            assert configs > 0, stage.name
            assert len(closure._cache) <= 1
            for staged in closure._cache.values():
                assert len(staged.memo) <= 2
