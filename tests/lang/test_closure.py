"""Unit tests for the step-outcome memo in front of the interpreters.

Pins down the per-``(language, module)`` stage cache and its bound,
the memo over ``lang.step`` and its bound, ``step_outcomes``, and
``prime``.
"""

import pytest

from repro import obs
from repro.lang import closure
from repro.lang.steps import Step
from repro.lang.messages import TAU
from repro.common.footprint import EMP
from repro.semantics.world import GlobalContext

from tests.helpers import cimp_program


@pytest.fixture(autouse=True)
def _restore():
    closure.clear_cache()
    yield
    closure.clear_cache()


class FakeModule:
    pass


class CountingLang:
    """Duck-typed language counting its interpreter ``step`` calls."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def step(self, module, core, mem, flist):
        self.calls += 1
        return [Step(TAU, EMP, core, mem)]


class FakeDecl:
    def __init__(self, lang, code):
        self.lang = lang
        self.code = code


class TestStageCache:
    def test_artifact_cached_per_lang_and_module(self):
        lang, module = CountingLang(), FakeModule()
        first = closure.stage(lang, module)
        assert first is closure.stage(lang, module)
        # Another language instance stepping the same module gets its
        # own memo (x86-SC vs x86-TSO step the same x86 module under
        # different memory hooks).
        other = closure.stage(CountingLang(), module)
        assert other is not first
        # Another module under the first language too.
        assert closure.stage(lang, FakeModule()) is not first

    def test_cache_bound(self):
        lang = CountingLang()
        modules = [FakeModule() for _ in range(closure.CACHE_MAX + 10)]
        for module in modules:
            closure.stage(lang, module)
        assert len(closure._cache) <= closure.CACHE_MAX


class TestMemo:
    def test_outcomes_shared(self):
        lang = CountingLang()
        staged = closure.stage(lang, FakeModule())
        a = staged.outcomes("core", "mem", "flist")
        b = staged.outcomes("core", "mem", "flist")
        assert a is b
        assert lang.calls == 1
        staged.outcomes("core2", "mem", "flist")
        assert lang.calls == 2

    def test_memo_bound(self):
        lang = CountingLang()
        staged = closure.stage(lang, FakeModule())
        staged.memo = {i: [] for i in range(closure.MEMO_MAX)}
        staged.outcomes("core", "mem", "flist")
        assert len(staged.memo) == 1
        assert lang.calls == 1

    def test_step_outcomes_memoized(self):
        lang = CountingLang()
        decl = FakeDecl(lang, FakeModule())
        a = closure.step_outcomes(decl, "core", "mem", "flist")
        b = closure.step_outcomes(decl, "core", "mem", "flist")
        assert a is b
        assert a == [Step(TAU, EMP, "core", "mem")]
        assert lang.calls == 1


    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_key_covers_core_mem_and_flist(self, position):
        # Changing any one of (core, mem, flist) is a different step.
        lang = CountingLang()
        staged = closure.stage(lang, FakeModule())
        base = ["core", "mem", "flist"]
        staged.outcomes(*base)
        changed = list(base)
        changed[position] = "other"
        out = staged.outcomes(*changed)
        assert lang.calls == 2
        assert out == [Step(TAU, EMP, changed[0], changed[1])]

    def test_clear_cache_drops_memos(self):
        lang = CountingLang()
        decl = FakeDecl(lang, FakeModule())
        closure.step_outcomes(decl, "core", "mem", "flist")
        first = closure.stage(lang, decl.code)
        closure.clear_cache()
        assert not closure._cache
        closure.step_outcomes(decl, "core", "mem", "flist")
        assert closure.stage(lang, decl.code) is not first
        assert lang.calls == 2


class TestCounters:
    def test_staging_hits_and_misses_counted(self):
        obs.reset()
        try:
            obs.configure(metrics=True)
            lang = CountingLang()
            decl = FakeDecl(lang, FakeModule())
            for _ in range(3):
                closure.step_outcomes(decl, "core", "mem", "flist")
            closure.step_outcomes(decl, "core2", "mem", "flist")
            assert obs.counter_value("closure.modules_staged") == 1
            assert obs.counter_value("closure.memo_misses") == 2
            assert obs.counter_value("closure.memo_hits") == 2
        finally:
            obs.reset()


class TestEnabled:
    def test_always_on(self):
        # The memo is the only stepping path; there is no gate.
        assert closure.enabled() is True
        # ... and staging happens with no switch to flip first.
        lang = CountingLang()
        closure.step_outcomes(FakeDecl(lang, FakeModule()), "c", "m", "f")
        assert lang.calls == 1
        assert len(closure._cache) == 1


class TestPrime:
    def test_prime_stages_every_module(self):
        prog = cimp_program("main(){ [C] := 1; }", ["main"])
        ctx = GlobalContext(prog)
        closure.clear_cache()
        closure.prime(ctx)
        assert len(closure._cache) == len(ctx.modules)

    def test_prime_keeps_existing_memos(self):
        prog = cimp_program("main(){ [C] := 1; }", ["main"])
        ctx = GlobalContext(prog)
        closure.prime(ctx)
        before = {k: v for k, v in closure._cache.items()}
        closure.prime(ctx)
        assert closure._cache == before
        for key, staged in before.items():
            assert closure._cache[key] is staged
