"""End-to-end integration: the suite compiled, validated, and checked
for whole-program semantics preservation; plus fault-injection tests
showing the validator rejects broken compilers."""

import functools

import pytest

from repro.common.astbase import Node
from repro.lang.module import ModuleDecl, Program
from repro.langs.ir import csharpminor, linear, ltl, mach, rtl
from repro.langs.minic import compile_unit, link_units
from repro.langs.x86 import ast as x86_ast
from repro.semantics import equivalent
from repro.simulation.validate import validate_compilation, validate_pair
from repro.compiler import compile_minic
from repro.compiler.pipeline import Stage
from repro.langs.ir import RTL

from tests.helpers import (
    EXAMPLE_2_2,
    SUITE,
    behaviours_of,
    done_traces,
)
from repro.framework import ClientSystem, check_gcorrect


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_translation_validation(name):
    mods, genvs, _ = link_units([compile_unit(SUITE[name])])
    result = compile_minic(mods[0])
    mem = genvs[0].memory()
    validations = validate_compilation(result, mem, mem.domain())
    bad = [
        (v.pass_name, v.report.failures[:2])
        for v in validations
        if not v.ok
    ]
    assert not bad, bad


class TestExample22:
    """The lock-synchronized two-thread program of example (2.2)."""

    def _system(self):
        return ClientSystem(
            [EXAMPLE_2_2], ["thread1", "thread2"], use_lock=True
        )

    def test_source_behaviours(self):
        system = self._system()
        behs = behaviours_of(
            system.source_program(), max_states=800000
        )
        assert done_traces(behs) == {(2, 3), (3, 2)}

    def test_gcorrect(self):
        result = check_gcorrect(self._system(), max_states=2000000)
        assert result.ok, (result.detail, result.premises)


class _BreakingPass:
    """Fault injection: corrupt the RTL of a compiled module."""

    @staticmethod
    def widen_footprint(module, extra_global):
        """Insert a spurious shared-memory store."""
        functions = {}
        for name, func in module.functions.items():
            code = dict(func.code)
            fresh = max(code) + 1
            reg_addr = 900
            reg_val = 901
            # entry: addrglobal; store; then old entry
            code[fresh] = rtl.Iaddrglobal(
                extra_global, reg_addr, fresh + 1
            )
            code[fresh + 1] = rtl.Iconst(77, reg_val, fresh + 2)
            code[fresh + 2] = rtl.Istore(reg_addr, reg_val, func.entry)
            functions[name] = rtl.RTLFunction(
                func.name, func.params, func.stacksize, fresh, code
            )
        return module.with_functions(functions)


#: The integer-constant forms of the pass outputs, C#minor to x86.
_CONSTS = (
    csharpminor.EConst,
    rtl.Iconst,
    ltl.Lconst,
    linear.LinConst,
    mach.MConst,
    x86_ast.Pmov_ri,
)


def _bump_first_one(module):
    """A rebuilt copy of ``module`` whose first integer constant ``1``
    is ``2``.

    Nothing is edited in place: pass outputs share nodes with their
    inputs, so an in-place edit would break the previous stage too.
    """
    bumped = []

    def rebuild(obj):
        if isinstance(obj, Node):
            if isinstance(obj, _CONSTS) and obj.n == 1 and not bumped:
                bumped.append(obj)
                return obj.replace(n=2)
            return type(obj)(*[rebuild(getattr(obj, f)) for f in obj._fields])
        if isinstance(obj, tuple):
            return tuple(rebuild(item) for item in obj)
        if isinstance(obj, dict):
            return {key: rebuild(value) for key, value in obj.items()}
        return obj

    def rebuild_function(func):
        if isinstance(func, Node):
            return rebuild(func)
        # Function containers: constructor arguments are their slots
        # (``labels`` is derived from ``code``).
        return type(func)(*[
            rebuild(getattr(func, name))
            for name in type(func).__slots__
            if name != "labels"
        ])

    functions = {
        name: rebuild_function(func)
        for name, func in module.functions.items()
    }
    assert bumped, "no constant 1 in the module"
    return module.with_functions(functions)


_FAULT_SRC = "int g = 5; void main() { g = g + 1; print(g); }"


@functools.lru_cache(maxsize=None)
def _fault_stages(optimize):
    mods, genvs, _ = link_units([compile_unit(_FAULT_SRC)])
    return compile_minic(mods[0], optimize=optimize), genvs[0].memory()


#: ``(optimize, pass name)`` of every pass output of both pipelines.
_FAULT_PASSES = [
    (optimize, name)
    for optimize in (False, True)
    for name, _src, _tgt in _fault_stages(optimize)[0].adjacent_pairs()
]


class TestFaultInjection:
    def test_every_pass_output_covered(self):
        assert len(_FAULT_PASSES) == 27

    @pytest.mark.parametrize(
        "optimize,pass_name", _FAULT_PASSES,
        ids=["{}-{}".format("O1" if o else "O0", n)
             for o, n in _FAULT_PASSES],
    )
    def test_wrong_constant_rejected(self, optimize, pass_name):
        result, mem = _fault_stages(optimize)
        index = [st.name for st in result.stages].index(pass_name)
        before, good = result.stages[index - 1], result.stages[index]
        mutant = Stage(pass_name, good.lang, _bump_first_one(good.module))
        entries = [("main", [])]
        assert validate_pair(before, good, entries, mem, mem.domain()).ok
        report = validate_pair(before, mutant, entries, mem, mem.domain())
        assert not report.ok
        assert any("message mismatch" in f for f in report.failures), (
            report.failures
        )

    def test_spurious_store_rejected(self):
        result, mem = _fault_stages(False)
        good = result.stage("Renumber")
        broken = Stage(
            "Renumber",
            RTL,
            _BreakingPass.widen_footprint(good.module, "g"),
        )
        report = validate_pair(
            result.stage("Tailcall"), broken,
            [("main", [])], mem, mem.domain(),
        )
        assert not report.ok
        assert any(
            "FPmatch" in f or "LG" in f for f in report.failures
        )
