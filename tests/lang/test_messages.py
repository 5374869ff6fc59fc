"""Tests for step messages and step outcomes."""

import pytest

from repro.common.footprint import EMP
from repro.lang.messages import (
    ENT_ATOM,
    EXT_ATOM,
    TAU,
    CallMsg,
    EventMsg,
    RetMsg,
    is_observable,
    is_silent,
)
from repro.lang.steps import Step, StepAbort, has_abort, successful
from repro.common.values import VInt


class TestSingletons:
    def test_tau_singleton(self):
        from repro.lang.messages import _Tau

        assert _Tau() is TAU

    def test_atom_markers_distinct(self):
        assert ENT_ATOM != EXT_ATOM
        assert hash(ENT_ATOM) != hash(EXT_ATOM)

    def test_silence(self):
        assert is_silent(TAU)
        assert not is_silent(ENT_ATOM)
        assert not is_silent(EventMsg("print", 1))
        assert not is_silent(RetMsg(VInt(0)))

    def test_observability(self):
        assert is_observable(EventMsg("print", 1))
        assert not is_observable(TAU)
        assert not is_observable(RetMsg(VInt(0)))


class TestEventMsg:
    def test_equality(self):
        assert EventMsg("print", 1) == EventMsg("print", 1)
        assert EventMsg("print", 1) != EventMsg("print", 2)
        assert EventMsg("print", 1) != EventMsg("out", 1)

    def test_hashable(self):
        assert len({EventMsg("print", 1), EventMsg("print", 1)}) == 1

    def test_immutable(self):
        with pytest.raises(AttributeError):
            EventMsg("print", 1).value = 2


class TestRetAndCall:
    def test_ret_equality(self):
        assert RetMsg(VInt(1)) == RetMsg(VInt(1))
        assert RetMsg(VInt(1)) != RetMsg(VInt(2))

    def test_call_args_tuple(self):
        msg = CallMsg("f", [VInt(1), VInt(2)])
        assert msg.args == (VInt(1), VInt(2))

    def test_call_equality(self):
        assert CallMsg("f", [VInt(1)]) == CallMsg("f", (VInt(1),))
        assert CallMsg("f", []) != CallMsg("g", [])


class TestSteps:
    def test_step_fields(self):
        s = Step(TAU, EMP, "core", "mem")
        assert s.msg is TAU and s.fp is EMP

    def test_step_equality(self):
        assert Step(TAU, EMP, 1, 2) == Step(TAU, EMP, 1, 2)
        assert Step(TAU, EMP, 1, 2) != Step(TAU, EMP, 1, 3)

    def test_abort_equality_ignores_reason(self):
        assert StepAbort(reason="a") == StepAbort(reason="b")

    def test_successful_filter(self):
        outs = [Step(TAU, EMP, 1, 2), StepAbort()]
        assert len(successful(outs)) == 1
        assert has_abort(outs)
        assert not has_abort([Step(TAU, EMP, 1, 2)])
