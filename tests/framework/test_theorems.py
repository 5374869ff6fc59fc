"""End-to-end tests of the theorem pipelines (framework package)."""

import pytest

from repro.framework import (
    ClientSystem,
    check_correct,
    check_gcorrect,
    check_reachclose_all,
    check_theorem15,
    format_table,
    framework_steps,
    lock_counter_system,
    per_pass_table,
)


@pytest.fixture(scope="module")
def system():
    return lock_counter_system(2)


_PREMISES_14 = ("safe", "drf", "correct_seqcomp", "correct_idtrans",
                "reach_close")
_HOLDS_14 = (True, "target ⊑ source", dict.fromkeys(_PREMISES_14, True),
             False)
_HOLDS_15 = (True, "P_rmm ⊑′ P",
             {"safe": True, "drf": True, "correct_seqcomp": True}, False)


def _verdict(result):
    """What a theorem check reports; pinned below to the verdicts the
    checkers gave when they explored each source twice."""
    return result.ok, result.detail, result.premises, result.inconclusive


class TestBuild:
    def test_lock_system_structure(self, system):
        assert system.use_lock
        assert len(system.results) == 1
        assert system.entries == ("inc", "inc")
        assert system.lock_addr in system.shared()

    def test_programs_constructible(self, system):
        assert len(system.source_program().modules) == 2
        assert len(system.sc_program().modules) == 2
        assert len(system.tso_program().modules) == 2

    def test_stage_program(self, system):
        prog = system.stage_program("RTLgen")
        assert prog.modules[0].lang.name == "RTL"

    def test_no_lock_system(self):
        sys2 = ClientSystem(
            ["void main() { print(1); }"], ["main"]
        )
        assert len(sys2.source_program().modules) == 1


class TestCorrect(object):
    def test_all_passes_validate(self, system):
        ok, validations = check_correct(system)
        assert ok
        names = [v.pass_name for v in validations[0]]
        assert names[:3] == ["Cshmgen", "Cminorgen", "Selection"]
        assert names[-1] == "end-to-end"

    def test_reachclose(self, system):
        ok, reports = check_reachclose_all(system)
        assert ok
        assert "inc" in reports


class TestGCorrect:
    def test_theorem14(self, system):
        result = check_gcorrect(system, max_states=800000)
        assert _verdict(result) == _HOLDS_14

    def test_premise_failure_reported(self):
        racy = ClientSystem(
            [
                "int x = 0; void t1() { x = 1; } "
                "void t2() { x = 2; }"
            ],
            ["t1", "t2"],
        )
        result = check_gcorrect(racy)
        premises = dict.fromkeys(_PREMISES_14, True)
        premises["drf"] = False
        assert _verdict(result) == (
            False, "premise(s) failed: drf", premises, False
        )


class TestTheorem15:
    def test_extended_framework(self, system):
        result = check_theorem15(system, max_states=1500000)
        assert _verdict(result) == _HOLDS_15


class TestInconclusive:
    """A ``cut`` behaviour set leaves the verdict open: ``ok`` is False,
    but no premise is reported failed and no refinement refuted."""

    @pytest.mark.parametrize("check", [check_gcorrect, check_theorem15])
    def test_truncated_traces(self, system, check):
        result = check(system, max_events=1)
        assert not result.ok
        assert result.inconclusive
        assert result.detail.startswith("inconclusive: ")
        assert all(result.premises.values()), result.premises

    def test_failed_premise_is_not_inconclusive(self):
        racy = ClientSystem(
            ["int x = 0; void t1() { x = 1; print(x); } "
             "void t2() { x = 2; }"],
            ["t1", "t2"],
        )
        result = check_gcorrect(racy, max_events=0)
        assert not result.ok and not result.inconclusive
        assert result.detail == "premise(s) failed: drf"


class TestOptimizedSystem:
    def test_theorems_hold_with_optimizing_pipeline(self):
        from tests.helpers import LOCK_CLIENT

        system = ClientSystem(
            [LOCK_CLIENT], ["inc", "inc"], use_lock=True,
            optimize=True,
        )
        names = [s.name for s in system.results[0].stages]
        assert "CSE" in names
        result = check_gcorrect(system, max_states=1500000)
        assert _verdict(result) == _HOLDS_14
        result15 = check_theorem15(system, max_states=2000000)
        assert _verdict(result15) == _HOLDS_15


class TestFrameworkSteps:
    def test_all_steps_hold(self, system):
        steps = framework_steps(system, max_states=800000)
        assert len(steps) == 6
        for name, result in steps:
            assert result.ok, (name, result.detail)


class TestReport:
    def test_per_pass_table_shape(self, system):
        rows = per_pass_table(system)
        assert [r.pass_name for r in rows] == [
            "Cshmgen", "Cminorgen", "Selection", "RTLgen", "Tailcall",
            "Renumber", "Allocation", "Tunneling", "Linearize",
            "CleanupLabels", "Stacking", "Asmgen",
        ]
        for row in rows:
            assert row.fp_obligations > row.baseline_obligations, (
                "footprint validation adds obligations over baseline"
            )
            assert row.seconds >= 0

    def test_format_table(self, system):
        rows = per_pass_table(system)
        text = format_table(rows)
        assert "Cshmgen" in text and "Asmgen" in text
        assert text.count("\n") >= 13
