"""The three rules every whole-program checker follows.

1. A premise gate names the failed premises and returns before the
   target is explored.
2. One conclusion routine: holds, fails with N counterexamples, or
   inconclusive.
3. A state or behaviour bound gives ``inconclusive`` with ``ok=False``;
   no checker raises ``ExplorationLimit``.
"""

import pytest

from repro.compiler import compile_minic
from repro.framework import (
    ClientSystem,
    check_gcorrect,
    check_theorem15,
    lock_counter_system,
    theorems,
)
from repro.langs.minic import compile_unit, link_units
from repro.semantics.refinement import (
    INCONCLUSIVE_DETAIL,
    RefinementResult,
    Verdict,
    conclude,
    gate,
)
from repro.simulation.compose import (
    check_compositionality,
    check_drf_npdrf_equivalence,
    check_npdrf_preservation,
    check_semantics_equivalence,
)
from repro.tso import (
    check_object_refinement,
    check_plain_drf_guarantee,
    check_strengthened_drf_guarantee,
)

from tests.framework.test_verdict_golden import RACY_CLIENT, _context

#: Two threads on disjoint globals: DRF, and over 100 x86 worlds.
DISJOINT_CLIENT = """
int a = 0;
int b = 0;
void t1() { a = 1; print(a); }
void t2() { b = 1; print(b); }
"""


@pytest.fixture(scope="module")
def system():
    return lock_counter_system(2)


@pytest.fixture(scope="module")
def lock_context():
    return _context("lock")


@pytest.fixture(scope="module")
def disjoint():
    mods, genvs, _ = link_units([compile_unit(DISJOINT_CLIENT)])
    return [compile_minic(mods[0]).target], [genvs[0]], ["t1", "t2"]


def _checkers(system, lock_context, disjoint):
    """``name -> check(**bounds)`` for the nine checkers (Lem. 8 and
    ⑥⑧ take no ``max_events``)."""
    stages, genvs, impl, spec, entries = lock_context
    src, tgt = system.source_program(), system.sc_program()
    return {
        "Thm 14": lambda **kw: check_gcorrect(system, **kw),
        "Thm 15": lambda **kw: check_theorem15(system, **kw),
        "Lem 16": lambda **kw: check_strengthened_drf_guarantee(
            stages, genvs, *impl, *spec, entries, **kw
        ),
        "Lem 16 plain": lambda **kw: check_plain_drf_guarantee(
            *disjoint, **kw
        ),
        "object refinement": lambda **kw: check_object_refinement(
            stages, genvs, *impl, *spec, entries, **kw
        ),
        "Lems 6+7": lambda **kw: check_compositionality(src, tgt, **kw),
        "Lem 8": lambda max_states: check_npdrf_preservation(
            src, tgt, max_states
        ),
        "Lem 9": lambda **kw: check_semantics_equivalence(src, **kw),
        "DRF⇔NPDRF": lambda max_states: check_drf_npdrf_equivalence(
            src, max_states
        ),
    }


CHECKERS = ("Thm 14", "Thm 15", "Lem 16", "Lem 16 plain",
            "object refinement", "Lems 6+7", "Lem 8", "Lem 9", "DRF⇔NPDRF")


@pytest.mark.parametrize("name", CHECKERS)
def test_state_bound_is_inconclusive(name, system, lock_context, disjoint):
    check = _checkers(system, lock_context, disjoint)[name]
    verdict = check(max_states=100)
    assert isinstance(verdict, Verdict)
    assert not verdict.ok and verdict.inconclusive, verdict
    assert verdict.detail.startswith("inconclusive: ")
    assert all(verdict.premises.values()), verdict.premises


@pytest.mark.parametrize(
    "name", ["Lems 6+7", "Lem 9", "object refinement"]
)
def test_event_bound_is_inconclusive(name, system, lock_context, disjoint):
    check = _checkers(system, lock_context, disjoint)[name]
    verdict = check(max_events=1)
    assert not verdict.ok and verdict.inconclusive, verdict
    assert verdict.detail == INCONCLUSIVE_DETAIL
    assert "counterexample" not in verdict.detail


def test_thm15_gate_skips_the_tso_program(monkeypatch):
    explored = []
    real = theorems.program_behaviours

    def spy(ctx, *args, **kwargs):
        explored.append(ctx)
        return real(ctx, *args, **kwargs)

    monkeypatch.setattr(theorems, "program_behaviours", spy)
    racy = ClientSystem([RACY_CLIENT], ["t1", "t2"])
    verdict = check_theorem15(racy)
    assert (verdict.ok, verdict.detail, verdict.inconclusive) == (
        False, "premise(s) failed: drf", False
    )
    assert verdict.premises == {
        "safe": True, "drf": False, "correct_seqcomp": True
    }
    assert explored == []


def test_verdicts_are_named(system):
    assert check_theorem15(system, max_states=100).name == "Theorem15"
    assert repr(check_gcorrect(system, max_events=1)).startswith(
        "Verdict(GCorrect, ok=False, inconclusive: "
    )


class TestGate:
    def test_all_premises_hold(self):
        assert gate({"safe": True, "drf": True}) is None

    def test_failed_premises_are_named(self):
        verdict = gate({"safe": False, "drf": True, "x": False})
        assert not verdict.ok and not verdict.inconclusive
        assert verdict.detail == "premise(s) failed: safe, x"

    def test_vacuous_checker_passes(self):
        verdict = gate({"drf": False}, vacuous=True)
        assert verdict.ok
        assert verdict.detail == "premise(s) failed: drf; vacuous"
        assert verdict.premises == {"drf": False}


class TestConclude:
    def test_holds(self):
        verdict = conclude("⊑", (RefinementResult(True), "fails"))
        assert (verdict.ok, verdict.detail) == (True, "⊑")

    def test_first_refuted_comparison_fails(self):
        verdict = conclude(
            "⊑",
            (RefinementResult(True), "first"),
            (RefinementResult(False, ["a", "b"]), "second"),
            (RefinementResult(False, ["c"]), "third"),
            premises={"p": True},
        )
        assert (verdict.ok, verdict.detail, verdict.inconclusive) == (
            False, "second (2 counterexamples)", False
        )
        assert verdict.premises == {"p": True}

    def test_cut_comparison_is_inconclusive(self):
        verdict = conclude(
            "⊑", (RefinementResult(False, inconclusive=True), "fails")
        )
        assert (verdict.ok, verdict.detail, verdict.inconclusive) == (
            False, INCONCLUSIVE_DETAIL, True
        )
