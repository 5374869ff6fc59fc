"""FIG2-5b — the whole-program simulation relation, constructed
explicitly (greatest fixpoint on the explored graphs).

Complements FIG2-5's behaviour-set check with the object the paper
actually builds: the downward simulation ``P ≼ P̄`` and its flip
(step ④). Shape claims: both directions hold for compiled programs
(flip valid because targets are deterministic); a behaviour-superset
target simulates downward but not flipped — determinism is what makes
④ sound."""

import pytest

from repro.semantics import NonPreemptiveSemantics, PreemptiveSemantics
from repro.simulation.wholeprog import (
    check_simulation_and_flip,
    check_whole_program_simulation,
)
from repro.framework import ClientSystem, lock_counter_system

from tests.helpers import SUITE, cimp_program


@pytest.mark.parametrize("name", sorted(SUITE))
def test_wholeprog_sim_sequential(benchmark, name):
    system = ClientSystem([SUITE[name]], ["main"])
    src = system.source_program()
    tgt = system.sc_program()

    def check():
        return check_simulation_and_flip(
            src, tgt, NonPreemptiveSemantics()
        )

    verdict = benchmark.pedantic(check, rounds=1, iterations=1)
    assert verdict.ok, (name, verdict)


def test_wholeprog_sim_lock_counter(benchmark):
    system = lock_counter_system(1)
    src = system.source_program()
    tgt = system.sc_program()

    def check():
        return check_simulation_and_flip(
            src, tgt, NonPreemptiveSemantics()
        )

    verdict = benchmark.pedantic(check, rounds=1, iterations=1)
    assert verdict.ok, verdict
    print("\n[FIG2-5b] lock-counter(1): {}".format(verdict.detail))


def test_wholeprog_flip_needs_determinism(benchmark):
    src = cimp_program("t1(){ print(0); }", ["t1"])
    tgt = cimp_program(
        "t1(){ x := [C]; print(x); } t2(){ [C] := 1; }",
        ["t1", "t2"],
    )

    def check():
        down = check_whole_program_simulation(
            src, tgt, PreemptiveSemantics()
        )
        up = check_whole_program_simulation(
            tgt, src, PreemptiveSemantics()
        )
        return down, up

    down, up = benchmark.pedantic(check, rounds=1, iterations=1)
    assert down and not up
