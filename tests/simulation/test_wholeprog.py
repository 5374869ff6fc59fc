"""Tests for the explicit whole-program simulation construction."""

import re

import pytest

from repro.semantics import NonPreemptiveSemantics, PreemptiveSemantics
from repro.simulation.wholeprog import (
    check_simulation_and_flip,
    check_whole_program_simulation,
)
from repro.framework import ClientSystem, lock_counter_system

from tests.helpers import SUITE, cimp_program


def relation_sizes(verdict):
    """The ``|R|`` of each relation a verdict's detail names."""
    return [int(n) for n in re.findall(r"\|R\|=(\d+)", verdict.detail)]


class TestSequentialPrograms:
    @pytest.mark.parametrize("name", ["calls", "branches", "globals"])
    def test_simulation_both_directions(self, name):
        system = ClientSystem([SUITE[name]], ["main"])
        verdict = check_simulation_and_flip(
            system.source_program(),
            system.sc_program(),
            NonPreemptiveSemantics(),
        )
        assert verdict.ok, (name, verdict)
        sizes = relation_sizes(verdict)
        assert len(sizes) == 2 and sizes[0] > 0, verdict.detail


class TestConcurrentPrograms:
    def test_lock_counter_single_thread(self):
        system = lock_counter_system(1)
        verdict = check_simulation_and_flip(
            system.source_program(),
            system.sc_program(),
            NonPreemptiveSemantics(),
        )
        assert verdict.ok, verdict

    def test_preemptive_semantics_too(self):
        system = lock_counter_system(1)
        down = check_whole_program_simulation(
            system.source_program(),
            system.sc_program(),
            PreemptiveSemantics(),
        )
        assert down

    def test_cimp_identity(self):
        prog = cimp_program(
            "t1(){ <x := [C]; [C] := x + 1;> print(1); }"
            "t2(){ print(2); }",
            ["t1", "t2"],
        )
        down = check_whole_program_simulation(
            prog, prog, NonPreemptiveSemantics()
        )
        assert down


class TestRejection:
    def test_wrong_event_no_simulation(self):
        src = cimp_program("t1(){ print(1); }", ["t1"])
        tgt = cimp_program("t1(){ print(2); }", ["t1"])
        down = check_whole_program_simulation(
            src, tgt, NonPreemptiveSemantics()
        )
        assert not down

    def test_missing_behaviour_no_simulation(self):
        # Source can print either branch (racy read); target only one.
        src = cimp_program(
            "t1(){ x := [C]; print(x); } t2(){ [C] := 1; }",
            ["t1", "t2"],
        )
        tgt = cimp_program(
            "t1(){ print(0); } t2(){ skip; }", ["t1", "t2"]
        )
        down = check_whole_program_simulation(
            src, tgt, PreemptiveSemantics()
        )
        assert not down

    def test_superset_target_simulates_but_not_flipped(self):
        # Target has strictly more behaviours: downward holds, the
        # flip fails — exactly why the paper needs determinism for ④.
        src = cimp_program("t1(){ print(0); }", ["t1"])
        tgt = cimp_program(
            "t1(){ x := [C]; print(x); } t2(){ [C] := 1; }",
            ["t1", "t2"],
        )
        down = check_whole_program_simulation(
            src, tgt, PreemptiveSemantics()
        )
        up = check_whole_program_simulation(
            tgt, src, PreemptiveSemantics()
        )
        assert down
        assert not up
        flip = check_simulation_and_flip(src, tgt, PreemptiveSemantics())
        assert not flip.ok and not flip.inconclusive
        assert flip.detail.startswith("flip failed: initial world "), flip

    def test_abort_must_be_matched(self):
        src = cimp_program("t1(){ assert(0); }", ["t1"])
        tgt = cimp_program("t1(){ print(1); }", ["t1"])
        down = check_whole_program_simulation(
            src, tgt, NonPreemptiveSemantics()
        )
        assert not down


class TestVerdict:
    def test_detail_names_the_relation(self):
        prog = cimp_program("t1(){ print(1); }", ["t1"])
        verdict = check_whole_program_simulation(
            prog, prog, NonPreemptiveSemantics()
        )
        assert verdict.name == "WholeProgramSimulation"
        assert verdict.ok and not verdict.inconclusive
        assert verdict.detail.startswith("simulation built, |R|=")
        assert relation_sizes(verdict)[0] > 0

    def test_unmatched_initial_world_is_named(self):
        src = cimp_program("t1(){ print(1); }", ["t1"])
        tgt = cimp_program("t1(){ print(2); }", ["t1"])
        verdict = check_simulation_and_flip(
            src, tgt, NonPreemptiveSemantics()
        )
        assert verdict.name == "SimulationAndFlip"
        assert not verdict.ok and not verdict.inconclusive
        assert verdict.detail.startswith(
            "source ⋠ target: initial world 0 unmatched, |R|="
        ), verdict
