"""The segment memo of ``validate_compilation``: every pair of one
compilation reads one memo of :func:`local._run_to_message`, so a stage
shared by two passes (and the end-to-end check) is interpreted once per
start state. The memo must be invisible: every verdict and every
logical counter equals a run that gives each pair a fresh memo."""

import glob
import os

import pytest

from repro.compiler import compile_minic
from repro.compiler.pipeline import CompilationResult, Stage
from repro.fuzz.generators import plan
from repro.langs.minic import compile_unit, link_units
from repro.simulation import local
from repro.simulation.validate import (
    sample_args,
    validate_compilation,
    validate_pair,
)

from tests.helpers import EXAMPLES_DIR, SUITE
from tests.integration.test_end_to_end import _FAULT_SRC, _bump_first_one

SEQ = """
int g = 1;
int helper(int a) { return a * 2 - 1; }
void main() {
  int a = 1; int b = 2; int r;
  r = helper(g); g = r + a; print(g); a = g * b; print(a);
}
"""


def _compiled(source, optimize):
    mods, genvs, _ = link_units([compile_unit(source)])
    mem = genvs[0].memory()
    return compile_minic(mods[0], optimize=optimize), mem


def _segments_run(validations):
    return sum(v.report.stats.segments_run for v in validations)


def _programs():
    progs = {}
    for path in sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.c"))):
        with open(path) as handle:
            progs["example-" + os.path.basename(path)] = handle.read()
    for name, source in sorted(SUITE.items()):
        progs["suite-" + name] = source
    # A slice of the seeded validate-seq draw (seed 2026).
    for inp in plan(2026, 6, ("minic-seq",)):
        progs["seq-{}".format(inp.index)] = inp.source
    return progs


PROGRAMS = _programs()


@pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
def test_each_start_state_runs_once(monkeypatch, optimize):
    result, mem = _compiled(SEQ, optimize)
    starts = []
    real = local._run_to_message

    def spy(lang, module, core, mem, flist, shared, max_tau):
        starts.append((lang, id(module), core, mem, flist, shared,
                       max_tau))
        return real(lang, module, core, mem, flist, shared, max_tau)

    monkeypatch.setattr(local, "_run_to_message", spy)
    vals = validate_compilation(result, mem, mem.domain())
    assert all(v.ok for v in vals)
    assert len(starts) == len(set(starts))
    assert _segments_run(vals) == len(starts)
    # Adjacent passes share their middle stage: far fewer runs than
    # uses (each segment use runs a source and a target side).
    uses = sum(v.report.stats.segments for v in vals)
    assert len(starts) < 2 * uses


def test_calls_share_nothing():
    result, mem = _compiled(SEQ, True)
    first = _segments_run(validate_compilation(result, mem, mem.domain()))
    second = _segments_run(validate_compilation(result, mem, mem.domain()))
    assert first > 0
    assert second == first


def _observed(report):
    stats = dict(vars(report.stats))
    del stats["segments_run"]
    return report.failures, report.skipped, stats


@pytest.mark.parametrize("optimize", [False, True], ids=["O0", "O1"])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_memo_is_invisible(name, optimize):
    result, mem = _compiled(PROGRAMS[name], optimize)
    shared = mem.domain()
    entries = [
        (fname, sample_args(func))
        for fname, func in sorted(result.source.module.functions.items())
    ]
    shared_memo = validate_compilation(result, mem, shared)
    pairs = result.adjacent_pairs()
    pairs.append(("end-to-end", result.source, result.target))
    assert [v.pass_name for v in shared_memo] == [p for p, _s, _t in pairs]
    for v, (_pass, src, tgt) in zip(shared_memo, pairs):
        fresh = validate_pair(src, tgt, entries, mem, shared)
        assert _observed(v.report) == _observed(fresh), v.pass_name


def _mid_stages():
    cases = []
    for optimize in (False, True):
        result, _mem = _compiled(_FAULT_SRC, optimize)
        for index in range(1, len(result.stages) - 1):
            cases.append((optimize, index, result.stages[index].name))
    return cases


@pytest.mark.parametrize(
    "optimize,index,stage", _mid_stages(),
    ids=["{}-{}".format("O1" if o else "O0", n) for o, _i, n in _mid_stages()],
)
def test_mutant_stage_fails_its_two_passes(optimize, index, stage):
    result, mem = _compiled(_FAULT_SRC, optimize)
    good = result.stages[index]
    stages = list(result.stages)
    stages[index] = Stage(good.name, good.lang, _bump_first_one(good.module))
    vals = validate_compilation(CompilationResult(stages), mem,
                                mem.domain())
    into, out_of = stage, result.stages[index + 1].name
    failed = [v.pass_name for v in vals if not v.ok]
    assert failed == [into, out_of]
    for v in vals:
        if not v.ok:
            assert any("message mismatch" in f for f in v.report.failures), (
                v.pass_name, v.report.failures
            )
