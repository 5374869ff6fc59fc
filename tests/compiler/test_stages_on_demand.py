"""The compiler runs only as far as a stage is read: the source-stage
commands and ``ClientSystem.source_program()`` run no pass, ``run
--stage P`` runs the passes up to ``P``, and a system compiles its
clients once, on the first read of ``results``."""

import json
import os

import pytest

from repro import cli
from repro.cli import main
from repro.compiler import pipeline
from repro.compiler.pipeline import compile_minic, stage_names
from repro.framework import ClientSystem, lock_counter_system
from repro.langs.minic.semantics import MINIC
from repro.obs import ledger

from tests.helpers import EXAMPLES_DIR

RACY = os.path.join(EXAMPLES_DIR, "racy.c")
COUNTER = os.path.join(EXAMPLES_DIR, "counter.c")
QUICKSTART = os.path.join(EXAMPLES_DIR, "quickstart.c")


@pytest.fixture
def passes_run(monkeypatch):
    """The names of the passes run while the test runs, in order."""
    ran = []

    def counted(table):
        def wrap(name, fn):
            def run(module):
                ran.append(name)
                return fn(module)
            return run
        return tuple((name, wrap(name, fn), lang)
                     for name, fn, lang in table)

    monkeypatch.setattr(pipeline, "PASSES", counted(pipeline.PASSES))
    monkeypatch.setattr(
        pipeline, "EXTRA_PASSES", counted(pipeline.EXTRA_PASSES)
    )
    return ran


@pytest.fixture
def no_compile(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compile_minic called")

    monkeypatch.setattr(cli, "compile_minic", refuse)


class TestStageNames:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_names_the_stages_compile_minic_builds(self, optimize):
        module, _genv = cli._build(QUICKSTART, False)
        result = compile_minic(module, optimize=optimize)
        assert stage_names(optimize) == tuple(
            s.name for s in result.stages
        )

    def test_upto_builds_the_prefix_only(self, passes_run):
        module, _genv = cli._build(QUICKSTART, False)
        result = compile_minic(module, upto="RTLgen", optimize=True)
        assert [s.name for s in result.stages] == list(stage_names()[:5])
        assert passes_run == list(stage_names()[1:5])


class TestSourceStageCommands:
    @pytest.mark.parametrize("argv,code,line", [
        (["drf", COUNTER, "--threads", "inc,inc", "--lock"], 0,
         "DRF: True"),
        (["drf", RACY, "--threads", "t1,t2", "-O"], 1, "DRF: False"),
        (["npdrf", RACY, "--threads", "t1,t2"], 1, "NPDRF: False"),
        (["run", QUICKSTART], 0,
         "Behaviour([print:7,print:14,print:0,print:1,print:2], done)"),
        (["run", QUICKSTART, "--stage", "source", "-O"], 0,
         "Behaviour([print:7,print:14,print:0,print:1,print:2], done)"),
    ], ids=["drf", "drf-racy-O", "npdrf", "run", "run-source-O"])
    def test_verdict_without_compiling(self, no_compile, capsys, argv,
                                       code, line):
        assert main(argv) == code
        assert line in capsys.readouterr().out.splitlines()

    def test_replay_without_compiling(self, no_compile, tmp_path,
                                      capsys):
        witness = str(tmp_path / "w.json")
        assert main(["drf", RACY, "--threads", "t1,t2", "-O",
                     "--witness-out", witness, "--minimize"]) == 1
        capsys.readouterr()
        assert main(["replay", RACY, "--witness", witness,
                     "--minimize"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("replay: OK")
        assert "minimized:" in out


def _passes_metric(out):
    rows = [line.split() for line in out.splitlines()]
    return [int(row[1]) for row in rows if row[:1] == ["compile.passes"]]


class TestRunAtAStage:
    @pytest.mark.parametrize("stage,optimize,passes", [
        ("RTLgen", False, 4),
        ("RTLgen", True, 4),
        ("Asmgen", False, 12),
        ("CSE", True, 8),
        ("Asmgen", True, 15),
    ])
    def test_compiles_through_the_stage(self, capsys, stage, optimize,
                                        passes):
        argv = ["run", QUICKSTART, "--stage", stage, "--metrics"]
        assert main(argv + (["-O"] if optimize else [])) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "Behaviour([print:7,print:14,print:0,print:1,print:2], done)"
        )
        assert _passes_metric(out) == [passes]

    def test_source_stage_reads_no_pass(self, capsys):
        assert main(["run", QUICKSTART, "--metrics"]) == 0
        assert _passes_metric(capsys.readouterr().out) == []


class TestLedgerIdentity:
    @pytest.mark.parametrize("optimize", [False, True])
    def test_pipeline_and_hash_match_the_compiled_stages(
        self, tmp_path, capsys, optimize
    ):
        out = tmp_path / "run.json"
        argv = ["drf", RACY, "--threads", "t1,t2", "--ledger", str(out)]
        assert main(argv + (["-O"] if optimize else [])) == 1
        doc = json.loads(out.read_text())
        module, _genv = cli._build(RACY, False)
        names = [
            s.name for s in compile_minic(module, optimize=optimize).stages
        ]
        gates = ("por",) if doc["config"]["por"] else ()
        assert doc["pipeline"] == names
        assert doc["content_hash"] == ledger.content_hash(
            RACY, names, gates
        )


class TestClientSystem:
    def test_source_program_runs_no_pass(self, passes_run):
        system = lock_counter_system(2)
        program = system.source_program()
        assert program.modules[0].lang is MINIC
        system.initial_memory()
        system.shared()
        assert passes_run == []

    def test_results_compile_once(self, passes_run):
        system = ClientSystem(
            ["int g = 0; void main() { g = 1; }"], ["main"],
            optimize=True,
        )
        first = system.results
        assert passes_run == list(stage_names(True)[1:])
        del passes_run[:]
        assert system.results is first
        system.sc_program()
        system.tso_program()
        system.stage_program("RTLgen")
        assert passes_run == []
