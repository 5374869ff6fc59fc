"""CLI contract tests for PR 5: documented exit codes (0 = ok/DRF,
1 = finding, 2 = usage/internal error), ``--threads`` hygiene,
``--jobs`` plumbing and the witness-metadata ``max_atomic_steps``
bugfix."""

import json
import os

import pytest

from repro.cli import main

from tests.helpers import EXAMPLES_DIR

RACY = """
int x = 0;
void t1() { x = 1; }
void t2() { x = 2; }
"""

SAFE = """
int g = 0;
void main() { g = 1; print(g); }
"""


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY)
    return str(path)


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.c"
    path.write_text(SAFE)
    return str(path)


class TestThreadsParsing:
    def test_whitespace_around_entries_accepted(self, racy_file,
                                                capsys):
        assert main(["drf", racy_file, "--threads", "t1, t2"]) == 1
        assert "DRF: False" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["t1,t2,", ",t1", "t1,,t2", " ,"])
    def test_empty_entries_rejected(self, racy_file, spec, capsys):
        assert main(["drf", racy_file, "--threads", spec]) == 2
        err = capsys.readouterr().err
        assert "repro: error" in err and "--threads" in err

    def test_unknown_entry_rejected_with_candidates(self, racy_file,
                                                    capsys):
        assert main(["drf", racy_file, "--threads", "t1,bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        # A clean argparse-style message listing the known entries,
        # not a raw traceback from deep inside thread creation.
        assert "known entries" in err and "t1" in err

    def test_run_checks_threads_too(self, racy_file, capsys):
        assert main(["run", racy_file, "--threads", "t1,"]) == 2
        assert main(["run", racy_file, "--threads", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err

    def test_replay_checks_threads_too(self, racy_file, tmp_path,
                                       capsys):
        out = tmp_path / "w.json"
        assert main(["drf", racy_file, "--threads", "t1,t2",
                     "--witness-out", str(out)]) == 1
        assert main(["replay", racy_file, "--witness", str(out),
                     "--threads", "t1,t2,"]) == 2
        capsys.readouterr()


class TestExitCodes:
    def test_zero_on_drf(self, safe_file, capsys):
        assert main(["drf", safe_file]) == 0
        assert "DRF: True" in capsys.readouterr().out

    def test_one_on_race(self, racy_file, capsys):
        assert main(["drf", racy_file, "--threads", "t1,t2"]) == 1
        capsys.readouterr()

    def test_two_on_minimize_without_witness_out(self, racy_file,
                                                 capsys):
        assert main(["drf", racy_file, "--threads", "t1,t2",
                     "--minimize"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "repro: error: --minimize needs --witness-out\n"

    @pytest.mark.parametrize("flag", ["--trace", "--ledger"])
    def test_two_on_unwritable_record_path_before_the_run(
        self, safe_file, tmp_path, capsys, flag
    ):
        missing = tmp_path / "missing"
        path = missing / "record.json"
        assert main(["drf", safe_file, flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no verdict: the command did not run
        assert err == (
            "repro drf: error: argument {}: cannot write {!r}: no such "
            "directory {!r}\n".format(flag, str(path), str(missing))
        )
        assert not missing.exists()

    @pytest.mark.parametrize("flag", ["--trace", "--ledger"])
    def test_two_on_directory_record_path_before_the_run(
        self, safe_file, tmp_path, capsys, flag
    ):
        assert main(["drf", safe_file, flag, str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "repro drf: error: argument {}: cannot write {!r}: is a "
            "directory\n".format(flag, str(tmp_path))
        )

    def test_two_on_one_path_for_trace_and_ledger(self, racy_file,
                                                  tmp_path, capsys):
        # The manifest would overwrite the trace: refuse before the run.
        path = tmp_path / "record.json"
        assert main(["drf", racy_file, "--threads", "t1,t2", "--trace",
                     str(path), "--ledger", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "repro drf: error: argument --ledger: cannot write {!r}: it "
            "is the --trace file too\n".format(str(path))
        )
        assert not path.exists()

    def test_zero_on_vacuous_validation(self, tmp_path, capsys):
        # A pointer parameter with no shared global to point at: the
        # entry is not run, so no pass reads ok, and none failed.
        path = tmp_path / "ptr.c"
        path.write_text("void f(int *p) { *p = 1; print(*p); }\n")
        assert main(["validate", str(path), "-O"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        for line in lines:
            name, status = line.split(None, 1)
            assert status == (
                "vacuous: f not run (pointer parameter, no shared global)"
            ), line
        assert lines[-1].startswith("end-to-end ")

    def test_zero_on_run(self, safe_file, capsys):
        assert main(["run", safe_file]) == 0
        capsys.readouterr()

    def test_two_on_internal_error(self, tmp_path, capsys):
        missing = str(tmp_path / "does-not-exist.c")
        assert main(["drf", missing]) == 2
        # A missing input file is a user-input error, not a crash.
        assert "repro: error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["drf", "npdrf"])
    def test_two_on_exceeded_state_bound(self, command, capsys):
        # An exceeded bound is an inconclusive verdict, not a crash:
        # one line naming the bound and the flag that raises it.
        counter = os.path.join(EXAMPLES_DIR, "counter.c")
        assert main([command, counter, "--threads", "inc,inc,inc",
                     "--lock", "--max-states", "50"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "repro: inconclusive: state bound 50 exceeded; raise "
            "--max-states to explore further"
        ]

    def test_run_two_on_exceeded_state_bound(self, capsys):
        # run keeps the same contract as drf: no 'cut' behaviours
        # printed as if they were an answer.
        counter = os.path.join(EXAMPLES_DIR, "counter.c")
        assert main(["run", counter, "--threads", "inc,inc", "--lock",
                     "--max-states", "50"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "repro: inconclusive: state bound 50 exceeded; raise "
            "--max-states to explore further"
        ]

    def test_run_two_on_behaviour_node_cap(self, monkeypatch, capsys):
        # The enumeration cap has no flag, so the line names no flag.
        import importlib

        explore = importlib.import_module("repro.semantics.explore")
        monkeypatch.setattr(explore, "MAX_BEHAVIOUR_NODES", 40)
        counter = os.path.join(EXAMPLES_DIR, "counter.c")
        assert main(["run", counter, "--threads", "inc,inc",
                     "--lock"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "repro: inconclusive: behaviour enumeration bound of 40 "
            "nodes exceeded"
        ]

    def test_run_long_traces_stay_cut(self, tmp_path, capsys):
        # A trace longer than the event cap (10) is a 'cut' behaviour,
        # not an inconclusive run.
        src = tmp_path / "long.c"
        src.write_text(
            "void main() { int i = 0; "
            "while (i < 12) { print(i); i = i + 1; } }\n"
        )
        assert main(["run", str(src)]) == 0
        assert "cut" in capsys.readouterr().out

    def test_two_on_bad_witness_file(self, racy_file, tmp_path,
                                     capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["replay", racy_file, "--witness",
                     str(bad)]) == 2
        assert "repro: error: cannot load witness" in \
            capsys.readouterr().err

    def test_usage_errors_exit_two_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["drf", "{racy}", "--max-states", "-5"],
        ["npdrf", "{racy}", "--max-states", "-1"],
        ["run", "{racy}", "--max-states", "-1"],
        ["drf", "{racy}", "--max-atomic-steps", "-1"],
        ["fuzz", "--out", "{dir}", "--count", "-1"],
        ["fuzz", "--out", "{dir}", "--max-states", "-1"],
        ["fuzz", "--out", "{dir}", "--max-events", "-1"],
        ["fuzz", "--out", "{dir}", "--minimize-rounds", "-1"],
        ["fuzz", "--out", "{dir}", "--minimize-seconds", "-0.5"],
        ["fuzz", "--out", "{dir}", "--duration", "-1"],
        ["compare", "{racy}", "{racy}", "--fail-on-regression",
         "--tolerance", "-0.5"],
        ["validate", "{racy}", "--max-failures", "-1"],
    ], ids=lambda argv: "{}{}".format(argv[0], argv[-2]))
    def test_negative_bound_is_a_usage_error(self, racy_file, tmp_path,
                                             capsys, argv):
        out = tmp_path / "corpus"
        argv = [a.format(racy=racy_file, dir=out) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert errors == [
            "repro {}: error: argument {}: must be non-negative, got {}"
            .format(argv[0], argv[-2], argv[-1])
        ], err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["drf", "{racy}", "--jobs", "0"],
        ["drf", "{racy}", "--jobs", "-3"],
        ["fuzz", "--out", "{dir}", "--jobs", "0"],
        ["fuzz", "--out", "{dir}", "--jobs", "-3"],
    ], ids=lambda argv: "{}{}".format(argv[0], argv[-1]))
    def test_jobs_below_one_is_a_usage_error(self, racy_file, tmp_path,
                                             capsys, argv):
        out = tmp_path / "corpus"
        argv = [a.format(racy=racy_file, dir=out) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out_text, err = capsys.readouterr()
        assert out_text == ""
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert errors == [
            "repro {}: error: argument -j/--jobs: must be at least 1, "
            "got {}".format(argv[0], argv[-1])
        ], err
        assert not out.exists()

    @pytest.mark.parametrize("argv,why", [
        (["run", "{safe}", "--stage", "Bogus"], "unknown stage 'Bogus'"),
        (["compile", "{safe}", "--dump", "Bogus"],
         "unknown stage 'Bogus'"),
        (["run", "{safe}", "--stage", "CSE"], "stage 'CSE' needs -O"),
    ], ids=["run-stage", "compile-dump", "run-stage-without-O"])
    def test_unknown_stage_is_a_usage_error(self, safe_file, monkeypatch,
                                            capsys, argv, why):
        from repro import cli

        def refuse(*args, **kwargs):
            raise AssertionError("compile_minic called")

        # The name is checked before any pass runs.
        monkeypatch.setattr(cli, "compile_minic", refuse)
        argv = [a.format(safe=safe_file) for a in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith(
            "repro {}: error: argument {}: {}; valid stages: source, "
            "Cshmgen, ".format(argv[0], argv[2], why)
        ), err
        assert "Asmgen" in lines[0]
        assert lines[0].endswith("(-O adds ConstProp, CSE, Deadcode)")

    def test_zero_bound_is_accepted(self, tmp_path, capsys):
        assert main(["fuzz", "--out", str(tmp_path / "c"), "--count",
                     "0", "--kinds", "cimp-pair"]) == 0
        assert "0 input(s) executed" in capsys.readouterr().out


TRUNCATED_WITNESS = '{"type": "witness", "sched'

#: A well-formed race witness for ``RACY`` (``t1`` and ``t2``).
WITNESS = {
    "type": "witness",
    "version": 1,
    "verdict": "race",
    "minimized": False,
    "schedule": {
        "init": 0,
        "semantics": "preemptive",
        "por": False,
        "steps": [
            {"i": 0, "tid": 0, "to": 0, "k": "tau", "rs": [], "ws": []},
            {"i": 1, "tid": 0, "to": 1, "k": "sw"},
            {"i": 0, "tid": 1, "to": 1, "k": "tau", "rs": [], "ws": []},
        ],
    },
    "race": {"tid1": 0, "rs1": [], "ws1": [16], "bit1": 0,
             "tid2": 1, "rs2": [], "ws2": [16], "bit2": 0},
    "program": {"threads": "t1,t2"},
    "meta": {"max_atomic_steps": 64},
}


def _witness_with(path, value):
    """``WITNESS`` as JSON text with the field at dotted ``path`` set
    to ``value`` (a ``None`` value deletes the field)."""
    doc = json.loads(json.dumps(WITNESS))
    *parents, name = path.split(".")
    rec = doc
    for key in parents:
        rec = rec[int(key)] if isinstance(rec, list) else rec[key]
    if value is None:
        del rec[name]
    else:
        rec[name] = value
    return json.dumps(doc)


#: Witnesses that parse but carry a wrong-typed field, with the field
#: the error must name.
WRONG_TYPED_WITNESSES = [
    ("schedule.init", "zero", "schedule.init"),
    ("schedule.steps", "abc", "schedule.steps"),
    ("schedule.semantics", "bogus", "schedule.semantics"),
    ("program", [], "program"),
    ("program.threads", 5, "program.threads"),
    ("schedule.steps.0.i", None, "schedule.steps[0].i"),
    ("meta.max_atomic_steps", "x", "meta.max_atomic_steps"),
    ("race", None, "race"),
    ("race.ws1", [None], "race.ws1"),
]
TRUNCATED_LEDGER = '{\n  "command": "drf",\n  "config": {\n    "por'
TRUNCATED_MINIC = "int x = 0;\nvoid t1() { x = "

def _checkpoint_with(done):
    """A fuzz checkpoint document whose ``payload.done`` is ``done``."""
    return json.dumps({
        "type": "fuzz-checkpoint",
        "version": 1,
        "payload": {
            "generator_version": 1, "seed": 0, "count": 1,
            "kinds": ["minic-seq"], "done": done,
        },
    })


FUZZ_RESUME = ["fuzz", "--out", "{dir}", "--count", "1",
               "--kinds", "minic-seq"]

def _manifest_with(**fields):
    """A run manifest document carrying ``fields``."""
    return json.dumps(dict({"type": "run-manifest", "version": 1},
                           **fields))


#: Wrong-typed run-manifest fields: ``(field, fields)``.
WRONG_TYPED_MANIFESTS = [
    ("phases", {"phases": [1, 2]}),
    ("metrics.counters", {"metrics": {"counters": {"a": "x"}}}),
    ("wall_seconds", {"wall_seconds": "x"}),
    ("states", {"states": [5]}),
]

#: Every command that reads a run manifest, with its argv.
MANIFEST_READERS = [
    ("inspect", ["inspect", "{f}"]),
    ("compare", ["compare", "{f}", "{f}"]),
]


def _running_with(**progress):
    """A running ledger whose progress block carries ``progress``."""
    return _manifest_with(status="running", progress=progress)


#: Documents that parse but are wrong, with the field the one-line
#: error must name (``None``: the document is not an object at all).
WRONG_DOCUMENTS = [
    pytest.param("run.json", _running_with(shards=[1, 2]),
                 ["inspect", "{f}"], "progress.shards",
                 id="progress-shards"),
    pytest.param("run.json", _running_with(states="x"),
                 ["inspect", "{f}"], "progress.states",
                 id="progress-states-not-a-number"),
    pytest.param("run.json",
                 _running_with(shards=[{"wid": 0, "beats": "x"}]),
                 ["inspect", "{f}"], "progress.shards[].beats",
                 id="progress-shard-beats-not-a-number"),
    pytest.param("run.json",
                 _running_with(shards=[{"wid": "w0", "beats": 1}]),
                 ["inspect", "{f}"], "progress.shards[].wid",
                 id="progress-shard-wid-not-a-number"),
    pytest.param("run.json", _manifest_with(progress=[1]),
                 ["inspect", "{f}"], "progress",
                 id="progress-not-an-object"),
    pytest.param("checkpoint.json", _checkpoint_with("x"), FUZZ_RESUME,
                 "payload.done", id="fuzz-checkpoint-done"),
    pytest.param("findings.json", "[1, 2]", FUZZ_RESUME, None,
                 id="fuzz-findings-array"),
] + [
    pytest.param("run.json", _manifest_with(**fields), argv, field,
                 id="manifest-{}-{}".format(field, command))
    for field, fields in WRONG_TYPED_MANIFESTS
    for command, argv in MANIFEST_READERS
]

#: A cut-off, malformed or missing input to each reader must fail as a
#: user-input error. ``{f}`` is the garbled file (not created when its
#: text is ``None``), ``{dir}`` its directory, ``{racy}`` a well-formed
#: program.
GARBLED = [
    pytest.param("w.json", TRUNCATED_WITNESS, ["inspect", "{f}"],
                 id="witness-inspect"),
    pytest.param("w.json", TRUNCATED_WITNESS,
                 ["replay", "{racy}", "--witness", "{f}"],
                 id="witness-replay"),
    pytest.param("run.json", TRUNCATED_LEDGER, ["inspect", "{f}"],
                 id="ledger-inspect"),
    pytest.param("p.c", TRUNCATED_MINIC, ["run", "{f}"], id="minic-run"),
    pytest.param("p.c", TRUNCATED_MINIC, ["drf", "{f}"], id="minic-drf"),
    pytest.param("p.c", TRUNCATED_MINIC, ["validate", "{f}"],
                 id="minic-validate"),
    pytest.param("p.c", "void main() { y = 1; }\n", ["run", "{f}"],
                 id="minic-type-error"),
    pytest.param("p.c", TRUNCATED_MINIC, ["npdrf", "{f}"],
                 id="minic-npdrf"),
    pytest.param("w.json", "[1, 2]",
                 ["replay", "{racy}", "--witness", "{f}"],
                 id="witness-not-an-object"),
    pytest.param("a.json", "[1, 2]", ["inspect", "{f}"],
                 id="json-array-inspect"),
    pytest.param("a.json", "", ["inspect", "{f}"], id="empty-inspect"),
    pytest.param("a.json", '"str"', ["inspect", "{f}"],
                 id="json-string-inspect"),
    pytest.param("a.json", '{\n  "unknown": 1\n}\n', ["inspect", "{f}"],
                 id="unknown-document-inspect"),
    pytest.param(None, None, ["run", "{f}"], id="missing-file-run"),
    pytest.param(None, None, ["inspect", "{f}"],
                 id="missing-file-inspect"),
    pytest.param("t.jsonl", "garbage\n", ["inspect", "{f}"],
                 id="garbage-inspect"),
] + [
    pytest.param(
        "w.json", _witness_with(path, value), argv,
        id="witness-{}-{}".format(field, command),
    )
    for path, value, field in WRONG_TYPED_WITNESSES
    for command, argv in (
        ("replay", ["replay", "{racy}", "--witness", "{f}",
                    "--threads", "t1,t2"]),
        ("inspect", ["inspect", "{f}"]),
    )
] + [
    pytest.param(*param.values[:3], id=param.id)
    for param in WRONG_DOCUMENTS
]


class TestGarbledInput:
    @pytest.mark.parametrize("name,text,argv", GARBLED)
    def test_one_line_usage_error(self, racy_file, tmp_path, capsys,
                                  name, text, argv):
        path = tmp_path / (name or "missing")
        if text is not None:
            path.write_text(text)
        argv = [
            a.format(f=path, dir=tmp_path, racy=racy_file) for a in argv
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("repro: error: "), err

    @pytest.mark.parametrize("name,text,argv,field", WRONG_DOCUMENTS)
    def test_error_names_file_and_field(self, tmp_path, capsys, name,
                                        text, argv, field):
        path = tmp_path / name
        path.write_text(text)
        assert main([a.format(f=path, dir=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert name in err, err
        if field is None:
            assert "not a JSON object" in err, err
        else:
            assert "field '{}'".format(field) in err, err


class TestManifestFieldTypes:
    @pytest.mark.parametrize("verb,argv", [
        ("inspect", ["inspect", "{f}"]),
        ("load run manifest", ["compare", "{f}", "{f}"]),
    ])
    def test_one_line_names_verb_file_and_field(self, tmp_path, capsys,
                                                verb, argv):
        path = tmp_path / "run.json"
        path.write_text(_manifest_with(phases=[1, 2]))
        assert main([a.format(f=path) for a in argv]) == 2
        assert capsys.readouterr().err == (
            "repro: error: cannot {} {}: field 'phases' is not an "
            "object of numbers\n".format(verb, path)
        )


class TestWitnessFieldTypes:
    def test_well_formed_witness_replays(self, racy_file, tmp_path,
                                         capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(WITNESS))
        assert main(["replay", racy_file, "--witness", str(path)]) == 0
        assert "replay: OK" in capsys.readouterr().out

    @pytest.mark.parametrize("path,value,field", WRONG_TYPED_WITNESSES)
    def test_error_names_the_field(self, racy_file, tmp_path, capsys,
                                   path, value, field):
        w = tmp_path / "w.json"
        w.write_text(_witness_with(path, value))
        assert main(["replay", racy_file, "--witness", str(w),
                     "--threads", "t1,t2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "repro: error: cannot load witness {}: {}: ".format(w, field)
        ), err


class TestTraceInput:
    def test_trace_with_a_good_record_still_renders(self, racy_file,
                                                    tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["run", racy_file, "--threads", "t1,t2",
                     "--trace", str(trace)]) == 0
        with open(trace, "a") as handle:
            handle.write("garbage\n")
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        out, err = capsys.readouterr()
        assert "profile: {}".format(trace) in out
        assert "skipped 1 corrupt line(s)" in err


class TestJobsFlag:
    def test_drf_jobs_verdicts_match(self, racy_file, safe_file,
                                     capsys):
        assert main(["drf", racy_file, "--threads", "t1,t2",
                     "--jobs", "2"]) == 1
        assert main(["drf", safe_file, "--jobs", "2"]) == 0
        capsys.readouterr()

    def test_run_jobs_output_matches_sequential(self, racy_file,
                                                capsys):
        assert main(["run", racy_file, "--threads", "t1,t2"]) == 0
        seq = capsys.readouterr().out
        assert main(["run", racy_file, "--threads", "t1,t2",
                     "--jobs", "2"]) == 0
        par = capsys.readouterr().out
        assert seq == par

    def test_parallel_witness_replays(self, racy_file, tmp_path,
                                      capsys):
        out = tmp_path / "w.json"
        assert main(["drf", racy_file, "--threads", "t1,t2",
                     "--jobs", "2", "--witness-out", str(out)]) == 1
        assert main(["replay", racy_file, "--witness",
                     str(out)]) == 0
        assert "replay: OK" in capsys.readouterr().out

    def test_env_default(self, racy_file, capsys, monkeypatch):
        from repro.cli import make_parser

        monkeypatch.setenv("REPRO_JOBS", "3")
        args = make_parser().parse_args(
            ["drf", racy_file, "--threads", "t1,t2"]
        )
        assert args.jobs == 3


class TestWitnessMeta:
    def test_meta_records_actual_bound(self, racy_file, tmp_path,
                                       capsys):
        out = tmp_path / "w.json"
        assert main(["drf", racy_file, "--threads", "t1,t2",
                     "--max-atomic-steps", "16",
                     "--witness-out", str(out)]) == 1
        record = json.loads(out.read_text())
        # The bugfix: previously hardcoded to 64 regardless of the
        # semantics' configured horizon.
        assert record["meta"]["max_atomic_steps"] == 16
        assert main(["replay", racy_file, "--witness",
                     str(out)]) == 0
        capsys.readouterr()


class TestNpdrfCommand:
    def test_zero_when_npdrf(self, safe_file, capsys):
        assert main(["npdrf", safe_file]) == 0
        assert "NPDRF: True" in capsys.readouterr().out

    def test_one_on_nonpreemptive_race(self, racy_file, capsys):
        assert main(["npdrf", racy_file, "--threads", "t1,t2"]) == 1
        assert "NPDRF: False" in capsys.readouterr().out

    def test_ledger_records_npdrf_verdict(self, safe_file, tmp_path,
                                          capsys):
        out = tmp_path / "run.json"
        assert main(["npdrf", safe_file, "--ledger", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "npdrf"
        assert doc["verdict"] == "npdrf"
        assert doc["config"]["max_atomic_steps"] == 64
