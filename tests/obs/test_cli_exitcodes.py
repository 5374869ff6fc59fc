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


TRUNCATED_WITNESS = '{"type": "witness", "sched'
TRUNCATED_LEDGER = '{\n  "command": "drf",\n  "config": {\n    "por'
TRUNCATED_MINIC = "int x = 0;\nvoid t1() { x = "

#: A cut-off, malformed or missing input to each reader must fail as a
#: user-input error. ``{f}`` is the garbled file (not created when its
#: text is ``None``), ``{racy}`` a well-formed program.
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
    pytest.param("a.json", '{\n  "unknown": 1\n}\n', ["inspect", "{f}"],
                 id="unknown-document-inspect"),
    pytest.param(None, None, ["run", "{f}"], id="missing-file-run"),
    pytest.param(None, None, ["inspect", "{f}"],
                 id="missing-file-inspect"),
]


class TestGarbledInput:
    @pytest.mark.parametrize("name,text,argv", GARBLED)
    def test_one_line_usage_error(self, racy_file, tmp_path, capsys,
                                  name, text, argv):
        path = tmp_path / (name or "missing")
        if text is not None:
            path.write_text(text)
        argv = [a.format(f=path, racy=racy_file) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("repro: error: "), err


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
