"""Tests for the command-line interface (``python -m repro``)."""

import io
import json
import sys

import pytest

from repro.cli import main, make_parser

CLIENT = """
extern void lock();
extern void unlock();
int x = 0;
void inc() {
  int tmp;
  lock();
  tmp = x;
  x ++;
  unlock();
  print(tmp);
}
"""

SEQ = """
int g = 5;
void main() { g = g * 2; print(g); }
"""

RACY = """
int x = 0;
void t1() { x = 1; }
void t2() { x = 2; }
"""


@pytest.fixture
def client_file(tmp_path):
    path = tmp_path / "client.c"
    path.write_text(CLIENT)
    return str(path)


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.c"
    path.write_text(SEQ)
    return str(path)


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY)
    return str(path)


class TestParserMemo:
    def test_one_tree_per_process(self):
        assert make_parser() is make_parser()

    def test_main_twice_with_different_commands(
        self, seq_file, racy_file, capsys
    ):
        assert main(["run", seq_file]) == 0
        assert "print:10" in capsys.readouterr().out.replace(" ", "")
        assert main(["drf", racy_file, "--threads", "t1,t2"]) == 1
        assert "DRF: False" in capsys.readouterr().out
        assert main(["compile", seq_file]) == 0
        assert "Cshmgen" in capsys.readouterr().out

    def test_namespaces_are_independent(self, seq_file, racy_file):
        parser = make_parser()
        first = parser.parse_args(["drf", racy_file, "--threads", "t1,t2"])
        second = parser.parse_args(["run", seq_file, "--max-states", "7"])
        assert first is not second
        assert first.command == "drf" and second.command == "run"
        assert first.threads == "t1,t2" and second.threads == "main"
        assert first.max_states == 400000 and second.max_states == 7
        first.threads = "changed"
        third = parser.parse_args(["drf", racy_file])
        assert third.threads == "main"

    def test_jobs_default_follows_env_on_every_call(
        self, seq_file, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert make_parser().parse_args(["run", seq_file]).jobs == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert make_parser().parse_args(["run", seq_file]).jobs == 1


class TestCompile:
    def test_lists_passes(self, seq_file, capsys):
        assert main(["compile", seq_file]) == 0
        out = capsys.readouterr().out
        assert "Cshmgen" in out and "Asmgen" in out

    def test_optimize_adds_passes(self, seq_file, capsys):
        assert main(["compile", seq_file, "-O"]) == 0
        out = capsys.readouterr().out
        assert "ConstProp" in out and "CSE" in out

    def test_dump_stage(self, seq_file, capsys):
        assert main(["compile", seq_file, "--dump", "RTLgen"]) == 0
        out = capsys.readouterr().out
        assert "RTLgen" in out and "Iconst" in out

    def test_dump_source(self, seq_file, capsys):
        assert main(["compile", seq_file, "--dump", "source"]) == 0
        out = capsys.readouterr().out
        assert "print" in out

    def test_dump_all(self, seq_file, capsys):
        assert main(["compile", seq_file, "--dump", "all"]) == 0
        out = capsys.readouterr().out
        assert "==== Asmgen" in out


class TestRun:
    def test_sequential(self, seq_file, capsys):
        assert main(["run", seq_file]) == 0
        out = capsys.readouterr().out
        assert "print:10" in out and "done" in out

    def test_lock_client_two_threads(self, client_file, capsys):
        assert main([
            "run", client_file, "--lock", "--threads", "inc,inc",
        ]) == 0
        out = capsys.readouterr().out
        assert "print:0,print:1" in out
        assert "print:1,print:0" in out

    def test_run_at_stage(self, seq_file, capsys):
        assert main(["run", seq_file, "--stage", "Asmgen"]) == 0
        out = capsys.readouterr().out
        assert "print:10" in out


class TestStepMemo:
    def test_run_steps_through_memo(self, seq_file, capsys):
        from repro.lang import closure

        closure.clear_cache()
        try:
            assert main(["run", seq_file]) == 0
            assert closure._cache
            cold_out = capsys.readouterr().out
            # A second run is answered from the warm memo, identically.
            assert main(["run", seq_file]) == 0
            assert capsys.readouterr().out == cold_out
        finally:
            closure.clear_cache()

    @pytest.mark.parametrize(
        "flag", ["--closure-compile", "--no-closure-compile"]
    )
    def test_closure_flags_are_gone(self, seq_file, flag, capsys):
        # Stepping has one definition, so there is nothing to switch.
        with pytest.raises(SystemExit) as exc:
            main(["run", seq_file, flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestValidate:
    def test_all_passes_ok(self, client_file, capsys):
        assert main(["validate", client_file, "--lock"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok") >= 13

    def test_each_pass_is_printed_as_it_is_validated(
        self, client_file, monkeypatch
    ):
        from repro.simulation import validate

        class Stdout(io.StringIO):
            flushed = ""

            def flush(self):
                self.flushed = self.getvalue()

        out = Stdout()
        monkeypatch.setattr(sys, "stdout", out)
        before = []
        # validate_compilation checks each pair through _validate_pair
        # (validate_pair's body, with the compilation's segment memo).
        real = validate._validate_pair

        def spy(*args, **kwargs):
            before.append(out.flushed)
            return real(*args, **kwargs)

        monkeypatch.setattr(validate, "_validate_pair", spy)
        assert main(["validate", client_file, "--lock"]) == 0
        lines = out.getvalue().splitlines(True)
        assert len(lines) == len(before) >= 13
        # Before each pass is validated, every earlier pass's line is
        # out: the first is written before the last pass starts.
        for i, text in enumerate(before):
            assert text == "".join(lines[:i])
        assert lines[0] == "{:14s} ok\n".format("Cshmgen")
        assert lines[-1] == "{:14s} ok\n".format("end-to-end")


class TestDrf:
    def test_drf_program(self, client_file, capsys):
        assert main([
            "drf", client_file, "--lock", "--threads", "inc,inc",
        ]) == 0
        assert "DRF: True" in capsys.readouterr().out

    def test_racy_program_exit_code(self, racy_file, capsys):
        assert main(["drf", racy_file, "--threads", "t1,t2"]) == 1
        assert "DRF: False" in capsys.readouterr().out


class TestDrfNpdrfParity:
    """``drf`` and ``npdrf`` are one command: its name picks the
    semantics, and only ``drf`` takes the witness flags."""

    @pytest.mark.parametrize("fixture, flags, code", [
        ("client_file", ["--lock", "--threads", "inc,inc"], 0),
        ("racy_file", ["--threads", "t1,t2"], 1),
    ])
    def test_same_shape_under_both_semantics(
        self, request, fixture, flags, code, tmp_path, capsys
    ):
        path = request.getfixturevalue(fixture)
        for command in ("drf", "npdrf"):
            run = tmp_path / (command + ".json")
            assert main([command, path, *flags, "--ledger", str(run)]) \
                == code
            assert capsys.readouterr().out == "{}: {}\n".format(
                command.upper(), code == 0
            )
            doc = json.loads(run.read_text())
            assert doc["command"] == command
            assert doc["verdict"] == (command if code == 0 else "race")
            assert doc["config"]["max_atomic_steps"] == 64

    def test_only_drf_writes_witnesses(self, racy_file, tmp_path, capsys):
        out = tmp_path / "w.json"
        argv = [racy_file, "--threads", "t1,t2", "--witness-out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(["npdrf"] + argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["drf"] + argv) == 1
        assert "witness: " in capsys.readouterr().out
        assert out.exists()
