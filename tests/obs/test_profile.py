"""The trace report ``repro inspect`` prints for a ``--trace`` file.

Unit tests build synthetic trace files (deterministic timings), so the
assertions can be exact; the CLI integration test drives a real
``drf --jobs 2`` run end-to-end and only asserts structure.
"""

import json

import pytest

from repro.cli import main
from repro.obs import profile as prof

RACY = "int x = 0;\nvoid t1() { x = 1; }\nvoid t2() { x = 2; }\n"


def _write_jsonl(path, records):
    with open(str(path), "w") as handle:
        for rec in records:
            handle.write(json.dumps(rec) + "\n")


@pytest.fixture
def synthetic(tmp_path):
    """A main trace + two worker traces + a metrics snapshot."""
    trace = tmp_path / "t.jsonl"
    metrics = {
        "counters": {
            "parallel.wire.bytes_out": 1000,
            "parallel.wire.bytes_in": 900,
            "parallel.wire.memo_hits": 3,
            "parallel.wire.memo_sends": 7,
        },
        "gauges": {"parallel.merge_seconds": 0.05},
        "histograms": {
            "parallel.wire.batch_worlds": {
                "count": 4, "min": 1, "max": 10, "mean": 5.0,
                "p50": 4, "p95": 9,
            }
        },
    }
    _write_jsonl(
        trace,
        [
            {"type": "meta", "version": 1},
            {
                "type": "span", "name": "parallel.find_race",
                "sid": 1, "parent": None, "ts": 0.0, "dur": 1.0,
            },
            {"type": "metrics", "data": metrics},
        ],
    )
    for wid in (0, 1):
        _write_jsonl(
            str(trace) + ".w{}".format(wid),
            [
                {"type": "meta", "version": 1, "attrs": {"wid": wid}},
                # One idle span in the middle half of the run.
                {
                    "type": "span", "name": "parallel.worker.idle",
                    "sid": 2, "parent": 1, "ts": 0.25, "dur": 0.5,
                    "attrs": {"wid": wid},
                },
                {
                    "type": "span", "name": "parallel.worker.run",
                    "sid": 1, "parent": None, "ts": 0.0, "dur": 1.0,
                    "attrs": {"wid": wid},
                },
                {
                    "type": "event", "name": "parallel.worker.phases",
                    "sid": 3, "parent": None, "ts": 1.0,
                    "attrs": {
                        "wid": wid,
                        "wall_seconds": 1.0,
                        "expand_seconds": 0.4,
                        "encode_seconds": 0.05,
                        "decode_seconds": 0.05,
                        "idle_seconds": 0.5,
                    },
                },
            ],
        )
    return trace


def test_load_profile_finds_workers_and_metrics(synthetic):
    profile = prof.load_profile(str(synthetic))
    assert sorted(profile["workers"]) == [0, 1]
    assert profile["metrics"]["counters"]["parallel.wire.bytes_out"] == 1000


def test_phase_rows_and_coverage(synthetic):
    profile = prof.load_profile(str(synthetic))
    rows, totals = prof.phase_rows(profile)
    assert [r["wid"] for r in rows] == [0, 1]
    for r in rows:
        assert r["coverage"] == pytest.approx(1.0)
    assert totals["wall"] == pytest.approx(2.0)
    assert totals["idle"] == pytest.approx(1.0)


def test_old_compile_seconds_is_ignored(synthetic):
    """Traces written while modules were compiled up front carry a
    ``compile_seconds`` phase; it is neither a column nor an error."""
    path = str(synthetic) + ".w0"
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    records[-1]["attrs"]["compile_seconds"] = 0.3
    _write_jsonl(path, records)
    profile = prof.load_profile(str(synthetic))
    rows, _totals = prof.phase_rows(profile)
    assert "compile" not in rows[0]
    assert rows[0]["coverage"] == pytest.approx(1.0)
    assert "Compile" not in prof.render_profile(profile)


def test_self_time_subtracts_children(synthetic):
    profile = prof.load_profile(str(synthetic))
    agg = prof.self_times(profile)
    count, self_s, total_s, max_s = agg["parallel.worker.run"]
    assert count == 2
    # Each run span (1.0s) contains one 0.5s idle child.
    assert self_s == pytest.approx(1.0)
    assert total_s == pytest.approx(2.0)
    assert max_s == pytest.approx(1.0)


def test_utilization_marks_idle_middle(synthetic):
    profile = prof.load_profile(str(synthetic))
    bars = prof.utilization(profile, width=4)
    assert len(bars) == 2
    for _wid, bar, busy in bars:
        # Busy at the edges, idle in the middle.
        assert bar[0] == "█" and bar[-1] == "█"
        assert bar[1] == "·" and bar[2] == "·"
        assert busy == pytest.approx(0.5)


def test_render_profile_sections(synthetic):
    text = prof.render_profile(prof.load_profile(str(synthetic)))
    assert "per-shard phase breakdown" in text
    assert "per-shard utilization" in text
    assert "top spans by self-time" in text
    assert "wire cost" in text
    assert "parallel.wire.memo_hit_rate" in text
    assert "30.0% (3/10)" in text
    assert "verdict:" in text


def test_metrics_come_from_the_trace_record(synthetic):
    profile = prof.load_profile(str(synthetic))
    assert profile["metrics"]["counters"]["parallel.wire.memo_hits"] == 3


def test_worker_trace_path_ordering(tmp_path):
    trace = tmp_path / "t.jsonl"
    trace.write_text("")
    for wid in (10, 2, 0):
        (tmp_path / "t.jsonl.w{}".format(wid)).write_text("")
    (tmp_path / "t.jsonl.wx").write_text("")  # not a worker file
    paths = prof.worker_trace_paths(str(trace))
    assert [p.rsplit(".w", 1)[-1] for p in paths] == ["0", "2", "10"]


class TestInspectTraceCLI:
    def test_inspect_of_real_parallel_run(self, tmp_path, capsys):
        src = tmp_path / "racy.c"
        src.write_text(RACY)
        trace = tmp_path / "run.jsonl"
        assert main(
            [
                "drf", str(src), "--threads", "t1,t2", "--jobs", "2",
                "--trace", str(trace),
                "--ledger", str(tmp_path / "run.json"),
            ]
        ) == 1  # racy: the finding exit code
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-shard phase breakdown" in out
        assert "wire cost" in out
        # Reading the inputs must not clobber them (the inspect
        # subcommand's positional is not an output trace).
        assert trace.stat().st_size > 0

    def test_compile_phase_and_closure_counters(self, tmp_path, capsys):
        """There is no compile phase column, and the step memo's
        counters flow through the worker metrics merge."""
        src = tmp_path / "racy.c"
        src.write_text(RACY)
        trace = tmp_path / "run.jsonl"
        run = tmp_path / "run.json"
        main(
            [
                "drf", str(src), "--threads", "t1,t2", "--jobs", "2",
                "--trace", str(trace), "--ledger", str(run),
            ]
        )
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Compile" not in out
        assert "Expand" in out
        counters = json.loads(run.read_text())["metrics"]["counters"]
        assert counters.get("closure.modules_staged", 0) > 0

    def test_worker_traces_are_fork_safe_and_wid_stamped(
        self, tmp_path
    ):
        """Every record of every trace file parses (strict mode: the
        pre-fork flush prevented duplicate buffered lines) and every
        worker span/event carries its shard's ``wid``."""
        from repro.obs import profile as prof_mod
        from repro.obs.trace import read_trace

        src = tmp_path / "racy.c"
        src.write_text(RACY)
        trace = tmp_path / "run.jsonl"
        main(
            [
                "drf", str(src), "--threads", "t1,t2", "--jobs", "2",
                "--trace", str(trace),
            ]
        )
        workers = prof_mod.worker_trace_paths(str(trace))
        assert len(workers) == 2
        read_trace(str(trace), strict=True)
        for wid, path in enumerate(workers):
            records = read_trace(path, strict=True)
            assert records[0]["type"] == "meta"
            for rec in records:
                if rec.get("type") in ("span", "event"):
                    assert rec["attrs"]["wid"] == wid, rec

    def test_inspect_missing_trace_is_usage_error(self, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.jsonl")]) == 2



class TestInspectReport:
    """``inspect`` renders a trace as the profile report and a run
    manifest as its fact sheet."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_inspect_renders_a_trace(self, tmp_path, capsys, jobs):
        src = tmp_path / "racy.c"
        src.write_text(RACY)
        trace = tmp_path / "run.jsonl"
        main(["drf", str(src), "--threads", "t1,t2", "--jobs", jobs,
              "--trace", str(trace), "--ledger", str(tmp_path / "r.json")])
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        inspected = capsys.readouterr().out
        assert "top spans by self-time" in inspected
        assert "final metrics:" in inspected
        if jobs == "2":
            assert "per-shard phase breakdown" in inspected

    def test_inspect_renders_a_manifest(self, tmp_path, capsys):
        src = tmp_path / "racy.c"
        src.write_text(RACY)
        run = tmp_path / "run.json"
        main(["drf", str(src), "--threads", "t1,t2", "--ledger",
              str(run)])
        capsys.readouterr()
        assert main(["inspect", str(run)]) == 0
        assert capsys.readouterr().out.startswith(
            "run manifest: command=drf"
        )
