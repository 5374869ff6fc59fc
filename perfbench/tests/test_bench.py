"""Tests of the suite benchmark, at tiny scale (a few seconds).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

#: Every workload at the smallest size that still runs each task kind.
TINY = {
    "explore-full": dict(nthreads=2),
    "drf-por": dict(threads=2),
    "lock-clients": dict(count=4),
    "validate-seq": dict(count=2),
    "thm15-tso": dict(nthreads=2),
    "parallel-j2": dict(threads=2, fuzz_count=4),
}


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                out[name] = handle.read()
    return out


def test_same_seed_writes_byte_identical_inputs(tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    workloads.lock_clients(7, str(dirs[0]), count=6)
    workloads.lock_clients(7, str(dirs[1]), count=6)
    workloads.lock_clients(8, str(dirs[2]), count=6)
    assert _files(dirs[0]) == _files(dirs[1])
    assert _files(dirs[0]) != _files(dirs[2])


def test_validate_seq_seed_only_permutes_a_fixed_draw(tmp_path):
    first = workloads.validate_seq(1, str(tmp_path), count=6)[0]
    again = workloads.validate_seq(1, str(tmp_path), count=6)[0]
    other = workloads.validate_seq(2, str(tmp_path), count=6)[0]

    def files(tasks):
        return [t.run.__defaults__[0][1] for t in tasks]

    assert files(first) == files(again)
    assert sorted(files(first)) == sorted(files(other))


def test_harness_imports_no_program_module_before_setup():
    # setup_s must hold only the program imports the workload needs.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, run, worker, workloads; "
         "print(sorted(m for m in sys.modules if m.startswith('repro')))"],
        cwd=BENCH_DIR, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


def _write_runs(path, workload, values):
    with open(path, "w") as handle:
        for value in values:
            metrics = {"setup_s": 0.2, "task_s_gmean": value,
                       "tasks_per_s": 1 / value, "peak_rss_mib": 50.0}
            handle.write(json.dumps(
                {"workload": workload, "trace": 0, "end_to_end": metrics}
            ) + "\n")


@pytest.mark.parametrize("base, new, verdict", [
    ([1.00, 1.01, 0.99, 1.00, 1.02], [1.01, 1.00, 0.99, 1.02, 1.00], "ok"),
    ([1.00, 1.01, 0.99, 1.00, 1.02], [1.30, 1.31, 1.29, 1.30, 1.32],
     "regressed"),
    ([1.00, 1.01, 0.99, 1.00, 1.02], [0.80, 0.81, 0.79, 0.80, 0.82],
     "improved"),
    ([1.00, 1.60, 0.60, 1.00, 1.40], [1.00, 1.50, 0.70, 1.20, 0.90],
     "unresolved"),
    ([1.00, 1.60, 0.60, 1.00, 1.40], [0.30, 0.50, 0.20, 0.40, 0.35],
     "improved"),
])
def test_compare_verdicts(tmp_path, capsys, base, new, verdict):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_runs(a, "w", base)
    _write_runs(b, "w", new)
    status = run.compare(str(a), str(b), run.load_benchmark())
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("w ") and " task_s_gmean " in line]
    assert len(rows) == 1 and " {} ".format(verdict) in rows[0] + " "
    assert status == (1 if verdict == "regressed" else 0)


def test_compare_flags_a_workload_missing_on_one_side(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write_runs(a, "w", [1.0, 1.0])
    _write_runs(b, "v", [1.0, 1.0])
    assert run.compare(str(a), str(b), run.load_benchmark()) == 1
    assert "missing on one side" in capsys.readouterr().out


def test_wrong_answer_and_exception_count_as_failures(tmp_path):
    rounds = workloads.explore_full(0, str(tmp_path), nthreads=2,
                                    answer=(796, "0000000000000000"))

    def boom():
        raise RuntimeError("broken task")

    rounds[0].append(workloads.Task("boom", boom, lambda got: None))
    results = worker.run_rounds(rounds, seconds=0.0)
    assert [r["kind"] for r in results] == ["explore", "boom"]
    assert "fingerprint" in results[0]["error"]
    assert "broken task" in results[1]["error"]
    doc = {"tasks": results, "setup_samples": [[0.1, 0.009]],
           "peak_rss_mib": 1.0, "trace": 0}
    doc = run.summarize(doc, run.load_benchmark())
    assert doc["failed"] == 2 and doc["attempted"] == 2
    assert json.loads(run.result_line([doc]))["correct"] is False


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_task_answers_correctly_at_tiny_scale(tmp_path, name):
    rounds = workloads.WORKLOADS[name](5, str(tmp_path), **TINY[name])
    results = worker.run_rounds(rounds[:1], seconds=0.0)
    assert results and all(r["error"] is None for r in results), results


def test_traced_run_yields_every_per_layer_metric(tmp_path):
    rounds = workloads.lock_clients(3, str(tmp_path), count=2)
    _results, report = worker.traced_half(
        rounds, 0.0, str(tmp_path / "spans.jsonl")
    )
    report["metrics"]["trace.overhead"] = 1.0
    wanted = [m["name"] for m in run.load_benchmark()["per_layer"]]
    assert sorted(set(wanted) - set(report["metrics"])) == []
    layers_seen = {row["layer"] for row in report["rows"]}
    assert {"front", "compile", "race", "witness.minimize",
            "witness.replay"} <= layers_seen
    with open(tmp_path / "spans.jsonl") as handle:
        spans = [json.loads(line) for line in handle]
    assert spans[0]["name"] == "task" and spans[0]["parent"] == -1


def test_entry_points_are_restored_after_tracing():
    from repro import cli, obs

    before = (cli.find_race, obs.shutdown)
    with layers.traced(layers.Tracing()):
        assert cli.find_race is not before[0]
    assert (cli.find_race, obs.shutdown) == before


def test_benchmark_file_follows_the_schema():
    bench = run.load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert set(w["name"] for w in bench["workloads"]) == set(
        workloads.WORKLOADS
    )
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert max(bench["end_to_end"], key=lambda m: m["bound"])["name"] == \
        "setup_s"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drf-por",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
