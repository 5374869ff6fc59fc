"""Suite benchmark: time to verdict, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]
                             [--out FILE]
    python3 perfbench/run.py compare A.jsonl B.jsonl

Each workload runs in a fresh worker process (``worker.py``) for about
``--seconds``, then the set-up alone is repeated in further processes
and ``setup_s`` is the median. The last line printed is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
``--out`` appends the full result document to a JSON-lines file;
``compare`` judges two such files against the bounds in
BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from worker import REF_CALIB_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Set-ups per run: the worker's own plus this many set-up-only ones.
SETUP_PROBES = 4

#: Every run must end within this many seconds.
RUN_BUDGET = 170.0

#: The program's gates, pinned to their defaults in every worker so a
#: stray environment variable cannot change what is measured.
PINNED_ENV = {"REPRO_POR": "1", "REPRO_CLOSURE": "1", "REPRO_JOBS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here or a worker broke."""


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read {}: {}".format(path, exc))


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _worker_env(workdir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    return env


def _spawn(argv, workdir, timeout):
    """Run ``worker.py ARGV`` in its own session; its JSON document."""
    proc = subprocess.Popen(
        [sys.executable, WORKER] + argv, cwd=ROOT, env=_worker_env(workdir),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker timed out after {:.0f} s".format(timeout))
    finally:
        # Forked pools belong to the worker's session: none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited {}".format(proc.returncode))
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    """One workload: the worker's document plus runner context."""
    began = perf_counter()
    workdir = os.path.join(ROOT, ".perfbench_work", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "tmp"))
    argv = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--work", workdir, "--trace", str(trace)]
    doc = _spawn(argv, workdir, RUN_BUDGET - (perf_counter() - began))
    setups = [doc]
    for _ in range(SETUP_PROBES):
        left = RUN_BUDGET - (perf_counter() - began)
        if left < 20.0:
            break
        setups.append(_spawn(argv + ["--setup-only"], workdir, left))
    doc.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_samples": [[s["setup_s"], s["calib_s"]] for s in setups],
        "calib_s": statistics.median(t["calib_s"] for t in doc["tasks"]),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
    })
    return doc


def normalised(seconds, calib_s):
    """``seconds`` at reference runner speed: what they would have been
    where the calibration loop takes ``REF_CALIB_S``."""
    return seconds * REF_CALIB_S / calib_s


def task_times(doc):
    """Every untraced task's normalised time."""
    return [normalised(t["wall_s"], t["calib_s"]) for t in doc["tasks"]]


def end_to_end(doc):
    """The end-to-end metric values of one worker document."""
    times = task_times(doc)
    return {
        "setup_s": statistics.median(
            normalised(s, c) for s, c in doc["setup_samples"]
        ),
        "task_s_gmean": statistics.geometric_mean(times),
        "tasks_per_s": len(times) / sum(times),
        "peak_rss_mib": doc["peak_rss_mib"],
    }


def summarize(doc, bench):
    """Attach the metrics BENCHMARK.json asks for and the counts."""
    tasks = doc["tasks"] + doc.get("traced_tasks", [])
    failed = [t for t in tasks if t["error"] is not None]
    doc["end_to_end"] = values = end_to_end(doc)
    wanted = bench["end_to_end"]
    if doc["trace"]:
        values = doc["layers"]["metrics"]
        wanted = bench["per_layer"]
    doc["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    doc["attempted"] = len(tasks)
    doc["failed"] = len(failed)
    doc["errors"] = [t["error"] for t in failed[:5]]
    return doc


def render(doc):
    """Human-readable report of one workload (printed before the JSON)."""
    lines = [
        "== {workload}  seed {seed}  {seconds:g} s  trace {trace}: "
        "{attempted} task(s), {failed} failed".format(**doc),
        "   runner: calib_s {:.4f}  cpu_count {}  python {}  gates {}".format(
            doc["calib_s"], doc["cpu_count"], doc["python"],
            " ".join("{}={}".format(k, v) for k, v in doc["gates"].items()),
        ),
        "   setup samples (raw s): " + " ".join(
            "{:.3f}".format(s) for s, _c in doc["setup_samples"]
        ),
    ]
    for error in doc["errors"]:
        lines.append("   FAILED: " + error)
    if doc["trace"]:
        layer = doc["layers"]
        lines.append("   {:28s} {:>9s} {:>10s} {:>10s} {:>8s}".format(
            "layer", "calls/task", "busy_s", "self_s", "share%"
        ))
        for row in layer["rows"]:
            lines.append("   {layer:28s} {calls_per_task:9.2f} {busy_s:10.4f} "
                         "{self_s:10.4f} {share_pct:8.2f}".format(**row))
        low = [t for t, c in layer["coverage"].items() if c < 90.0]
        lines.append("   span coverage min {:.1f}% ({} task(s) below 90%); "
                     "tracing overhead {:.3f}x; spans in {}".format(
                         layer["metrics"]["trace.coverage"], len(low),
                         layer["metrics"]["trace.overhead"], layer["spans"]))
        for name, value in sorted(layer["rates"].items()):
            if value is not None:
                lines.append("   {} {:.1f}".format(name, value))
    for name, metric in doc["metrics"].items():
        lines.append("   {:34s} {:>14.6g} {}".format(
            name, metric["value"], metric["unit"]
        ))
    return "\n".join(lines)


def result_line(docs):
    """The result line: correct/attempted/failed and the metrics (of
    several workloads, prefixed ``<workload>.``)."""
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {
            "{}.{}".format(d["workload"], name): value
            for d in docs for name, value in d["metrics"].items()
        }
    failed = sum(d["failed"] for d in docs)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": failed,
        "metrics": metrics,
    })


# ----- compare ----------------------------------------------------------


def load_results(path):
    """``{workload: [end-to-end values dict, ...]}`` of the untraced
    runs in a JSONL file."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                doc = json.loads(line)
                if not doc["trace"]:
                    runs.setdefault(doc["workload"], []).append(
                        doc["end_to_end"]
                    )
    return runs


def judge(base, new, bound, higher):
    """ok / improved / regressed / unresolved for two sets of runs.

    Unresolved: either set's interquartile spread is wider than the
    bound, unless every new run beats every base run (improved).
    Regressed: the new median is worse by more than the bound.
    Improved: better by more than the base's own spread, with disjoint
    quartile ranges.
    """
    from repro.obs.ledger import ratio_delta

    delta = ratio_delta(statistics.median(base), statistics.median(new),
                        higher)

    def beats(x, y):
        return x > y if higher else x < y

    if spread(base) > bound or spread(new) > bound:
        if all(beats(n, b) for n in new for b in base):
            return "improved", delta
        return "unresolved", delta
    if delta < -bound:
        return "regressed", delta
    if len(base) > 1 and len(new) > 1 and delta > spread(base):
        bq = statistics.quantiles(base, n=4)
        nq = statistics.quantiles(new, n=4)
        if beats(nq[0] if higher else nq[2], bq[2] if higher else bq[0]):
            return "improved", delta
    return "ok", delta


def compare(path_a, path_b, bench):
    """Print one verdict per (workload, end-to-end metric); 1 if any
    regressed or is missing from one side."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    a, b = load_results(path_a), load_results(path_b)
    status = 0
    print("{:14s} {:14s} {:>12s} {:>12s} {:>8s}  {}".format(
        "workload", "metric", "A median", "B median", "delta", "verdict"))
    for workload in sorted(set(a) | set(b)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va = [r[name] for r in a.get(workload, [])]
            vb = [r[name] for r in b.get(workload, [])]
            if not va or not vb:
                print("{:14s} {:14s} missing on one side".format(
                    workload, name))
                status = 1
                continue
            verdict, delta = judge(va, vb, metric["bound"],
                                   metric["better"] == "higher")
            status |= verdict == "regressed"
            print("{:14s} {:14s} {:12.6g} {:12.6g} {:+7.1%}  {} "
                  "(spread {:.1%}/{:.1%}, bound {:.0%}, n {}/{})".format(
                      workload, name, statistics.median(va),
                      statistics.median(vb), delta, verdict, spread(va),
                      spread(vb), metric["bound"], len(va), len(vb)))
    return status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        bench = load_benchmark()
        if argv[:1] == ["compare"]:
            parser = argparse.ArgumentParser(prog="run.py compare")
            parser.add_argument("a")
            parser.add_argument("b")
            args = parser.parse_args(argv[1:])
            return compare(args.a, args.b, bench)
        names = [w["name"] for w in bench["workloads"]]
        parser = argparse.ArgumentParser(prog="run.py")
        parser.add_argument("--workload", default="all",
                            choices=names + ["all"])
        parser.add_argument("--seed", type=int, default=2026)
        parser.add_argument("--seconds", type=float,
                            default=bench["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--out", help="append result documents (JSONL)")
        args = parser.parse_args(argv)
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
            raise BenchError("no program source under {}".format(
                os.path.join(ROOT, "src")))
        docs = []
        for name in names if args.workload == "all" else [args.workload]:
            doc = summarize(run_workload(
                name, args.seed, args.seconds, args.trace
            ), bench)
            print(render(doc), flush=True)
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(doc) + "\n")
            docs.append(doc)
        print(result_line(docs))
        return 0
    except (BenchError, OSError) as exc:
        print("perfbench: error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
