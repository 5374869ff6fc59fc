"""One workload in a fresh process: set up, run timed rounds, report.

Started by ``run.py``; prints one JSON document on stdout. The clock
for ``setup_s`` starts at this file's first line and stops when the
workload's set-up function returns. It covers the program imports that
workload needs, input generation, file writes and system builds. The
harness imports nothing of the program before the clock stops, and its
own modules before then use the standard library only.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

#: Seconds between runner-speed samples during the timed rounds.
CALIB_EVERY = 0.2

#: Iterations of the calibration loop, and the seconds they take on the
#: reference runner (the 2-core box the bounds were measured on). The
#: two must change together.
CALIB_LOOPS = 40_000
REF_CALIB_S = 0.009


def calibrate():
    """Seconds of a fixed pure-Python interning-style loop: the runner's
    current speed. Each task is normalised by the samples around it
    (see :func:`run_rounds`), which cancels most of the drift of a
    shared machine. The collector is off so the sample does not depend
    on what the heap holds."""
    table = {}
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(CALIB_LOOPS):
            key = (i % 4099, i % 97)
            if table.get(key) is None:
                table[key] = key
        return time.perf_counter() - start
    finally:
        gc.enable()


def cold_start():
    """Drop what an earlier task left warm, as a fresh process would."""
    from repro.common import intern
    from repro.lang import closure
    from repro.semantics.world import reset_intern_tables

    closure.clear_cache()
    reset_intern_tables()
    intern.clear_all()
    gc.collect()


def run_task(task, tracing=None, task_id=0):
    """Run and check one task; a wrong answer or an exception is a
    failure recorded in ``error``, never an abort of the run."""
    if tracing is not None:
        tracing.begin_task(task_id)
    start = time.perf_counter()
    try:
        answer, error = task.run(), None
    except (Exception, SystemExit) as exc:
        answer, error = None, "{}: {}".format(type(exc).__name__, exc)
    wall = time.perf_counter() - start
    if tracing is not None:
        tracing.end_task()
    if error is None:
        try:
            error = task.check(answer)
        except Exception as exc:
            error = "check raised {}: {}".format(type(exc).__name__, exc)
    return {"kind": task.kind, "wall_s": wall, "error": error}


def run_rounds(rounds, seconds, tracing=None):
    """Closed loop over whole rounds for about ``seconds``: a round
    starts while the run would end nearer the deadline with it than
    without it (always at least one).

    Runner-speed samples are taken between tasks, at most every
    ``CALIB_EVERY`` seconds and once more at the end; each task's
    ``calib_s`` is the geometric mean of the samples just before and
    just after it.
    """
    results = []
    samples = []  # (index of the next task, seconds)
    deadline = time.perf_counter() + seconds
    last = 0.0
    calibrated = float("-inf")
    i = 0
    while i == 0 or time.perf_counter() + last / 2 < deadline:
        began = time.perf_counter()
        for task in rounds[i % len(rounds)]:
            cold_start()
            if time.perf_counter() - calibrated >= CALIB_EVERY:
                samples.append((len(results), calibrate()))
                calibrated = time.perf_counter()
            results.append(run_task(task, tracing, len(results)))
        last = time.perf_counter() - began
        i += 1
    samples.append((len(results), calibrate()))
    k = 0
    for index, result in enumerate(results):
        while samples[k + 1][0] <= index:
            k += 1
        result["calib_s"] = math.sqrt(samples[k][1] * samples[k + 1][1])
    return results


def traced_half(rounds, seconds, spans_path):
    """The same rounds again with layer spans and the metrics registry
    on; returns the task results and the per-layer analysis."""
    import layers

    tracing = layers.Tracing()
    with layers.traced(tracing):
        results = run_rounds(rounds, seconds, tracing)
    tracing.write(spans_path)
    rows, coverage, metrics, rates = layers.analyse(tracing, len(results))
    return results, {
        "rows": rows, "coverage": coverage, "metrics": metrics,
        "rates": rates, "spans": spans_path,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    rounds = WORKLOADS[args.workload](args.seed, args.work)
    doc = {"setup_s": time.perf_counter() - START, "calib_s": calibrate()}
    if args.setup_only:
        print(json.dumps(doc))
        return 0
    from repro.lang import closure
    from repro.semantics.parallel import default_jobs
    from repro.semantics.por import default_reduce

    doc["gates"] = {
        "por": default_reduce(), "closure": closure.enabled(),
        "jobs": default_jobs(),
    }
    # With tracing the run is split: an untraced half, then the same
    # rounds traced, so the overhead compares like with like.
    seconds = args.seconds / 2 if args.trace else args.seconds
    doc["tasks"] = run_rounds(rounds, seconds)
    if args.trace:
        spans = os.path.join(args.work, "spans.jsonl")
        traced, doc["layers"] = traced_half(rounds, seconds, spans)
        doc["traced_tasks"] = traced
        common = min(len(traced), len(doc["tasks"]))
        doc["layers"]["metrics"]["trace.overhead"] = sum(
            t["wall_s"] / t["calib_s"] for t in traced[:common]
        ) / sum(t["wall_s"] / t["calib_s"] for t in doc["tasks"][:common])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc["peak_rss_mib"] = max(own, forked) / 1024.0
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
