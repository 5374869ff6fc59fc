"""Benchmark run for live run introspection (PR 9).

Measures what this PR is about — that the heartbeat/ledger/heap
telemetry is cheap and honest — and re-runs the PR 5/7/8 scaling
matrix so the trajectory series in ``benchmarks/trajectory.py``
continue.

Writes ``BENCH_pr9.json`` next to the repo root (or to argv[1]):

* ``overhead``: the heartbeat gate. SCALE (3-thread lock-counter)
  sequential full exploration with the status writer off and on,
  interleaved rounds, min-of-rounds both ways. The run exits non-zero
  if the on/off wall-clock ratio exceeds ``OVERHEAD_TARGET`` (the
  ISSUE's ≤2% budget plus measurement slack) or if the heartbeat-on
  graph differs from the heartbeat-off graph in any way — telemetry
  must never perturb exploration.
* ``live``: an end-to-end ``drf --jobs 2 --no-por`` run through the
  real CLI with a 0.2 s heartbeat, a run ledger and a concurrent
  poller thread. Gates: the poller never sees a torn JSON document,
  every shard row appears in the final merged heartbeat, and at least
  one mid-run rolling states/s sample lands within 2x of the
  manifest's overall states/s (the final beats decay the rolling
  window by design, so the check uses mid-run poller samples).
* ``heap``: the interning/sharing census of the explored SCALE graph
  — intern table sizes and hit rates, bytes-unique vs
  bytes-if-copied, the sharing factor, bytes/world — the numbers
  quoted in ``EXPERIMENTS.md``.
* ``scaling``: the PR 5/7/8 jobs-axis matrix (3-/4-thread, full and
  reduced, jobs 1/2/4) with telemetry off, so the
  ``states_per_second`` trajectory series continue at this PR.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_pr9.py [out.json]
"""

import gc
import hashlib
import json
import os
import sys
import tempfile
import threading
import time

from repro.lang import closure
from repro.framework import lock_counter_system
from repro.obs import heap, ledger
from repro.obs import status as live_status
from repro.semantics import (
    GlobalContext,
    PreemptiveSemantics,
    behaviours,
    explore,
)
from repro.semantics.world import reset_intern_tables

JOBS = (1, 2, 4)
THREAD_COUNTS = (3, 4)
MAX_STATES = 3000000
MAX_NODES = 8000000

#: Committed behaviour fingerprints (BENCH_pr3/pr5/pr7/pr8).
BASELINE_FINGERPRINTS = {
    3: "50e1ab6d869c3910",
    4: "4e906154a79c7890",
}

#: Maximum allowed heartbeat-on / heartbeat-off wall-clock ratio on
#: SCALE. The ISSUE budget is 2%; the stride-gated beat path measures
#: well under that (the countdown integer is the entire per-iteration
#: cost), so the gate adds slack only for timer noise on a loaded
#: runner.
OVERHEAD_TARGET = 1.02

#: Interleaved rounds per mode for the overhead measurement.
OVERHEAD_ROUNDS = 5

#: Heartbeat interval for the live end-to-end run.
LIVE_INTERVAL = 0.2

#: Mid-run rolling states/s must land within this factor of the
#: manifest's overall states/s.
LIVE_RATE_FACTOR = 2.0


def _cleanup():
    closure.clear_cache()
    reset_intern_tables()
    gc.collect()


def _fingerprint(behs):
    digest = hashlib.sha256()
    for line in sorted(repr(b) for b in behs):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _graphs_identical(g1, g2):
    return (
        g1.states == g2.states
        and g1.edges == g2.edges
        and g1.done == g2.done
        and g1.stuck == g2.stuck
        and g1.truncated == g2.truncated
    )


def _explore_once(prog, reduce=False, jobs=1):
    start = time.perf_counter()
    graph = explore(
        GlobalContext(prog), PreemptiveSemantics(),
        max_states=MAX_STATES, strict=True, reduce=reduce, jobs=jobs,
    )
    return graph, time.perf_counter() - start


def _overhead_section():
    """Interleaved off/on rounds on SCALE: the ≤2% heartbeat gate."""
    _cleanup()
    prog = lock_counter_system(3).source_program()
    tmpdir = tempfile.mkdtemp(prefix="bench-pr9-")
    st_path = os.path.join(tmpdir, "st.json")
    times = {"off": [], "on": []}
    graphs = {}
    for _ in range(OVERHEAD_ROUNDS):
        for mode in ("off", "on"):
            live_status.reset()
            if mode == "on":
                live_status.configure(st_path, interval=1.0)
            try:
                graph, seconds = _explore_once(prog)
            finally:
                live_status.reset()
            times[mode].append(seconds)
            graphs[mode] = graph
    best_off = min(times["off"])
    best_on = min(times["on"])
    ratio = best_on / best_off
    identical = _graphs_identical(graphs["off"], graphs["on"])
    entry = {
        "workload": "lock-counter, 3 threads, preemptive, full",
        "rounds": OVERHEAD_ROUNDS,
        "states": graphs["on"].state_count(),
        "seconds_off_best": round(best_off, 4),
        "seconds_on_best": round(best_on, 4),
        "seconds_off_all": [round(t, 4) for t in times["off"]],
        "seconds_on_all": [round(t, 4) for t in times["on"]],
        "overhead_ratio": round(ratio, 4),
        "overhead_target": OVERHEAD_TARGET,
        "graph_identical": identical,
    }
    if not identical:
        raise SystemExit(
            "heartbeat-on exploration diverged from heartbeat-off"
        )
    if ratio > OVERHEAD_TARGET:
        raise SystemExit(
            "heartbeat overhead gate missed: {:.4f}x "
            "(target {:.2f}x)".format(ratio, OVERHEAD_TARGET)
        )
    return entry


class _Poller(threading.Thread):
    """Tight-loop reader of the heartbeat file."""

    def __init__(self, path):
        super().__init__()
        self.path = path
        self.stop_flag = threading.Event()
        self.torn = 0
        self.reads = 0
        self.docs = []

    def run(self):
        while not self.stop_flag.is_set():
            try:
                with open(self.path) as handle:
                    doc = json.load(handle)
            except OSError:
                continue
            except ValueError:
                self.torn += 1
                continue
            self.reads += 1
            self.docs.append(doc)


def _live_section(repo_root):
    """End-to-end CLI drf with jobs=2, heartbeat + ledger + poller."""
    from repro.cli import main as cli_main

    _cleanup()
    ledger.reset()
    live_status.reset()
    tmpdir = tempfile.mkdtemp(prefix="bench-pr9-live-")
    st_path = os.path.join(tmpdir, "st.json")
    manifest_path = os.path.join(tmpdir, "run.json")
    counter = os.path.join(repo_root, "examples", "counter.c")
    os.environ[live_status.ENV_STATUS_INTERVAL] = str(LIVE_INTERVAL)
    poller = _Poller(st_path)
    poller.start()
    try:
        code = cli_main([
            "drf", counter, "--threads", "inc,inc,inc", "--lock",
            "--no-por", "--jobs", "2",
            "--status", st_path, "--ledger", manifest_path,
        ])
    finally:
        poller.stop_flag.set()
        poller.join()
        os.environ.pop(live_status.ENV_STATUS_INTERVAL, None)
    if code != 0:
        raise SystemExit("live drf run exited {}".format(code))
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    overall = manifest["states_per_second"]
    # Mid-run samples only: the rolling window decays by design once
    # exploration stops and the merge/final beats repeat a constant
    # state count.
    mid = [
        doc["rolling_states_per_second"]
        for doc in poller.docs
        if doc.get("phase") in ("parallel", "expand")
        and doc.get("rolling_states_per_second")
    ]
    in_band = [
        r
        for r in mid
        if overall / LIVE_RATE_FACTOR <= r <= overall * LIVE_RATE_FACTOR
    ]
    final = poller.docs[-1] if poller.docs else {}
    shard_wids = sorted(
        row.get("wid") for row in final.get("shards", ())
    )
    entry = {
        "workload": "counter.c, 3 threads, locked, full, jobs=2",
        "interval_seconds": LIVE_INTERVAL,
        "poller_reads": poller.reads,
        "poller_torn_reads": poller.torn,
        "manifest_states": manifest["states"],
        "manifest_states_per_second": overall,
        "manifest_verdict": manifest.get("verdict"),
        "mid_run_samples": len(mid),
        "mid_run_samples_within_2x": len(in_band),
        "final_phase": final.get("phase"),
        "final_shard_wids": shard_wids,
    }
    if poller.torn:
        raise SystemExit(
            "poller saw {} torn heartbeat read(s)".format(poller.torn)
        )
    if shard_wids != [0, 1]:
        raise SystemExit(
            "final heartbeat missing shard rows: {}".format(shard_wids)
        )
    if mid and not in_band:
        raise SystemExit(
            "no mid-run rolling sample within {}x of the manifest "
            "overall ({} states/s): {}".format(
                LIVE_RATE_FACTOR, overall, mid
            )
        )
    return entry


def _heap_section():
    """The census quoted in EXPERIMENTS.md, from a fresh SCALE graph."""
    _cleanup()
    prog = lock_counter_system(3).source_program()
    graph, _seconds = _explore_once(prog)
    census = heap.graph_census(graph)
    tables = {
        name: {
            "size": entry["size"],
            "peak_size": entry["peak_size"],
            "hit_rate": round(entry["hit_rate"], 4),
            "clears": entry["clears"],
            "collisions_estimate": entry["collisions_estimate"],
        }
        for name, entry in heap.intern_census().items()
    }
    top_types = sorted(
        census["per_type"].items(), key=lambda kv: -kv[1]["bytes"]
    )[:heap.TOP_TYPES]
    if census["sharing_factor"] <= 1.0:
        raise SystemExit(
            "sharing factor {} <= 1: hash-consing is not sharing"
            .format(census["sharing_factor"])
        )
    return {
        "workload": "lock-counter, 3 threads, preemptive, full",
        "worlds": census["worlds"],
        "objects": census["objects"],
        "bytes_unique": census["bytes_unique"],
        "bytes_if_copied": census["bytes_if_copied"],
        "sharing_factor": census["sharing_factor"],
        "bytes_per_world_unique": census["bytes_per_world_unique"],
        "bytes_per_world_copied": census["bytes_per_world_copied"],
        "per_type_top": {
            name: entry for name, entry in top_types
        },
        "intern_tables": tables,
    }


def _explore_timed(prog, reduce, jobs):
    rounds = 2 if jobs == 1 else 1
    times = []
    graph = None
    for _ in range(rounds):
        graph, seconds = _explore_once(prog, reduce, jobs)
        times.append(seconds)
    return graph, min(times)


def _bench_workload(nthreads, reduce):
    """The PR 5/7/8 scaling matrix, telemetry off."""
    _cleanup()
    prog = lock_counter_system(nthreads).source_program()
    mode = "reduced" if reduce else "full"
    rows = []
    baseline = None
    sound = True
    for jobs in JOBS:
        graph, best = _explore_timed(prog, reduce, jobs)
        states = graph.state_count()
        row = {
            "jobs": jobs,
            "states": states,
            "seconds": round(best, 4),
            "states_per_second": round(states / best, 1),
        }
        if reduce:
            row["behaviours_fingerprint"] = _fingerprint(
                behaviours(graph, max_events=12, max_nodes=MAX_NODES)
            )
        if jobs == 1:
            baseline = graph
        elif not reduce:
            row["graph_identical_to_sequential"] = _graphs_identical(
                baseline, graph)
            sound = sound and row["graph_identical_to_sequential"]
        rows.append(row)
    if reduce:
        sound = len({r["behaviours_fingerprint"] for r in rows}) == 1
    else:
        rows[0]["behaviours_fingerprint"] = _fingerprint(
            behaviours(baseline, max_events=12, max_nodes=MAX_NODES)
        )
    fingerprints = {
        r["behaviours_fingerprint"]
        for r in rows if "behaviours_fingerprint" in r
    }
    crossval = fingerprints == {BASELINE_FINGERPRINTS[nthreads]}
    entry = {
        "workload": "lock-counter, {} threads, preemptive".format(
            nthreads),
        "mode": mode,
        "rows": rows,
        "sound_across_jobs": sound,
        "fingerprint_matches_pr3_pr5_pr7_pr8": crossval,
    }
    if not (sound and crossval):
        raise SystemExit(
            "parallel soundness smoke check failed: "
            "{} threads, {}".format(nthreads, mode)
        )
    return entry


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_pr9.json"
    repo_root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..")
    )
    # Scaling first, from the cleanest process state: forked workers
    # inherit the whole live heap.
    scaling = [
        _bench_workload(n, red)
        for n in THREAD_COUNTS
        for red in (False, True)
    ]
    overhead = _overhead_section()
    live = _live_section(repo_root)
    heap_census = _heap_section()
    report = {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "jobs_axis": list(JOBS),
        "note": (
            "overhead is the heartbeat-on / heartbeat-off wall-clock "
            "ratio measured interleaved in one process (gated at "
            "{:.0%}); the live section drives the real CLI with a "
            "concurrent poller; the scaling section's absolute "
            "states/second continue the PR 2/3/5/7/8 trajectory "
            "series and move with the runner.".format(
                OVERHEAD_TARGET - 1.0)
        ),
        "overhead": overhead,
        "live": live,
        "heap": heap_census,
        "scaling": scaling,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
