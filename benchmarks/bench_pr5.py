"""Benchmark run for process-parallel frontier-sharded exploration.

Explores the 3- and 4-thread lock-counter systems at ``jobs ∈ {1, 2,
4}`` with partial-order reduction off and on, and writes
``BENCH_pr5.json`` next to the repo root (or to the path given as
argv[1]):

* per (workload, mode, jobs): state count, wall time and
  states/second. The ``jobs=1`` rows use the same fingerprint format
  as BENCH_pr3 (sha256 over sorted behaviour reprs), so they are
  directly comparable to the PR 3 baseline.
* soundness smoke: in full mode every parallel graph must be
  *bit-identical* to the sequential one (states, numbering, edges,
  classification sets) — checked directly, which is both stronger and
  far cheaper than re-enumerating behaviours per jobs value. In POR
  mode the reduced state set may legitimately differ across shard
  counts, so behaviour fingerprints are compared instead. DRF verdict
  agreement is checked wherever it does not require re-exploring the
  4-thread full graph twice more.
* per (workload, mode): a metered ``jobs=2`` run's parallel counters
  (``parallel.batches``, ``parallel.cross_edges``,
  ``parallel.idle_seconds``) — the data behind the serialization-batch
  overhead crossover discussed in EXPERIMENTS.md. Skipped for the
  4-thread full graph (it would double the most expensive leg).
* ``cpu_count`` — parallel exploration cannot beat sequential on a
  single-core runner (every cross-shard edge adds pickling work but no
  extra parallelism), so the artifact records the core count and
  reports honest numbers instead of a synthetic speedup.

The benchmark exits non-zero if any graph, fingerprint or DRF verdict
disagrees across the jobs axis.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_pr5.py [out.json]
"""

import hashlib
import json
import os
import sys
import time

from repro import obs
from repro.framework import lock_counter_system
from repro.semantics import (
    GlobalContext,
    PreemptiveSemantics,
    behaviours,
    drf,
    explore,
)

JOBS = (1, 2, 4)
THREAD_COUNTS = (3, 4)
MAX_STATES = 3000000
MAX_NODES = 8000000  # behaviour enumeration bound (see bench_pr3)


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


def _explore_timed(prog, reduce, jobs):
    # Best-of-2 for jobs=1 (matches bench_pr3); the multi-process runs
    # pay a fork+serialize cost per round, so a single round keeps the
    # benchmark honest and quick.
    rounds = 2 if jobs == 1 else 1
    times = []
    graph = None
    for _ in range(rounds):
        start = time.perf_counter()
        graph = explore(
            GlobalContext(prog), PreemptiveSemantics(),
            max_states=MAX_STATES, strict=True, reduce=reduce,
            jobs=jobs,
        )
        times.append(time.perf_counter() - start)
    return graph, min(times)


def _metered_counters(prog, reduce):
    obs.reset()
    obs.configure(metrics=True)
    explore(
        GlobalContext(prog), PreemptiveSemantics(),
        max_states=MAX_STATES, strict=True, reduce=reduce, jobs=2,
    )
    counters = {
        name: obs.counter_value(name)
        for name in (
            "parallel.shards",
            "parallel.batches",
            "parallel.cross_edges",
        )
    }
    # Durations are gauges since PR 6 (counters are integer-minded
    # monotone event counts); keep the key name the old artifacts used.
    counters["parallel.idle_seconds"] = obs.gauge_value(
        "parallel.idle_seconds"
    )
    obs.reset()
    return counters


def _bench_workload(nthreads, reduce):
    prog = lock_counter_system(nthreads).source_program()
    mode = "reduced" if reduce else "full"
    heavy = nthreads == 4 and not reduce
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
        # The jobs=1 fingerprint alone suffices (graphs are identical).
        rows[0]["behaviours_fingerprint"] = _fingerprint(
            behaviours(baseline, max_events=12, max_nodes=MAX_NODES)
        )
    entry = {
        "workload": "lock-counter, {} threads, preemptive".format(
            nthreads),
        "mode": mode,
        "rows": rows,
        "sound_across_jobs": sound,
    }
    if not heavy:
        verdicts = {
            drf(prog, MAX_STATES, reduce=reduce, jobs=jobs) is None
            for jobs in JOBS
        }
        entry["drf_verdicts_agree"] = len(verdicts) == 1
        sound = sound and entry["drf_verdicts_agree"]
        entry["metered_jobs2"] = _metered_counters(prog, reduce)
    if not sound:
        raise SystemExit(
            "parallel soundness smoke check failed: "
            "{} threads, {}".format(nthreads, mode)
        )
    return entry


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_pr5.json"
    report = {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "jobs_axis": list(JOBS),
        "note": (
            "wall-clock speedup from --jobs requires real cores; on a "
            "single-core runner the sharded run adds serialization "
            "work with no extra parallelism, so expect jobs>1 rows to "
            "be slower there (see cpu_count)"
        ),
        "scaling": [
            _bench_workload(n, red)
            for n in THREAD_COUNTS
            for red in (False, True)
        ],
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
