"""The benchmark's six workloads: seeded inputs, task rounds, known answers.

Each workload is a set-up function ``(seed, workdir, **scale) -> rounds``.
It writes the inputs the program sees into ``workdir`` and returns a list
of *rounds*; a round is a list of :class:`Task`. The runner executes
rounds cyclically, one task at a time (one closed-loop client), so every
measured prefix holds whole rounds and therefore the workload's full
task mix. The ``scale`` keywords exist so the tests can run every task
function at a tiny size; the benchmark always uses the defaults.

A task's ``run()`` is the timed part: a CLI command run in-process, as a
fresh ``repro`` invocation would run it, or a library call where the CLI
has no equivalent. Its ``check(answer)`` runs outside the timed region
and returns ``None`` for a correct answer or a one-line description of
the wrong one. Every expected answer comes from something the code under
test does not compute: a committed fingerprint, or a property the input
generator guarantees by construction.

Each set-up function imports the program modules it needs itself, so
``setup_s`` holds the imports of that workload and no others.
"""

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The paper's Fig. 10 client: ``inc`` bumps a shared counter inside the
#: lock object's critical section.
COUNTER_C = os.path.join(ROOT, "examples", "counter.c")


class Task:
    """One timed unit of work and the check of its answer."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def cli_runner():
    """Import the CLI and return a function that runs ``repro ARGV``
    in-process and returns ``(exit code, stdout, stderr)``."""
    from repro import cli

    def run_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run_cli


def expect_exit(answer, code, line):
    """``None`` iff the command exited ``code`` and printed ``line``."""
    got, out, err = answer
    if got == code and line in out.splitlines():
        return None
    return "exit {} (expected {} with {!r}); stdout {!r} stderr {!r}".format(
        got, code, line, out[-200:], err[-200:]
    )


def fingerprint(behaviours):
    """16 hex digits over the sorted behaviour reprs (the digest the
    committed BENCH_pr*.json fingerprints use)."""
    digest = hashlib.sha256()
    for line in sorted(repr(b) for b in behaviours):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path


#: Full-exploration answers of the n-thread lock counter, POR off:
#: ``(worlds, behaviour fingerprint)``. Each agrees with the POR-on and
#: ``jobs=2`` runs; the 3- and 4-thread ones are committed in
#: BENCH_pr3.json through BENCH_pr9.json.
LOCK_COUNTER_ANSWERS = {
    2: (796, "a6ab29594cb0b2fa"),
    3: (20868, "50e1ab6d869c3910"),
    4: (571296, "4e906154a79c7890"),
}


def explore_full(seed, workdir, nthreads=3, answer=None):
    """``explore()`` + ``behaviours()`` on the lock counter, POR off."""
    from repro.framework import lock_counter_system
    from repro.semantics import GlobalContext, PreemptiveSemantics

    # Calls go through the module's attributes, so the traced run's
    # layer spans wrap them.
    explore_mod = importlib.import_module("repro.semantics.explore")
    expected = answer or LOCK_COUNTER_ANSWERS[nthreads]
    prog = lock_counter_system(nthreads).source_program()

    def run():
        graph = explore_mod.explore(
            GlobalContext(prog), PreemptiveSemantics(),
            max_states=3_000_000, strict=True, reduce=False, jobs=1,
        )
        behs = explore_mod.behaviours(
            graph, max_events=12, max_nodes=8_000_000
        )
        return graph.state_count(), behs

    def check(got):
        states, behs = got
        if (states, fingerprint(behs)) == tuple(expected):
            return None
        return "worlds/fingerprint {}/{} != expected {}/{}".format(
            states, fingerprint(behs), *expected
        )

    return [[Task("explore", run, check)]]


def drf_por(seed, workdir, threads=3):
    """``repro drf`` then ``repro npdrf`` on the locked counter."""
    run_cli = cli_runner()
    path = shutil.copy(COUNTER_C, workdir)
    entries = ",".join(["inc"] * threads)
    tasks = []
    for command, verdict in (("drf", "DRF: True"), ("npdrf", "NPDRF: True")):
        argv = [command, path, "--threads", entries, "--lock"]
        tasks.append(Task(
            command,
            lambda argv=argv: run_cli(argv),
            lambda got, verdict=verdict: expect_exit(got, 0, verdict),
        ))
    return [tasks]


def _witness_check(witness_path):
    def check(got):
        drf, (code, out, err) = got
        error = expect_exit(drf, 1, "DRF: False")
        if error is not None:
            return error
        if code != 0 or not out.startswith("replay: OK"):
            return "replay exit {}: {!r} {!r}".format(
                code, out[-200:], err[-200:]
            )
        with open(witness_path) as handle:
            record = json.load(handle)
        steps = len(record["schedule"]["steps"])
        printed = "witness: {} step(s) (minimized) -> {}".format(
            steps, witness_path
        )
        if record.get("verdict") != "race" or not record.get("minimized"):
            return "witness is not a minimized race: {!r}".format(
                {k: record.get(k) for k in ("verdict", "minimized")}
            )
        if printed not in drf[1].splitlines():
            return "drf reported another witness than it wrote: {!r}".format(
                drf[1][-200:]
            )
        return None
    return check


def lock_clients(seed, workdir, count=400):
    """Seeded two-thread lock clients, alternating clean and broken."""
    from repro.fuzz.generators import plan

    run_cli = cli_runner()
    rounds = []
    pair = []
    for inp in plan(seed, count, ("minic-lock", "minic-lock-broken")):
        path = _write(workdir, "client{}.c".format(inp.index), inp.source)
        entries = ",".join(inp.entries)
        if inp.expect_drf:
            argv = ["drf", path, "--threads", entries, "--lock"]
            pair.append(Task(
                "clean",
                lambda argv=argv: run_cli(argv),
                lambda got: expect_exit(got, 0, "DRF: True"),
            ))
        else:
            witness = path + ".witness.json"
            drf = ["drf", path, "--threads", entries, "--lock",
                   "--witness-out", witness, "--minimize"]
            replay = ["replay", path, "--witness", witness]
            pair.append(Task(
                "racy",
                lambda drf=drf, replay=replay: (
                    run_cli(drf), run_cli(replay)
                ),
                _witness_check(witness),
            ))
        if len(pair) == 2:
            rounds.append(pair)
            pair = []
    if pair:
        rounds.append(pair)
    return rounds


#: Programs of ``validate-seq`` are one fixed seeded draw (see README:
#: a per-seed redraw of this heavy-tailed family moves the median by
#: ~14%); ``--seed`` only permutes their order.
VALIDATE_DRAW_SEED = 2026


def validate_seq(seed, workdir, count=48):
    """``repro validate FILE -O`` on seeded sequential MiniC programs."""
    from repro.compiler.pipeline import EXTRA_PASSES, PASSES
    from repro.fuzz.generators import plan

    run_cli = cli_runner()
    # A passing program prints one line per pass plus the end-to-end
    # check, each ending in "ok".
    expected_lines = len(PASSES) + len(EXTRA_PASSES) + 1

    def check(got):
        code, out, err = got
        lines = out.splitlines()
        if code == 0 and len(lines) == expected_lines and all(
            line.split()[-1] == "ok" for line in lines
        ):
            return None
        return "exit {} with {} line(s): {!r} {!r}".format(
            code, len(lines), out[-200:], err[-200:]
        )

    tasks = []
    for inp in plan(VALIDATE_DRAW_SEED, count, ("minic-seq",)):
        path = _write(workdir, "seq{}.c".format(inp.index), inp.source)
        argv = ["validate", path, "-O"]
        tasks.append(Task("validate", lambda argv=argv: run_cli(argv), check))
    random.Random(seed).shuffle(tasks)
    return [tasks]


def thm15_tso(seed, workdir, nthreads=3):
    """``check_theorem15`` on the lock counter (x86-TSO target)."""
    from repro.framework import lock_counter_system, theorems

    system = lock_counter_system(nthreads)

    def check(result):
        if result.ok and result.premises and all(result.premises.values()):
            return None
        return "{!r} premises {}".format(result, result.premises)

    return [[Task("thm15", lambda: theorems.check_theorem15(system),
                  check)]]


def parallel_j2(seed, workdir, threads=3, fuzz_count=40):
    """Forked ``drf --jobs 2`` alternating with forked ``fuzz --jobs 2``
    (2 is the core count of the box the bounds were measured on)."""
    from repro.fuzz.generators import derive_seed

    run_cli = cli_runner()
    path = shutil.copy(COUNTER_C, workdir)
    drf = ["drf", path, "--threads", ",".join(["inc"] * threads), "--lock",
           "--jobs", "2"]
    fuzz = ["fuzz", "--seed", str(derive_seed(seed, 0)), "--count",
            str(fuzz_count), "--kinds", "minic-lock", "--jobs", "2"]
    # Every fuzz run gets a directory of its own, so none resumes.
    out_dirs = (
        os.path.join(workdir, "fuzz{}".format(n)) for n in itertools.count()
    )
    done = "fuzz: {} input(s) executed, 0 resumed".format(fuzz_count)

    def fuzz_check(got):
        error = expect_exit(got, 0, "findings: 0 (0 unexpected)")
        if error is None and not got[1].startswith(done):
            error = "not every input ran: {!r}".format(got[1][:200])
        return error

    return [[
        Task("drf-j2", lambda: run_cli(drf),
             lambda got: expect_exit(got, 0, "DRF: True")),
        Task("fuzz-j2", lambda: run_cli(fuzz + ["--out", next(out_dirs)]),
             fuzz_check),
    ]]


WORKLOADS = {
    "explore-full": explore_full,
    "drf-por": drf_por,
    "lock-clients": lock_clients,
    "validate-seq": validate_seq,
    "thm15-tso": thm15_tso,
    "parallel-j2": parallel_j2,
}
