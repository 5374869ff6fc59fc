"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``compile FILE [--dump STAGE] [-O]`` — run the pipeline on a MiniC
  file; print the pass list, or the pretty-printed module at a stage;
* ``run FILE --threads entry1,entry2 [--stage STAGE] [--lock]`` —
  enumerate the behaviours of the program under the preemptive
  semantics (optionally linked against the lock object);
* ``validate FILE [-O] [--max-failures N]`` — translation-validate
  every pass;
* ``drf FILE --threads entry1,entry2 [--lock]`` — race-check; with
  ``--witness-out W`` a found race is written as a replayable witness
  artifact (``--minimize`` shrinks it first);
* ``replay FILE --witness W`` — re-execute a witness against the
  program and verify its verdict reproduces (``--minimize`` /
  ``--witness-out`` shrink and re-save it);
* ``inspect ARTIFACT`` — render a witness as a per-thread timeline,
  a run manifest as a fact sheet, or a ``--trace`` JSONL file as the
  report ``profile`` prints (see :mod:`repro.obs.explain`);
* ``profile FILE`` — render a trace or a run manifest exactly as
  ``inspect`` does: for a trace, where a metered run's wall-clock went
  (per-shard phase breakdown, utilization timelines, top spans by
  self-time, event tallies, the wire-cost table and the final metrics;
  see :mod:`repro.obs.profile`);
* ``npdrf FILE --threads e1,e2`` — race-check under the
  *non-preemptive* semantics (the paper's NPDRF);
* ``fuzz --seed S --count N [--out DIR] [--jobs N]`` — run a
  persistent differential fuzzing campaign (see :mod:`repro.fuzz`):
  seeded generators, a content-hash-deduplicated corpus, auto-minimized
  replayable witnesses for every divergence, and an atomically
  checkpointed resume that survives ``kill -9``;
* ``status FILE [--watch]`` — render a live heartbeat file written by
  a running ``run``/``drf``/``npdrf`` with ``--status`` (see
  :mod:`repro.obs.status`);
* ``compare A B [--fail-on-regression]`` — diff two run manifests
  written with ``--ledger`` (see :mod:`repro.obs.ledger`).

All commands accept ``--metrics`` (print a metrics summary table) and
``--trace FILE`` (write a JSON-lines span trace); the
``REPRO_METRICS`` / ``REPRO_TRACE`` environment variables switch the
same machinery on without flags.
``--ledger FILE`` (or ``REPRO_LEDGER=FILE``) additionally writes the
run record: a versioned manifest — resolved config, content hash of
the input + pass pipeline, phase wall times, peak RSS, final metrics,
behaviour fingerprint, verdict and exit status — that ``repro
inspect`` and ``repro profile`` render and ``repro compare`` diffs.
The exploration commands also take ``--status FILE`` (or
``REPRO_STATUS=FILE``) for a ~1s-interval heartbeat snapshot.

``run`` and ``drf`` accept ``--por/--no-por`` to control the
footprint-directed partial-order reduction (default: the ``REPRO_POR``
environment setting, on unless set to ``0``), ``--jobs N`` to
shard the exploration across ``N`` forked worker processes (default:
the ``REPRO_JOBS`` environment setting, 1 = sequential; see
:mod:`repro.semantics.parallel`).

Exit codes are uniform across commands: **0** — success (program is
DRF, behaviours printed, validation passed, replay reproduced);
**1** — an analysis *finding* (a race was found, a validation pass
failed, a replay diverged); **2** — usage or internal error (bad
flags, unknown thread entries, unreadable files, crashes, a forked
worker that died, which ends the run within seconds) or an
inconclusive verdict (an exploration that exceeded ``--max-states``,
or a ``run`` whose behaviour enumeration hit its node cap);
**130** — interrupted (Ctrl-C / SIGINT), the conventional 128+signal
code, after the run ledger and heartbeat have been finalized and any
forked workers reaped. Scripts can therefore distinguish "the tool
found a race" from "the tool broke" — previously both surfaced as
non-zero.
"""

import argparse
import functools
import os
import sys

from repro import obs
from repro.common.errors import ParseError, TypeCheckError
from repro.lang.module import link_program
from repro.langs.minic import compile_unit, link_units
from repro.obs import ledger
from repro.obs import status as live_status
from repro.semantics import (
    ExplorationLimit,
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    ReplayDivergence,
    find_race,
    load_witness,
    minimize_witness,
    program_behaviours,
    record_race,
    replay_witness,
    save_witness,
)
from repro.compiler import compile_minic
from repro.compiler.pprint import dump_pipeline, dump_stage
from repro.fuzz.generators import DEFAULT_KINDS as DEFAULT_FUZZ_KINDS
from repro.semantics.parallel import default_jobs
from repro.semantics.witness import CaptureError
from repro.simulation.validate import validate_compilation
from repro.tso import DEFAULT_LOCK_ADDR, lock_spec_decl


class UsageError(Exception):
    """A user-input problem surfaced after argparse: exit code 2."""


def _parse_threads(spec):
    """Split a ``--threads`` value into clean entry names.

    Whitespace around entries is stripped (``--threads "main, worker"``
    is the natural shell spelling); empty entries — a trailing comma,
    ``",,"``, or a blank value — are rejected instead of silently
    producing a bogus entry name that failed later with a raw
    traceback.
    """
    entries = [name.strip() for name in spec.split(",")]
    if not entries or any(not name for name in entries):
        raise UsageError(
            "--threads: empty entry name in {!r} (expected "
            "comma-separated function names)".format(spec)
        )
    return entries


def _check_entries(ctx, entries):
    """Reject entry names the program cannot resolve, listing the
    known ones (languages without entry listings skip the check and
    fail at thread-creation time as before)."""
    known = ctx.entry_names()
    if known is None:
        return
    unknown = [name for name in entries if name not in known]
    if unknown:
        raise UsageError(
            "--threads: unknown entry point(s) {}; known entries: {}"
            .format(
                ", ".join(repr(n) for n in unknown),
                ", ".join(known) or "(none)",
            )
        )


def _build(path, use_lock):
    extra = {"L": DEFAULT_LOCK_ADDR} if use_lock else None
    try:
        with open(path) as handle:
            text = handle.read()
        modules, genvs, _ = link_units([compile_unit(text)], extra)
    except OSError as exc:
        raise UsageError("cannot read {}: {}".format(path, exc.strerror))
    except (ParseError, TypeCheckError) as exc:
        raise UsageError("{}: {}".format(path, exc))
    if use_lock:
        modules = [m.with_forbidden({DEFAULT_LOCK_ADDR}) for m in modules]
    return modules[0], genvs[0]


def _program(stage, genv, entries, use_lock):
    return link_program(
        [stage], [genv], entries,
        obj=lock_spec_decl() if use_lock else None,
    )


def cmd_compile(args):
    module, _genv = _build(args.file, args.lock)
    result = compile_minic(module, optimize=args.optimize)
    if args.dump == "all":
        print(dump_pipeline(result))
        return 0
    if args.dump:
        wanted = (
            result.source
            if args.dump == "source"
            else result.stage(args.dump)
        )
        print(dump_stage(wanted))
        return 0
    for stage in result.stages:
        print("{:14s} ({})".format(stage.name, stage.lang.name))
    return 0


def _note_run_config(args, result, entries):
    """Record the run's *resolved* configuration and input identity in
    the active ledger (no-op without one): flags, the gate defaults
    they fell back to, and the content hash of the program + pass
    pipeline — the key the validation-cache work will index."""
    from repro.semantics.por import default_reduce

    por = args.por if args.por is not None else default_reduce()
    pipeline = tuple(s.name for s in result.stages)
    gates = ("por",) if por else ()
    ledger.set_config(
        file=args.file,
        threads=list(entries),
        lock=bool(args.lock),
        optimize=bool(args.optimize),
        por=bool(por),
        jobs=getattr(args, "jobs", 1),
        max_states=getattr(args, "max_states", None),
        max_atomic_steps=getattr(args, "max_atomic_steps", None),
    )
    ledger.note(
        content_hash=ledger.content_hash(args.file, pipeline, gates),
        pipeline=list(pipeline),
    )


def cmd_run(args):
    module, genv = _build(args.file, args.lock)
    result = compile_minic(module, optimize=args.optimize)
    stage = (
        result.source
        if args.stage == "source"
        else result.stage(args.stage)
    )
    entries = _parse_threads(args.threads)
    prog = _program(stage, genv, entries, args.lock)
    ctx = GlobalContext(prog)
    _check_entries(ctx, entries)
    _note_run_config(args, result, entries)
    behs = program_behaviours(
        ctx,
        PreemptiveSemantics(),
        max_states=args.max_states,
        reduce=args.por,
        jobs=args.jobs,
        strict=True,
    )
    ledger.note(
        verdict="behaviours",
        behaviours=len(behs),
        fingerprint=ledger.fingerprint_behaviours(behs),
    )
    for b in sorted(behs, key=repr):
        print(b)
    return 0


def cmd_validate(args):
    module, genv = _build(args.file, args.lock)
    result = compile_minic(module, optimize=args.optimize)
    mem = genv.memory()
    cap = max(args.max_failures, 0)

    def show(v):
        # Each pass's lines go out as soon as it is validated.
        status = "ok" if v.ok else "FAILED"
        print("{:14s} {}".format(v.pass_name, status))
        shown = v.report.failures[:cap]
        for failure in shown:
            print("    ", failure)
        extra = len(v.report.failures) - len(shown)
        if extra > 0:
            print("     (+{} more)".format(extra))
        sys.stdout.flush()

    validations = validate_compilation(
        result, mem, mem.domain(), on_pass=show
    )
    return 0 if all(v.ok for v in validations) else 1


def cmd_drf(args):
    module, genv = _build(args.file, args.lock)
    result = compile_minic(module, optimize=args.optimize)
    entries = _parse_threads(args.threads)
    prog = _program(result.source, genv, entries, args.lock)
    ctx = GlobalContext(prog)
    _check_entries(ctx, entries)
    _note_run_config(args, result, entries)
    semantics = PreemptiveSemantics(
        max_atomic_steps=args.max_atomic_steps
    )
    witness = find_race(
        ctx,
        semantics,
        max_states=args.max_states,
        reduce=args.por,
        jobs=args.jobs,
    )
    verdict = witness is None
    ledger.note(verdict="drf" if verdict else "race")
    print("DRF:", verdict)
    if witness is not None and args.witness_out:
        record = record_race(
            witness,
            program={
                "file": args.file,
                "threads": ",".join(entries),
                "lock": args.lock,
                "optimize": args.optimize,
            },
            # The semantics' actual bound: replay re-derives the race
            # via predict() with this value, so a hardcoded 64 would
            # silently diverge under --max-atomic-steps.
            meta={"max_atomic_steps": semantics.max_atomic_steps},
        )
        if args.minimize:
            record = minimize_witness(ctx, record)
        save_witness(args.witness_out, record)
        print(
            "witness: {} step(s){} -> {}".format(
                len(record.schedule),
                " (minimized)" if record.minimized else "",
                args.witness_out,
            )
        )
    return 0 if verdict else 1


def cmd_replay(args):
    try:
        record = load_witness(args.witness)
    except (OSError, ValueError, KeyError, CaptureError) as exc:
        raise UsageError(
            "cannot load witness {}: {}".format(args.witness, exc)
        )
    # Explicit CLI flags win (--lock/--no-lock, -O/--no-optimize); the
    # witness's recorded program info fills the gaps, so
    # `repro replay FILE --witness W` needs no repeated flags.
    info = record.program
    threads = args.threads or info.get("threads", "main")
    use_lock = (
        bool(info.get("lock")) if args.lock is None else args.lock
    )
    optimize = (
        bool(info.get("optimize"))
        if args.optimize is None
        else args.optimize
    )
    module, genv = _build(args.file, use_lock)
    result = compile_minic(module, optimize=optimize)
    entries = _parse_threads(threads)
    prog = _program(result.source, genv, entries, use_lock)
    ctx = GlobalContext(prog)
    _check_entries(ctx, entries)
    try:
        res = replay_witness(ctx, record)
    except ReplayDivergence as exc:
        print("replay: DIVERGED: {}".format(exc))
        return 1
    print(
        "replay: OK ({} step(s), end={}, verdict={})".format(
            len(record.schedule), res.end, record.verdict
        )
    )
    if args.minimize and record.verdict == "race":
        record = minimize_witness(ctx, record)
        print("minimized: {} step(s)".format(len(record.schedule)))
    if args.witness_out:
        save_witness(args.witness_out, record)
        print("witness written to {}".format(args.witness_out))
    return 0


def cmd_fuzz(args):
    from repro.fuzz.campaign import CampaignConfig, run_campaign
    from repro.fuzz.corpus import Corpus, CorpusError
    from repro.fuzz.generators import GeneratorError, KINDS

    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        raise UsageError("--kinds: no generator kinds given")
    if args.inject_broken and "minic-lock-broken" not in kinds:
        kinds.append("minic-lock-broken")
    try:
        cfg = CampaignConfig(
            seed=args.seed,
            count=args.count,
            kinds=kinds,
            out=args.out,
            jobs=args.jobs,
            max_states=args.max_states,
            max_events=args.max_events,
            max_atomic_steps=args.max_atomic_steps,
            minimize_rounds=args.minimize_rounds,
            minimize_seconds=args.minimize_seconds,
            duration=args.duration,
            fresh=args.fresh,
        )
    except GeneratorError as exc:
        raise UsageError(str(exc))
    try:
        stats = run_campaign(cfg)
    except (CorpusError, GeneratorError) as exc:
        raise UsageError(str(exc))
    print(
        "fuzz: {} input(s) executed, {} resumed from checkpoint, "
        "{} dedup hit(s){}".format(
            stats.executed, stats.skipped, stats.dedup_hits,
            ""
            if stats.stopped == "done"
            else " (stopped: {})".format(stats.stopped),
        )
    )
    print(
        "corpus: {} program(s) at {}".format(
            Corpus(cfg.out).program_count(), cfg.out
        )
    )
    print(
        "findings: {} ({} unexpected)".format(
            stats.findings, stats.unexpected
        )
    )
    return 1 if stats.unexpected else 0


def _print_artifact(verb, path, **kw):
    from repro.obs.explain import inspect_path

    try:
        text = inspect_path(path, **kw)
    except (OSError, ValueError, KeyError, CaptureError) as exc:
        raise UsageError("cannot {} {}: {}".format(verb, path, exc))
    print(text)
    return 0


def cmd_inspect(args):
    return _print_artifact("inspect", args.artifact)


def cmd_profile(args):
    return _print_artifact(
        "profile", args.trace_file, kinds=("trace", "run-manifest"),
        top=args.top,
    )


def cmd_npdrf(args):
    module, genv = _build(args.file, args.lock)
    result = compile_minic(module, optimize=args.optimize)
    entries = _parse_threads(args.threads)
    prog = _program(result.source, genv, entries, args.lock)
    ctx = GlobalContext(prog)
    _check_entries(ctx, entries)
    _note_run_config(args, result, entries)
    semantics = NonPreemptiveSemantics(
        max_atomic_steps=args.max_atomic_steps
    )
    witness = find_race(
        ctx,
        semantics,
        max_states=args.max_states,
        reduce=args.por,
        jobs=args.jobs,
    )
    verdict = witness is None
    ledger.note(verdict="npdrf" if verdict else "race")
    print("NPDRF:", verdict)
    return 0 if verdict else 1


def _render_status_file(path, doc):
    try:
        return live_status.render_status(doc)
    except ValueError as exc:
        raise UsageError(
            "cannot render status file {!r}: {}".format(path, exc)
        )


def cmd_status(args):
    import time as _time

    doc = live_status.load(args.file)
    if doc is None:
        raise UsageError(
            "cannot read status file {!r} (no heartbeat yet, or not "
            "a JSON document)".format(args.file)
        )
    print(_render_status_file(args.file, doc))
    if not args.watch:
        return 0
    try:
        while doc is None or doc.get("phase") != "done":
            _time.sleep(max(args.interval, 0.05))
            doc = live_status.load(args.file)
            if doc is not None:
                print()
                print(_render_status_file(args.file, doc))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_compare(args):
    docs = []
    for path in (args.a, args.b):
        try:
            docs.append(ledger.load_manifest(path))
        except (OSError, ValueError) as exc:
            raise UsageError(
                "cannot load run manifest {}: {}".format(path, exc)
            )
    a, b = docs
    report, regressions = ledger.compare_manifests(
        a, b, tolerance=args.tolerance
    )
    print(report)
    if regressions and args.fail_on_regression:
        return 1
    return 0


def make_parser():
    """The CLI's argument parser, built once per process.

    Building the tree costs milliseconds, a visible share of a small
    verdict, so every command reuses one. Each call refreshes the one
    environment-derived default (``--jobs`` from ``REPRO_JOBS``), so
    the shared tree parses exactly like a freshly built one; every
    ``parse_args`` call returns a new namespace.
    """
    parser, jobs_actions = _parser_tree()
    jobs = default_jobs()
    for action in jobs_actions:
        action.default = jobs
    return parser


@functools.lru_cache(maxsize=None)
def _parser_tree():
    """``(parser, --jobs actions)``; built on the first call only."""
    jobs_actions = []
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CASCompCert reproduction: compile, run, validate "
        "and race-check concurrent MiniC programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def obs_flags(p):
        p.add_argument(
            "--metrics", action="store_true",
            help="collect metrics and print a summary table "
            "(also REPRO_METRICS=1)",
        )
        p.add_argument(
            "--trace", metavar="FILE",
            help="write a JSON-lines span trace to FILE "
            "(also REPRO_TRACE=FILE)",
        )
        p.add_argument(
            "--ledger", metavar="FILE",
            help="write a versioned run manifest (config, content "
            "hash, phase times, metrics, verdict) to FILE "
            "(also REPRO_LEDGER=FILE); diff with 'repro compare'",
        )

    def common(p, tristate=False):
        p.add_argument("file", help="MiniC source file")
        if tristate:
            # Replay merges these with the witness's recorded program
            # info: an *explicit* CLI choice wins (including
            # --no-lock/--no-optimize), an omitted flag defers to the
            # witness. A plain store_true cannot express "explicitly
            # off", which made lock:true witnesses impossible to
            # replay unlocked.
            p.add_argument(
                "-O", "--optimize",
                action=argparse.BooleanOptionalAction, default=None,
                help="enable ConstProp/CSE/Deadcode (default: as "
                "recorded in the witness)",
            )
            p.add_argument(
                "--lock",
                action=argparse.BooleanOptionalAction, default=None,
                help="link against the lock object (default: as "
                "recorded in the witness)",
            )
        else:
            p.add_argument(
                "-O", "--optimize", action="store_true",
                help="enable ConstProp/CSE/Deadcode",
            )
            p.add_argument(
                "--lock", action="store_true",
                help="link against the lock object (lock()/unlock())",
            )
        obs_flags(p)

    def live_flags(p):
        p.add_argument(
            "--status", metavar="FILE",
            help="rewrite a live heartbeat JSON snapshot to FILE "
            "about once per second (also REPRO_STATUS=FILE; "
            "interval via REPRO_STATUS_INTERVAL); watch with "
            "'repro status FILE'",
        )

    p = sub.add_parser("compile", help="run the pipeline")
    common(p)
    p.add_argument(
        "--dump", metavar="STAGE",
        help="pretty-print a stage (pass name, 'source', or 'all')",
    )
    p.set_defaults(func=cmd_compile)

    def por_flag(p):
        p.add_argument(
            "--por", action=argparse.BooleanOptionalAction,
            default=None,
            help="partial-order reduction (default: REPRO_POR env "
            "setting, on unless set to 0)",
        )

    def jobs_flag(p):
        jobs_actions.append(p.add_argument(
            "-j", "--jobs", type=int, default=1,
            metavar="N",
            help="shard the exploration across N forked worker "
            "processes (default: REPRO_JOBS env setting or 1 = "
            "sequential)",
        ))

    p = sub.add_parser("run", help="enumerate behaviours")
    common(p)
    por_flag(p)
    jobs_flag(p)
    live_flags(p)
    p.add_argument(
        "--threads", default="main",
        help="comma-separated thread entry functions",
    )
    p.add_argument("--stage", default="source")
    p.add_argument("--max-states", type=int, default=400000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate", help="translation-validate all passes")
    common(p)
    p.add_argument(
        "--max-failures", type=int, default=3, metavar="N",
        help="print at most N failures per pass (default 3)",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("drf", help="data-race-freedom check")
    common(p)
    por_flag(p)
    jobs_flag(p)
    live_flags(p)
    p.add_argument("--threads", default="main")
    p.add_argument("--max-states", type=int, default=400000)
    p.add_argument(
        "--max-atomic-steps", type=int, default=64, metavar="N",
        help="bound on atomic-block prediction runs (recorded in "
        "witness metadata so replay uses the same horizon)",
    )
    p.add_argument(
        "--witness-out", metavar="FILE",
        help="write a found race as a replayable witness artifact",
    )
    p.add_argument(
        "--minimize", action="store_true",
        help="shrink the witness schedule before writing it",
    )
    p.set_defaults(func=cmd_drf)

    p = sub.add_parser(
        "npdrf",
        help="race-check under the non-preemptive semantics (NPDRF)",
    )
    common(p)
    por_flag(p)
    jobs_flag(p)
    live_flags(p)
    p.add_argument("--threads", default="main")
    p.add_argument("--max-states", type=int, default=400000)
    p.add_argument(
        "--max-atomic-steps", type=int, default=64, metavar="N",
        help="bound on atomic-block prediction runs",
    )
    p.set_defaults(func=cmd_npdrf)

    p = sub.add_parser(
        "fuzz",
        help="run a persistent differential fuzzing campaign",
        description="Generate seeded random programs at scale and push "
        "each through the differential harness (compile + per-pass "
        "validation + behaviour equivalence, DRF/NPDRF agreement, "
        "lock-client race checks). Divergences and unexpected races "
        "are auto-minimized into replayable witness artifacts in a "
        "content-hash-deduplicated corpus; the checkpoint is rewritten "
        "atomically after every input, so a killed campaign resumes "
        "without re-running finished work. Exit 0: no unexpected "
        "findings (expected races from --inject-broken do not fail "
        "the run); exit 1: at least one unexpected finding.",
    )
    obs_flags(p)
    jobs_flag(p)
    live_flags(p)
    p.add_argument(
        "--out", default="fuzz-corpus", metavar="DIR",
        help="campaign directory: programs/, witnesses/, "
        "findings.json, checkpoint.json (default ./fuzz-corpus)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed: same seed => byte-identical programs and "
        "corpus hashes (default 0)",
    )
    p.add_argument(
        "--count", type=int, default=50, metavar="N",
        help="inputs in the campaign plan (default 50)",
    )
    p.add_argument(
        "--kinds", default=",".join(DEFAULT_FUZZ_KINDS),
        metavar="K1,K2,...",
        help="generator kinds to round-robin (default: {})".format(
            ",".join(DEFAULT_FUZZ_KINDS)
        ),
    )
    p.add_argument(
        "--inject-broken", action="store_true",
        help="also generate deliberately broken lock clients whose "
        "races are *expected* findings — exercises the campaign's own "
        "detect/minimize/replay alarm path",
    )
    p.add_argument("--max-states", type=int, default=60000)
    p.add_argument(
        "--max-events", type=int, default=24, metavar="N",
        help="behaviour-trace event cap for equivalence checks "
        "(default 24)",
    )
    p.add_argument(
        "--max-atomic-steps", type=int, default=64, metavar="N",
        help="bound on atomic-block prediction runs (default 64)",
    )
    p.add_argument(
        "--minimize-rounds", type=int, default=16, metavar="N",
        help="ddmin round budget per witness shrink (default 16)",
    )
    p.add_argument(
        "--minimize-seconds", type=float, default=5.0, metavar="S",
        help="wall-clock budget per witness shrink (default 5.0)",
    )
    p.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop admitting new inputs after this many seconds (the "
        "checkpoint makes the rest resumable)",
    )
    p.add_argument(
        "--fresh", action="store_true",
        help="discard an existing checkpoint instead of resuming",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "replay", help="re-execute a recorded witness and verify it"
    )
    common(p, tristate=True)
    p.add_argument(
        "--witness", required=True, metavar="FILE",
        help="witness artifact to replay (from drf --witness-out)",
    )
    p.add_argument(
        "--threads", default=None,
        help="thread entry functions (default: the witness's recorded "
        "program info)",
    )
    p.add_argument(
        "--minimize", action="store_true",
        help="shrink the witness schedule after verifying it",
    )
    p.add_argument(
        "--witness-out", metavar="FILE",
        help="re-save the (possibly minimized) witness artifact",
    )
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "inspect",
        help="render a witness, trace, run manifest, heartbeat or "
        "fuzz artifact",
    )
    p.add_argument(
        "artifact",
        help="witness, run manifest, heartbeat or fuzz JSON, or a "
        "--trace JSONL file, to render",
    )
    p.add_argument(
        "--metrics", action="store_true", help=argparse.SUPPRESS
    )
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "profile",
        help="render a trace or run manifest: where a metered run's "
        "wall-clock went",
    )
    # NB: dest must not be "trace" — main() treats args.trace as the
    # *output* trace to open for writing, which would truncate the
    # very file we are here to read.
    p.add_argument(
        "trace_file", metavar="FILE",
        help="--trace JSONL file (per-worker .w* sibling files are "
        "picked up automatically) or --ledger run manifest",
    )
    p.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="rows in the top-spans-by-self-time table (default 12)",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "status",
        help="render a live heartbeat file from a --status run",
    )
    p.add_argument(
        "file", help="heartbeat JSON file a running command rewrites"
    )
    p.add_argument(
        "--watch", action="store_true",
        help="keep re-rendering until the run reports phase=done "
        "(Ctrl-C to stop)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="re-render cadence with --watch (default 1.0)",
    )
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "compare",
        help="diff two run manifests written with --ledger",
    )
    p.add_argument("a", help="baseline run manifest (run.json)")
    p.add_argument("b", help="candidate run manifest")
    p.add_argument(
        "--tolerance", type=float, default=0.4, metavar="T",
        help="relative slowdown on a directed metric counted as a "
        "regression (default 0.4)",
    )
    p.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when a directed metric regressed beyond the "
        "tolerance (or the behaviour fingerprints diverged on "
        "identical inputs)",
    )
    p.set_defaults(func=cmd_compare)
    return parser, tuple(jobs_actions)


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        # Flags layer on top of the REPRO_METRICS / REPRO_TRACE env vars.
        obs.configure_from_env()
        obs.configure(
            metrics=getattr(args, "metrics", False),
            trace=getattr(args, "trace", None),
        )
    except OSError as exc:
        print("repro: cannot open trace file: {}".format(exc),
              file=sys.stderr)
        return 2
    # Live layer: heartbeat and run ledger. Flags layer on the env vars
    # the same way the obs sinks do.
    live_status.configure_from_env()
    if getattr(args, "status", None):
        live_status.configure(args.status)
    ledger.configure_from_env(
        args.command, argv=sys.argv[1:] if argv is None else list(argv)
    )
    if getattr(args, "ledger", None):
        ledger.configure(
            args.ledger, args.command,
            argv=sys.argv[1:] if argv is None else list(argv),
        )
    if ledger.active is not None:
        # The manifest's metrics section needs the registry, whether
        # or not --metrics was passed.
        obs.configure(metrics=True)
    # --ledger implies the registry but not the stdout table; only an
    # explicit --metrics (or REPRO_METRICS) prints the summary.
    show_summary = getattr(args, "metrics", False) or os.environ.get(
        obs.ENV_METRICS, ""
    ).strip().lower() in ("1", "true", "yes", "on")
    code = 2
    try:
        result = args.func(args)
        if show_summary and obs.metrics_enabled():
            print()
            print(obs.render_summary())
        code = result
        return result
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        code = 0
        return 0
    except UsageError as exc:
        print("repro: error: {}".format(exc), file=sys.stderr)
        return 2
    except ExplorationLimit as exc:
        # Not a crash: a bound cut the search before a verdict. Only
        # the state bound has a flag to raise.
        print(
            "repro: inconclusive: {}{}".format(
                exc,
                "; raise --max-states to explore further"
                if exc.bound == "states" else "",
            ),
            file=sys.stderr,
        )
        return 2
    except KeyboardInterrupt:
        # The conventional 128+SIGINT code, with a one-line note
        # instead of a traceback. The ledger/status finalizers below
        # still run and stamp the 130, and any parallel coordinator's
        # ``finally`` has already reaped its forked workers on the way
        # up — Ctrl-C must leak neither artifacts nor processes.
        print("repro: interrupted", file=sys.stderr)
        code = 130
        return 130
    except Exception as exc:
        # Internal failure, distinct from an analysis finding (1):
        # scripts gating on "race found" must not confuse it with a
        # crash or an exceeded exploration bound.
        print(
            "repro: internal error: {}: {}".format(
                type(exc).__name__, exc
            ),
            file=sys.stderr,
        )
        return 2
    finally:
        # Manifest and final heartbeat go first: the ledger reads the
        # metrics snapshot obs.shutdown() is about to drop, and both
        # must record the exit status. Neither may mask the command's
        # own outcome.
        try:
            ledger.finalize(code, obs.snapshot())
        except Exception as exc:
            print(
                "repro: ledger write failed: {}".format(exc),
                file=sys.stderr,
            )
        try:
            live_status.finalize(exit_status=code)
        except Exception as exc:
            print(
                "repro: status write failed: {}".format(exc),
                file=sys.stderr,
            )
        obs.shutdown()


if __name__ == "__main__":
    sys.exit(main())
