"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``compile FILE [--dump STAGE] [-O]`` — run the pipeline on a MiniC
  file; print the pass list, or the pretty-printed module at a stage;
* ``run FILE --threads entry1,entry2 [--stage STAGE] [--lock]`` —
  enumerate the behaviours of the program under the preemptive
  semantics (optionally linked against the lock object);
* ``validate FILE [-O] [--max-failures N]`` — translation-validate
  every pass;
* ``drf FILE --threads entry1,entry2 [--lock]`` — race-check under
  the preemptive semantics (DRF); with ``--witness-out W`` a found race
  is written as a replayable witness artifact (``--minimize`` shrinks
  it first);
* ``npdrf FILE --threads e1,e2`` — the same check under the
  *non-preemptive* semantics (the paper's NPDRF), without the witness
  flags; one command body serves both names;
* ``replay FILE --witness W`` — re-execute a witness against the
  program and verify its verdict reproduces (``--minimize`` /
  ``--witness-out`` shrink and re-save it);
* ``inspect ARTIFACT`` — render any artifact the tool writes: a
  witness as a per-thread timeline, a run manifest as a fact sheet, a
  heartbeat as a status block, a fuzz findings log or checkpoint, or a
  ``--trace`` JSONL file as a profile of where a metered run's
  wall-clock went (see :mod:`repro.obs.explain`);
* ``fuzz --seed S --count N [--out DIR] [--jobs N]`` — run a
  persistent differential fuzzing campaign (see :mod:`repro.fuzz`):
  seeded generators, each family decided by the framework's checkers
  (a bound gives an expected ``inconclusive`` finding), a
  content-hash-deduplicated corpus, auto-minimized replayable witnesses
  for every race, and an atomically checkpointed resume that survives
  ``kill -9``;
* ``compare A B [--fail-on-regression]`` — diff two run manifests
  written with ``--ledger`` (see :mod:`repro.obs.ledger`).

Every command that reads a MiniC file, and ``fuzz``, accepts
``--metrics`` (print a metrics summary table) and ``--trace FILE``
(write a JSON-lines span trace).
``--ledger FILE`` additionally writes the run record: a versioned
manifest — resolved config, content hash of the input + pass pipeline,
phase wall times, peak RSS, final metrics, behaviour fingerprint,
verdict and exit status — that ``repro inspect`` renders and ``repro
compare`` diffs. The exploration commands and ``fuzz`` also take
``--status FILE`` for a ~1s-interval heartbeat snapshot (``watch repro
inspect FILE`` follows it). A record path that cannot be written is a
usage error before the command runs.

``run``, ``drf`` and ``npdrf`` accept ``--por/--no-por`` to control the
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
from repro.compiler import compile_minic, source_stage, stage_names
from repro.compiler.pprint import dump_pipeline, dump_stage
from repro.fuzz.generators import DEFAULT_KINDS as DEFAULT_FUZZ_KINDS
from repro.semantics.parallel import default_jobs
from repro.semantics.witness import CaptureError
from repro.simulation.validate import validate_compilation
from repro.tso import DEFAULT_LOCK_ADDR, lock_spec_decl


class UsageError(Exception):
    """A user-input problem surfaced after argparse: exit code 2. With
    ``flag``, it is a bad value of that flag, reported the way argparse
    reports one: ``repro CMD: error: argument FLAG: ...``."""

    def __init__(self, message, flag=None):
        super().__init__(message)
        self.flag = flag


def _non_negative(kind):
    """An argparse ``type=`` that reads a ``kind`` (``int`` or
    ``float``) bound and rejects a negative one as a usage error."""

    def parse(text):
        value = kind(text)
        if value < 0:
            raise argparse.ArgumentTypeError(
                "must be non-negative, got {}".format(text)
            )
        return value

    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = kind.__name__
    return parse


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
    known ones."""
    known = ctx.entry_names()
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


def _check_stage(args, flag, name, extra=()):
    """Reject a stage name the pipeline would not build with
    ``args.optimize``, before any pass runs; ``extra`` lists the other
    names ``flag`` accepts."""
    valid = stage_names(args.optimize) + tuple(extra)
    if name in valid:
        return
    why = (
        "stage {!r} needs -O".format(name)
        if name in stage_names(True)
        else "unknown stage {!r}".format(name)
    )
    hint = "" if args.optimize else " (-O adds ConstProp, CSE, Deadcode)"
    raise UsageError(
        "{}; valid stages: {}{}".format(why, ", ".join(valid), hint),
        flag=flag,
    )


def _load(args):
    """The preamble of the commands that explore a MiniC file (``run``,
    ``drf``, ``npdrf``, ``replay``): build ``args.file`` (against the
    lock object with ``args.lock``), then link the program at
    ``args.stage`` (the source when absent) on ``args.threads`` and
    check the entries against it. Only that stage is built: the source
    stage runs no pass, ``run --stage P`` runs the passes up to ``P``.
    Returns ``(ctx, entries)``.

    It builds through this module's ``compile_unit``, ``link_units``
    and ``compile_minic``, not ``ClientSystem``: perfbench times the
    front-end and compile layers by wrapping those three names here."""
    stage = getattr(args, "stage", "source")
    _check_stage(args, "--stage", stage)
    module, genv = _build(args.file, args.lock)
    if stage == "source":
        linked = source_stage(module)
    else:
        linked = compile_minic(
            module, upto=stage, optimize=args.optimize
        ).target
    entries = _parse_threads(args.threads)
    ctx = GlobalContext(link_program(
        [linked], [genv], entries,
        obj=lock_spec_decl() if args.lock else None,
    ))
    _check_entries(ctx, entries)
    return ctx, entries


def cmd_compile(args):
    if args.dump:
        _check_stage(args, "--dump", args.dump, extra=("all",))
    module, _genv = _build(args.file, args.lock)
    result = compile_minic(module, optimize=args.optimize)
    if args.dump == "all":
        print(dump_pipeline(result))
        return 0
    if args.dump:
        print(dump_stage(result.stage(args.dump)))
        return 0
    for stage in result.stages:
        print("{:14s} ({})".format(stage.name, stage.lang.name))
    return 0


def _note_run_config(args, entries):
    """Record the run's *resolved* configuration and input identity in
    the active ledger (no-op without one): flags, the gate defaults
    they fell back to, and the content hash of the program + pass
    pipeline — the key the validation-cache work will index."""
    from repro.semantics.por import default_reduce

    por = args.por if args.por is not None else default_reduce()
    pipeline = stage_names(args.optimize)
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
    ctx, entries = _load(args)
    _note_run_config(args, entries)
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
        print("{:14s} {}".format(v.pass_name, _pass_status(v)))
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


def _pass_status(v):
    """``ok``, ``FAILED``, or ``vacuous: ...`` naming the entries that
    were not run (a pass that checked nothing for them is not ``ok``,
    but it found no fault either)."""
    if not v.ok:
        return "FAILED"
    if v.report.skipped:
        return "vacuous: {} not run (pointer parameter, no shared " \
            "global)".format(", ".join(v.report.skipped))
    return "ok"


#: The semantics each race-check command explores: ``drf`` the
#: preemptive one, ``npdrf`` the non-preemptive one (the paper's NPDRF).
_RACE_SEMANTICS = {
    "drf": PreemptiveSemantics,
    "npdrf": NonPreemptiveSemantics,
}


def cmd_drf(args):
    """``drf`` and ``npdrf``: the command name picks the semantics;
    only ``drf`` writes witnesses."""
    if getattr(args, "minimize", False) and not args.witness_out:
        raise UsageError("--minimize needs --witness-out")
    ctx, entries = _load(args)
    _note_run_config(args, entries)
    semantics = _RACE_SEMANTICS[args.command](
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
    ledger.note(verdict=args.command if verdict else "race")
    print(args.command.upper() + ":", verdict)
    if witness is not None and getattr(args, "witness_out", None):
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
    args.threads, args.lock, args.optimize = threads, use_lock, optimize
    ctx, _entries = _load(args)
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


def cmd_inspect(args):
    from repro.obs.explain import inspect_path

    try:
        text = inspect_path(args.artifact)
    except (OSError, ValueError, KeyError, CaptureError) as exc:
        raise UsageError("cannot inspect {}: {}".format(args.artifact, exc))
    print(text)
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
            help="collect metrics and print a summary table",
        )
        p.add_argument(
            "--trace", metavar="FILE",
            help="write a JSON-lines span trace to FILE",
        )
        p.add_argument(
            "--ledger", metavar="FILE",
            help="write a versioned run manifest (config, content "
            "hash, phase times, metrics, verdict) to FILE; diff "
            "with 'repro compare'",
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
            "about once per second (interval via "
            "REPRO_STATUS_INTERVAL); follow with 'watch repro "
            "inspect FILE'",
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
    p.add_argument(
        "--stage", default="source",
        help="pipeline stage to run (default: source, which compiles "
        "nothing; a pass name compiles up to that pass)",
    )
    p.add_argument("--max-states", type=_non_negative(int), default=400000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("validate", help="translation-validate all passes")
    common(p)
    p.add_argument(
        "--max-failures", type=int, default=3, metavar="N",
        help="print at most N failures per pass (default 3)",
    )
    p.set_defaults(func=cmd_validate)

    for name, summary in (
        ("drf", "data-race-freedom check"),
        ("npdrf", "race-check under the non-preemptive semantics "
         "(NPDRF)"),
    ):
        p = sub.add_parser(name, help=summary)
        common(p)
        por_flag(p)
        jobs_flag(p)
        live_flags(p)
        p.add_argument("--threads", default="main")
        p.add_argument(
            "--max-states", type=_non_negative(int), default=400000
        )
        p.add_argument(
            "--max-atomic-steps", type=_non_negative(int), default=64,
            metavar="N",
            help="bound on atomic-block prediction runs",
        )
        if name == "drf":
            p.add_argument(
                "--witness-out", metavar="FILE",
                help="write a found race as a replayable witness "
                "artifact",
            )
            p.add_argument(
                "--minimize", action="store_true",
                help="shrink the witness schedule before writing it "
                "(needs --witness-out)",
            )
        p.set_defaults(func=cmd_drf)

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
        "--count", type=_non_negative(int), default=50, metavar="N",
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
    p.add_argument("--max-states", type=_non_negative(int), default=60000)
    p.add_argument(
        "--max-events", type=_non_negative(int), default=24, metavar="N",
        help="behaviour-trace event cap for equivalence checks "
        "(default 24)",
    )
    p.add_argument(
        "--minimize-rounds", type=_non_negative(int), default=16, metavar="N",
        help="ddmin round budget per witness shrink (default 16)",
    )
    p.add_argument(
        "--minimize-seconds", type=_non_negative(float), default=5.0,
        metavar="S",
        help="wall-clock budget per witness shrink (default 5.0)",
    )
    p.add_argument(
        "--duration", type=_non_negative(float), default=None,
        metavar="SECONDS",
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
    p.set_defaults(func=cmd_inspect)

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


def _unwritable(path):
    """Why no record can be written at ``path``, or ``None``. The
    ledger and heartbeat replace ``path`` through a temp file beside
    it, so its directory must exist and be writable."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return "is a directory"
    if not os.path.isdir(directory):
        return "no such directory {!r}".format(directory)
    if not os.access(directory, os.W_OK):
        return "directory {!r} is not writable".format(directory)
    return None


def _open_records(args, argv):
    """Switch on the records the flags ask for: the metrics registry
    (``--metrics``, or ``--ledger``, whose manifest carries the final
    metrics), the span trace, the heartbeat and the run ledger. Every
    path is checked before any is opened, so an unwritable one fails
    the command before it runs instead of losing the record after."""
    for flag in ("--trace", "--ledger", "--status"):
        path = getattr(args, flag[2:], None)
        why = path and _unwritable(path)
        if why:
            raise UsageError("cannot write {!r}: {}".format(path, why),
                             flag=flag)
    try:
        obs.configure(
            metrics=getattr(args, "metrics", False)
            or bool(getattr(args, "ledger", None)),
            trace=getattr(args, "trace", None),
        )
    except OSError as exc:
        raise UsageError(
            "cannot write {!r}: {}".format(args.trace, exc.strerror),
            flag="--trace",
        )
    if getattr(args, "status", None):
        live_status.configure(args.status)
    if getattr(args, "ledger", None):
        ledger.configure(
            args.ledger, args.command,
            argv=sys.argv[1:] if argv is None else list(argv),
        )


def main(argv=None):
    args = make_parser().parse_args(argv)
    code = 2
    try:
        _open_records(args, argv)
        result = args.func(args)
        # --ledger implies the registry but not the stdout table.
        if getattr(args, "metrics", False) and obs.metrics_enabled():
            print()
            print(obs.render_summary())
        code = result
        return result
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        code = 0
        return 0
    except UsageError as exc:
        if exc.flag is None:
            print("repro: error: {}".format(exc), file=sys.stderr)
        else:
            print(
                "repro {}: error: argument {}: {}".format(
                    args.command, exc.flag, exc
                ),
                file=sys.stderr,
            )
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
