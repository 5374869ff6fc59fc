"""The campaign driver: generate → execute → minimize → persist.

One campaign is ``count`` deterministic inputs (:func:`repro.fuzz.
generators.plan`) pushed through the *full* differential harness:

* ``minic-seq`` — compile through the optimizing pipeline, translation-
  validate every pass, then compare source-vs-target behaviour sets
  (the GCorrect conclusion);
* ``cimp-pair`` — check DRF ⇔ NPDRF agreement and, on DRF programs,
  preemptive ≈ non-preemptive behaviour equality (Lem. 9);
* ``minic-lock`` — race-check a lock-disciplined client linked against
  the lock object; any race is a finding. ``minic-lock-broken`` is the
  injected-divergence variant whose race is *expected* — and whose
  absence is itself a finding (``missed-race``), because a fuzzer
  whose alarm never rings is untested equipment.

Any divergence, unexpected race or harness crash becomes a **finding**
in the corpus's findings log; races are auto-minimized
(:func:`repro.semantics.replay.minimize_witness`, under the campaign's
round/wall-clock budget) into replayable witness artifacts that
``repro replay`` re-executes against the corpus program file.

Execution scales across the fork pool of :mod:`repro.common.pool`
(``jobs > 1``), the one the parallel explorer uses: workers are
metered, traced and heartbeat-sharded like explorer shards, and
regenerate their inputs deterministically from ``(kind, seed,
index)`` — nothing but small task/result tuples crosses the queues.
Only the coordinator touches the corpus directory, so no file needs
cross-process locking. The checkpoint is rewritten atomically after
*every* absorbed result: ``kill -9`` at any instant loses at most the
in-flight inputs, and the next run resumes past everything finished.
A worker that dies ends the campaign with an error within seconds;
the pool reaps the rest, on Ctrl-C too.
"""

import os
import time
import traceback

from repro import obs
from repro.common import pool as _pool
from repro.common.values import VInt
from repro.compiler import compile_minic
from repro.lang.module import GlobalEnv, ModuleDecl, Program, link_program
from repro.langs.cimp import CIMP, parse_module as parse_cimp
from repro.langs.minic import compile_unit, link_units
from repro.obs import ledger
from repro.obs import status as _status
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    equivalent,
    find_race,
    minimize_witness,
    program_behaviours,
    record_race,
)
from repro.simulation.validate import validate_compilation
from repro.tso import DEFAULT_LOCK_ADDR, lock_spec_decl
from repro.fuzz.corpus import Corpus, CorpusError
from repro.fuzz.generators import (
    DEFAULT_KINDS,
    GENERATOR_VERSION,
    GeneratorError,
    KINDS,
    derive_seed,
    generate,
)

#: Address used for the shared CImp cell (mirrors the test helpers).
_CELL = 100

#: Behaviour samples kept on a divergence finding (full sets can be
#: huge; the witness of record is the corpus program, not the log).
_SAMPLE = 8

#: Tasks outstanding per worker: one running, one queued behind it.
_PER_WORKER = 2


class CampaignConfig:
    """Resolved knobs for one ``repro fuzz`` run."""

    __slots__ = ("seed", "count", "kinds", "out", "jobs", "max_states",
                 "max_events", "max_atomic_steps", "minimize_rounds",
                 "minimize_seconds", "duration", "fresh")

    def __init__(self, seed=0, count=50, kinds=DEFAULT_KINDS,
                 out="fuzz-corpus", jobs=1, max_states=60000,
                 max_events=24, max_atomic_steps=64, minimize_rounds=16,
                 minimize_seconds=5.0, duration=None, fresh=False):
        self.seed = int(seed)
        self.count = int(count)
        self.kinds = tuple(kinds)
        self.out = str(out)
        self.jobs = max(int(jobs), 1)
        self.max_states = int(max_states)
        self.max_events = int(max_events)
        self.max_atomic_steps = int(max_atomic_steps)
        self.minimize_rounds = minimize_rounds
        self.minimize_seconds = minimize_seconds
        self.duration = None if duration is None else float(duration)
        self.fresh = bool(fresh)
        for kind in self.kinds:
            if kind not in KINDS:
                raise GeneratorError(
                    "unknown generator kind {!r} (expected one of {})"
                    .format(kind, ", ".join(sorted(KINDS)))
                )

    def campaign_dict(self):
        """The identity block stamped into findings log + checkpoint."""
        return {
            "seed": self.seed,
            "count": self.count,
            "kinds": list(self.kinds),
            "generator_version": GENERATOR_VERSION,
        }


class CampaignStats:
    """What one :func:`run_campaign` call actually did."""

    __slots__ = ("executed", "skipped", "findings", "unexpected",
                 "dedup_hits", "programs_added", "elapsed_seconds",
                 "stopped")

    def __init__(self):
        self.executed = 0
        self.skipped = 0
        self.findings = 0
        self.unexpected = 0
        self.dedup_hits = 0
        self.programs_added = 0
        self.elapsed_seconds = 0.0
        self.stopped = "done"

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


# ----- program construction --------------------------------------------------


def _build_minic(inp):
    """Compile one generated MiniC unit: ``(pipeline result, genv)``."""
    extra = {"L": DEFAULT_LOCK_ADDR} if inp.lock else None
    modules, genvs, _ = link_units([compile_unit(inp.source)], extra)
    module, genv = modules[0], genvs[0]
    if inp.lock:
        module = module.with_forbidden({DEFAULT_LOCK_ADDR})
    return compile_minic(module, optimize=inp.optimize), genv


def _minic_program(stage, genv, entries, lock):
    return link_program(
        [stage], [genv], entries, obj=lock_spec_decl() if lock else None
    )


def _cimp_program(inp):
    symbols = {"C": _CELL}
    module = parse_cimp(inp.source, symbols=symbols)
    ge = GlobalEnv(symbols, {_CELL: VInt(0)})
    return Program([ModuleDecl(CIMP, ge, module)], list(inp.entries))


# ----- per-input checks ------------------------------------------------------


def _finding(kind, inp, detail, expected=False, extra=None):
    rec = {
        "kind": kind,
        "expected": bool(expected),
        "detail": detail,
        "input": {
            "kind": inp.kind,
            "index": inp.index,
            "seed": inp.seed,
            "hash": inp.content_hash,
        },
    }
    if extra:
        rec.update(extra)
    return rec


def _check_minic_seq(inp, cfg):
    """Per-pass validation + source-vs-target behaviour equality."""
    result, genv = _build_minic(inp)
    mem = genv.memory()
    failed = [
        v.pass_name
        for v in validate_compilation(result, mem, mem.domain())
        if not v.ok
    ]
    if failed:
        return _finding(
            "validation", inp,
            "pass(es) failed translation validation: {}".format(
                ", ".join(failed)
            ),
        )

    def behs(stage):
        prog = _minic_program(stage, genv, inp.entries, inp.lock)
        return program_behaviours(
            GlobalContext(prog), PreemptiveSemantics(),
            max_states=cfg.max_states, max_events=cfg.max_events,
        )

    src = behs(result.source)
    tgt = behs(result.target)
    if not equivalent(src, tgt):
        return _finding(
            "divergence", inp,
            "source and x86 behaviour sets diverge after the "
            "optimizing pipeline",
            extra={
                "source_sample": sorted(map(repr, src))[:_SAMPLE],
                "target_sample": sorted(map(repr, tgt))[:_SAMPLE],
            },
        )
    return None


def _drf_verdict(prog, semantics, cfg):
    ctx = GlobalContext(prog)
    witness = find_race(
        ctx, semantics, max_states=cfg.max_states,
        max_atomic_steps=cfg.max_atomic_steps,
    )
    return witness is None


def _check_cimp_pair(inp, cfg):
    """DRF ⇔ NPDRF agreement; Lem. 9 equivalence on DRF programs."""
    prog = _cimp_program(inp)
    d = _drf_verdict(
        prog, PreemptiveSemantics(cfg.max_atomic_steps), cfg
    )
    n = _drf_verdict(
        prog, NonPreemptiveSemantics(cfg.max_atomic_steps), cfg
    )
    if d != n:
        return _finding(
            "lemma", inp,
            "DRF/NPDRF disagree: DRF={} NPDRF={}".format(d, n),
        )
    if not d:
        return None  # Lem. 9's premise fails: vacuous.
    pre = program_behaviours(
        GlobalContext(prog), PreemptiveSemantics(),
        max_states=cfg.max_states, max_events=cfg.max_events,
    )
    non = program_behaviours(
        GlobalContext(prog), NonPreemptiveSemantics(),
        max_states=cfg.max_states, max_events=cfg.max_events,
    )
    if not equivalent(pre, non):
        return _finding(
            "lemma", inp,
            "preemptive and non-preemptive behaviours diverge on a "
            "DRF program (Lem. 9)",
            extra={
                "preemptive_sample": sorted(map(repr, pre))[:_SAMPLE],
                "nonpreemptive_sample": sorted(map(repr, non))[:_SAMPLE],
            },
        )
    return None


def _check_minic_lock(inp, cfg, program_file):
    """Race-check a lock client; minimize any race into a witness."""
    result, genv = _build_minic(inp)
    prog = _minic_program(result.source, genv, inp.entries, True)
    ctx = GlobalContext(prog)
    semantics = PreemptiveSemantics(
        max_atomic_steps=cfg.max_atomic_steps
    )
    witness = find_race(ctx, semantics, max_states=cfg.max_states)
    if witness is None:
        if not inp.expect_drf:
            return _finding(
                "missed-race", inp,
                "injected broken lock client was reported race-free "
                "(the fuzzer's own alarm failed)",
            )
        return None
    record = record_race(
        witness,
        program={
            "file": program_file,
            "threads": ",".join(inp.entries),
            "lock": True,
            "optimize": inp.optimize,
        },
        meta={"max_atomic_steps": semantics.max_atomic_steps},
    )
    original_steps = len(record.schedule)
    record = minimize_witness(
        ctx, record,
        max_rounds=cfg.minimize_rounds,
        max_seconds=cfg.minimize_seconds,
    )
    return _finding(
        "race", inp,
        "data race in a lock-disciplined client"
        if inp.expect_drf
        else "injected race detected (broken lock discipline)",
        expected=not inp.expect_drf,
        extra={
            "witness_record": record.as_dict(),
            "schedule_steps": len(record.schedule),
            "original_steps": original_steps,
        },
    )


def execute_input(inp, cfg):
    """Run every check for one input; returns a JSON-able result dict.

    Harness crashes are captured as ``crash`` findings (always
    unexpected) instead of killing the campaign: a program that makes
    the toolchain raise is exactly the kind of input worth keeping.
    """
    corpus = Corpus(cfg.out)
    program_file = corpus.program_path(inp.content_hash, inp.extension)
    t0 = time.monotonic()
    try:
        if inp.kind == "minic-seq":
            finding = _check_minic_seq(inp, cfg)
        elif inp.kind == "cimp-pair":
            finding = _check_cimp_pair(inp, cfg)
        elif inp.kind in ("minic-lock", "minic-lock-broken"):
            finding = _check_minic_lock(inp, cfg, program_file)
        else:
            raise GeneratorError(
                "no harness for generator kind {!r}".format(inp.kind)
            )
    except Exception:
        finding = _finding(
            "crash", inp, traceback.format_exc(limit=20)
        )
    return {
        "index": inp.index,
        "kind": inp.kind,
        "seed": inp.seed,
        "hash": inp.content_hash,
        "elapsed_seconds": round(time.monotonic() - t0, 6),
        "finding": finding,
    }


# ----- the worker pool -------------------------------------------------------


def _pool_worker(pool, wid, cfg):
    """One forked executor: regenerate, execute, ship the result."""
    inbox = pool.inboxes[wid]
    hb = _status.writer
    executed = 0
    while True:
        task = inbox.get()
        if task == _pool.HALT:
            break
        index, kind, seed = task
        inp = generate(kind, seed, index=index)
        pool.coord.put(("res", wid, execute_input(inp, cfg)))
        executed += 1
        if hb is not None:
            hb.beat(states=executed, frontier=0)
    return {"executed": executed}


def _run_pool(cfg, pending, admit, absorb, deadline):
    """Coordinator for ``jobs`` forked executors.

    Each worker has at most :data:`_PER_WORKER` tasks outstanding, and
    the worker whose result just came back is refilled, so a
    ``--duration`` budget stops admitting new work promptly; the
    checkpoint marks only *absorbed* results, so anything in flight at
    an interrupt simply reruns next time. The workers' metrics dumps
    are merged into this process's registry after the reap.
    """
    stopped = "done"
    queue_it = iter(pending)
    inflight = [0] * cfg.jobs
    exhausted = False

    def feed(pool, wid):
        nonlocal exhausted, stopped
        while not exhausted and inflight[wid] < _PER_WORKER:
            if deadline is not None and time.monotonic() >= deadline:
                stopped = "duration"
                exhausted = True
                break
            index = next(queue_it, None)
            if index is None:
                exhausted = True
                break
            inp = admit(index)
            pool.inboxes[wid].put((index, inp.kind, inp.seed))
            inflight[wid] += 1

    with _pool.Pool(cfg.jobs, _pool_worker, (cfg,), phase="fuzz") as pool:
        for wid in range(cfg.jobs):
            feed(pool, wid)
        if any(inflight):
            for msg in pool.messages():
                if msg[0] == "err":
                    raise RuntimeError(
                        "fuzz campaign failed: {}".format(msg[2][1])
                    )
                wid = msg[1]
                inflight[wid] -= 1
                absorb(msg[2])
                feed(pool, wid)
                if not any(inflight):
                    break
    for stats in pool.byes.values():
        obs.merge_dump((stats or {}).get("metrics"))
    return stopped


# ----- the campaign ----------------------------------------------------------


def run_campaign(cfg):
    """Run (or resume) one campaign; returns :class:`CampaignStats`.

    Only this coordinator writes to the corpus directory. After every
    absorbed result the checkpoint is atomically rewritten, so the
    campaign survives ``kill -9`` losing at most in-flight inputs.
    """
    corpus = Corpus(cfg.out)
    corpus.ensure_dirs()
    campaign = cfg.campaign_dict()
    done = {}
    if cfg.fresh:
        try:
            os.remove(corpus.checkpoint_path)
        except OSError:
            pass
    else:
        state = corpus.load_checkpoint()
        if state is not None:
            if (
                state.get("seed") != cfg.seed
                or list(state.get("kinds") or ()) != list(cfg.kinds)
            ):
                raise CorpusError(
                    "checkpoint at {} belongs to a different campaign "
                    "(seed={!r}, kinds={!r}); pass --fresh to discard "
                    "it or point --out elsewhere".format(
                        corpus.checkpoint_path,
                        state.get("seed"), state.get("kinds"),
                    )
                )
            done = {
                int(k): v for k, v in (state.get("done") or {}).items()
            }
    corpus.write_findings_header(campaign)
    ledger.set_config(
        seed=cfg.seed, count=cfg.count, kinds=list(cfg.kinds),
        jobs=cfg.jobs, out=cfg.out, duration=cfg.duration,
    )

    stats = CampaignStats()
    pending = [i for i in range(cfg.count) if i not in done]
    stats.skipped = cfg.count - len(pending)
    deadline = (
        None
        if cfg.duration is None
        else time.monotonic() + cfg.duration
    )
    hb = _status.writer
    if hb is not None:
        hb.update(phase="fuzz", budget=cfg.count, jobs=cfg.jobs)
        hb.force(states=len(done), frontier=len(pending))

    def save_checkpoint():
        corpus.save_checkpoint({
            "generator_version": GENERATOR_VERSION,
            "seed": cfg.seed,
            "count": cfg.count,
            "kinds": list(cfg.kinds),
            "done": {str(i): h for i, h in sorted(done.items())},
        })

    def admit(index):
        """Generate input ``index`` and store its program (deduped)."""
        kind = cfg.kinds[index % len(cfg.kinds)]
        inp = generate(kind, derive_seed(cfg.seed, index), index=index)
        _path, added = corpus.add_program(inp)
        if added:
            stats.programs_added += 1
        else:
            stats.dedup_hits += 1
        return inp

    def absorb(result):
        """Persist one finished input: witness, finding, checkpoint."""
        done[result["index"]] = result["hash"]
        stats.executed += 1
        obs.inc("fuzz.inputs")
        finding = result.get("finding")
        if finding:
            stats.findings += 1
            obs.inc("fuzz.findings")
            if finding.get("kind") == "crash":
                obs.inc("fuzz.crashes")
            if not finding.get("expected"):
                stats.unexpected += 1
                obs.inc("fuzz.unexpected")
            witness_rec = finding.pop("witness_record", None)
            if witness_rec is not None:
                finding["witness"] = corpus.save_witness(
                    result["hash"], witness_rec
                )
            corpus.append_finding(finding, campaign=campaign)
        save_checkpoint()

    t0 = time.monotonic()
    with obs.span(
        "fuzz.campaign", count=cfg.count, jobs=cfg.jobs,
        pending=len(pending),
    ):
        if cfg.jobs <= 1 or not _pool.available():
            for index in pending:
                if deadline is not None and \
                        time.monotonic() >= deadline:
                    stats.stopped = "duration"
                    break
                inp = admit(index)
                absorb(execute_input(inp, cfg))
                if hb is not None:
                    hb.beat(
                        states=len(done),
                        frontier=cfg.count - len(done),
                    )
        else:
            stats.stopped = _run_pool(
                cfg, pending, admit, absorb, deadline
            )
    stats.elapsed_seconds = round(time.monotonic() - t0, 6)
    save_checkpoint()
    obs.inc("fuzz.dedup_hits", stats.dedup_hits)
    ledger.note(
        verdict=(
            "fuzz-clean" if stats.unexpected == 0 else "fuzz-findings"
        ),
        executed=stats.executed,
        skipped=stats.skipped,
        findings=stats.findings,
        unexpected=stats.unexpected,
        stopped=stats.stopped,
    )
    if hb is not None:
        hb.force(
            states=len(done), frontier=cfg.count - len(done),
            phase="fuzz",
        )
    return stats
