"""Golden text of witness capture, replay and minimisation.

Each case records one artifact as the exact text it serialises to:

* ``drf examples/racy.c --threads t1,t2 --witness-out``, with and
  without ``--minimize`` (the file the CLI writes);
* the race witnesses of the ``minic-lock-broken`` clients of one fixed
  fuzz plan, minimised under the campaign's round budget;
* ``capture_walk`` schedules on the 2-thread lock counter for fixed
  pick sequences, under both semantics;
* the :class:`ReplayDivergence` message of every way a tampered
  schedule or record can fail to replay.

The texts in ``witness_golden.json`` pin the annotated steps, the
minimiser's choices and the order of the replay checks, so a refactor
of the schedule walk cannot move any of them unnoticed.

The texts must not depend on hash order; CI runs this file under a
fixed ``PYTHONHASHSEED`` too. Regenerate them, after a deliberate
change to the artifact, with::

    PYTHONPATH=src:. python -m tests.semantics.test_witness_golden --write
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from repro.cli import main
from repro.framework.build import ClientSystem, lock_counter_system
from repro.fuzz.generators import plan
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    explore,
    find_race,
)
from repro.semantics.replay import (
    ReplayDivergence,
    minimize_witness,
    replay_schedule,
    replay_witness,
)
from repro.semantics.witness import (
    Schedule,
    ScheduleStep,
    WitnessRecord,
    capture_abort_schedule,
    capture_walk,
    record_race,
    save_witness,
)

from tests.helpers import cimp_program

GOLDEN = os.path.join(os.path.dirname(__file__), "witness_golden.json")

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: The racy CImp program the tamper cases break the witness of.
GUARDED = (
    "t1(){ x := 0; while(x < 2){ x := x + 1; } [C] := 1; }"
    " t2(){ [C] := 2; }"
)

#: A program whose first thread stores to an unallocated address.
ABORTING = "t1(){ [D] := 1; } t2(){ skip; }"

#: The fuzz plan whose broken lock clients are minimised.
FUZZ_SEED = 11
FUZZ_COUNT = 3
FUZZ_ROUNDS = 16

#: Pick sequences for ``capture_walk``.
PICKS = {
    "stride7": [(7 * n + 3) % 12 for n in range(30)],
    "zeros": [0] * 40,
    "high": [11, 5, 9, 2, 7, 1, 10, 4] * 4,
}

SEMANTICS = {
    "preemptive": PreemptiveSemantics,
    "nonpreemptive": NonPreemptiveSemantics,
}


def _text(record):
    buf = io.StringIO()
    save_witness(buf, record)
    return buf.getvalue()


def _schedule_text(schedule):
    """A bare schedule, laid out as :func:`save_witness` lays it out."""
    return json.dumps(schedule.as_dict(), indent=2, sort_keys=True) + "\n"


# ----- the CLI ---------------------------------------------------------------


def _cli_witness(minimize):
    """The witness file ``drf examples/racy.c`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "w.json")
        argv = ["drf", "examples/racy.c", "--threads", "t1,t2", "--por",
                "--witness-out", out]
        if minimize:
            argv.append("--minimize")
        cwd = os.getcwd()
        os.chdir(REPO_ROOT)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
        assert code == 1
        with open(out, encoding="utf-8") as handle:
            return handle.read()


# ----- the fuzz plan ---------------------------------------------------------


def _fuzz_witnesses():
    """``hash prefix -> witness text`` of each broken lock client."""
    found = {}
    for inp in plan(FUZZ_SEED, FUZZ_COUNT, kinds=("minic-lock-broken",)):
        system = ClientSystem(
            [inp.source], inp.entries, use_lock=inp.lock,
            optimize=inp.optimize,
        )
        ctx = GlobalContext(system.source_program())
        semantics = PreemptiveSemantics()
        witness = find_race(ctx, semantics, max_states=60000, reduce=True)
        assert witness is not None
        record = record_race(
            witness,
            program={
                "file": inp.content_hash[:12] + inp.extension,
                "threads": ",".join(inp.entries),
                "lock": True,
                "optimize": inp.optimize,
            },
            meta={"max_atomic_steps": semantics.max_atomic_steps},
        )
        mini = minimize_witness(ctx, record, max_rounds=FUZZ_ROUNDS)
        replay_witness(ctx, mini)
        found["fuzz/{}/{}".format(inp.index, inp.content_hash[:12])] = (
            _text(mini)
        )
    return found


# ----- minimisation ----------------------------------------------------------


def _minimized_padded():
    """The racy CImp witness behind a switch round-trip that lands on
    the identical world: ddmin must strip the padding."""
    record = _racy_record()
    ctx = _racy_ctx()
    sem = PreemptiveSemantics()
    pad, _world = capture_walk(ctx, sem, [1, 1])
    assert [st.kind for st in pad.steps] == ["sw", "sw"]
    padded = WitnessRecord(
        "race",
        Schedule(record.schedule.init,
                 list(pad.steps) + list(record.schedule.steps),
                 record.schedule.semantics),
        record.race, meta=record.meta,
    )
    return _text(minimize_witness(ctx, padded))


def _minimized_walk(picks_name):
    """A random walk over the racy CImp program, minimised as a race
    witness (the walk is cut at its first racy world)."""
    record = _racy_record()
    ctx = _racy_ctx()
    walk, _world = capture_walk(
        ctx, PreemptiveSemantics(), PICKS[picks_name]
    )
    try:
        return _text(minimize_witness(ctx, WitnessRecord(
            "race", walk, record.race, meta=record.meta,
        )))
    except ReplayDivergence as exc:
        return str(exc)


# ----- capture_walk ----------------------------------------------------------


def _walk(sem_name, picks_name):
    ctx = GlobalContext(lock_counter_system(2).source_program())
    schedule, _final = capture_walk(
        ctx, SEMANTICS[sem_name](), PICKS[picks_name]
    )
    return _schedule_text(schedule)


# ----- tampered schedules ----------------------------------------------------


def _racy_ctx():
    return GlobalContext(cimp_program(GUARDED, ["t1", "t2"]))


def _racy_record():
    witness = find_race(_racy_ctx(), PreemptiveSemantics(), reduce=False)
    return record_race(witness, meta={"max_atomic_steps": 64})


def _tamper(schedule, n, **changes):
    st0 = schedule.steps[n]
    fields = {
        "index": st0.index, "tid": st0.tid, "to": st0.to,
        "kind": st0.kind, "detail": st0.detail, "rs": st0.rs,
        "ws": st0.ws,
    }
    fields.update(changes)
    steps = list(schedule.steps)
    steps[n] = ScheduleStep(**fields)
    return Schedule(schedule.init, steps, schedule.semantics)


def _first(schedule, test):
    return next(n for n, st in enumerate(schedule.steps) if test(st))


def _aborting_ctx():
    return GlobalContext(
        cimp_program(ABORTING, ["t1", "t2"], symbols={"D": 999}, init={})
    )


def _abort_schedule():
    ctx = _aborting_ctx()
    sem = PreemptiveSemantics()
    return capture_abort_schedule(ctx, sem, explore(ctx, sem, 10000))


def _lock_counter_walk():
    """A lock-counter schedule with a print event in it."""
    ctx = GlobalContext(lock_counter_system(2).source_program())
    schedule, _final = capture_walk(
        ctx, PreemptiveSemantics(), PICKS["zeros"]
    )
    return schedule


def _tamper_cases():
    """``name -> thunk`` raising the case's :class:`ReplayDivergence`."""
    record = _racy_record()
    sched = record.schedule
    steps = sched.steps
    aborting = _abort_schedule()
    counter = _lock_counter_walk()
    done, final = capture_walk(_racy_ctx(), PreemptiveSemantics(), [0] * 80)
    assert final.is_done()

    def replay_on(ctx_of, bad):
        return lambda: replay_schedule(ctx_of(), bad)

    def verdict_on(ctx_of, bad):
        return lambda: replay_witness(ctx_of(), bad)

    def lock_ctx():
        return GlobalContext(lock_counter_system(2).source_program())

    thread = _first(sched, lambda st: st.kind != "sw")
    with_fp = _first(sched, lambda st: st.rs is not None)
    event = _first(counter, lambda st: st.kind == "event")
    switch = _first(counter, lambda st: st.kind == "sw")
    last = len(aborting.steps) - 1
    return {
        "wrong-tid": replay_on(
            _racy_ctx, _tamper(sched, thread, tid=steps[thread].tid + 1)
        ),
        "index-out-of-range": replay_on(
            _racy_ctx, _tamper(sched, 0, index=995)
        ),
        "wrong-footprint": replay_on(
            _racy_ctx, _tamper(sched, with_fp, rs=(123456,), ws=(123457,))
        ),
        "bad-initial-index": replay_on(
            _racy_ctx, Schedule(42, steps, sched.semantics)
        ),
        "wrong-kind": replay_on(
            _racy_ctx, _tamper(sched, thread, kind="event")
        ),
        "wrong-to": replay_on(
            _racy_ctx, _tamper(sched, thread, to=steps[thread].to + 5)
        ),
        "abort-not-reproduced": replay_on(
            _racy_ctx, _tamper(sched, thread, kind="abort")
        ),
        "world-terminated": replay_on(
            _racy_ctx,
            Schedule(done.init, list(done.steps) + [done.steps[-1]],
                     done.semantics),
        ),
        "steps-past-the-end": replay_on(
            _racy_ctx,
            Schedule(sched.init, list(steps) + [steps[-1]] * 40,
                     sched.semantics),
        ),
        "wrong-event": replay_on(
            lock_ctx, _tamper(counter, event, detail=("print", "-7"))
        ),
        "wrong-switch-target": replay_on(
            lock_ctx,
            _tamper(counter, switch, to=counter.steps[switch].to + 1),
        ),
        "unexpected-abort": replay_on(
            _aborting_ctx, _tamper(aborting, last, kind="tau")
        ),
        "abort-before-the-end": replay_on(
            _aborting_ctx,
            Schedule(aborting.init, list(aborting.steps) * 2,
                     aborting.semantics),
        ),
        "race-not-reproduced": verdict_on(
            _racy_ctx,
            WitnessRecord(
                "race", Schedule(sched.init, steps[:1], sched.semantics),
                record.race, record.program, meta=record.meta,
            ),
        ),
        "unknown-verdict": verdict_on(
            _racy_ctx,
            WitnessRecord("maybe", sched, record.race, meta=record.meta),
        ),
        "abort-verdict-on-a-state": verdict_on(
            _racy_ctx, WitnessRecord("abort", sched, None, meta=record.meta)
        ),
        "race-verdict-on-an-abort": verdict_on(
            _aborting_ctx,
            WitnessRecord("race", aborting, record.race, meta=record.meta),
        ),
    }


#: The tamper cases, by name (built lazily: each runs a race search).
TAMPERS = (
    "wrong-tid", "index-out-of-range", "wrong-footprint",
    "bad-initial-index", "wrong-kind", "wrong-to", "abort-not-reproduced",
    "world-terminated", "steps-past-the-end", "wrong-event",
    "wrong-switch-target", "unexpected-abort", "abort-before-the-end",
    "race-not-reproduced",
    "unknown-verdict", "abort-verdict-on-a-state",
    "race-verdict-on-an-abort",
)


def _divergence(thunk):
    try:
        thunk()
    except ReplayDivergence as exc:
        return str(exc)
    raise AssertionError("replay did not diverge")


# ----- the cases -------------------------------------------------------------


def cases():
    """``name -> thunk`` returning each case's text (the fuzz cases,
    named after their inputs, come from :func:`_fuzz_witnesses`)."""
    found = {
        "cli/racy": lambda: _cli_witness(False),
        "cli/racy-minimized": lambda: _cli_witness(True),
    }
    for sem_name in SEMANTICS:
        for picks_name in PICKS:
            found["walk/{}/{}".format(sem_name, picks_name)] = (
                lambda s=sem_name, p=picks_name: _walk(s, p)
            )
    found["minimize/padded"] = _minimized_padded
    for picks_name in PICKS:
        found["minimize/walk/" + picks_name] = (
            lambda p=picks_name: _minimized_walk(p)
        )
    found["capture/abort"] = lambda: _schedule_text(_abort_schedule())
    found["walk/preemptive/aborting"] = lambda: _schedule_text(
        capture_walk(
            _aborting_ctx(), PreemptiveSemantics(), PICKS["stride7"]
        )[0]
    )
    for name in TAMPERS:
        found["tamper/" + name] = (
            lambda name=name: _divergence(_tamper_cases()[name])
        )
    return found


def _load_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


CASES = cases()


def test_golden_covers_every_case():
    golden = _load_golden()
    fuzz = {n for n in golden if n.startswith("fuzz/")}
    assert sorted(set(golden) - fuzz) == sorted(CASES)
    assert len(fuzz) == FUZZ_COUNT


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_matches_golden(name):
    assert CASES[name]() == _load_golden()[name]


def test_fuzz_witnesses_match_golden():
    golden = _load_golden()
    assert _fuzz_witnesses() == {
        name: text for name, text in golden.items()
        if name.startswith("fuzz/")
    }


def _write():
    doc = {name: build() for name, build in CASES.items()}
    doc.update(_fuzz_witnesses())
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
    print("wrote {} texts to {}".format(len(doc), GOLDEN))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(
            "usage: python -m tests.semantics.test_witness_golden --write"
        )
    _write()
