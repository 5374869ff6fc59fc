"""Deterministic replay and minimization of recorded schedules.

The other half of the witness subsystem
(:mod:`repro.semantics.witness`): given a schedule, **re-execute** it
under the plain global semantics and assert the recorded verdict
reproduces, or **shrink** it to a locally minimal racy interleaving.

Replay is strict: at every step the successor index must be in range
and the resulting edge must match the recorded acting thread, label
kind, scheduled thread, and footprint; the final verdict (the abort,
or the conflicting prediction pair of a race) is re-derived from
scratch at the final world. Any mismatch raises a structured
:class:`ReplayDivergence` naming the first diverging step — a replay
that "mostly works" is a broken artifact, not a passing one. Replay
never applies partial-order reduction: schedules recorded under POR
re-execute on the full semantics, which is the paper-level soundness
cross-check (reduction must not invent or lose interleavings).

Minimization is ddmin-style over the schedule's *moves* (acting
thread + label kind + footprint, rather than raw successor indices,
which are context-dependent): candidate subsequences are re-walked by
matching each move against the enabled successors, and a candidate
survives iff the walk completes and the Race rule fires at (or before)
its final world. Chunked deletion shrinks context-switch round-trips
and padding steps that raw index surgery could never remove; the
result is re-captured as an exact index schedule, so minimized
witnesses are just as replayable as originals.
"""

import time

from repro import obs
from repro.common.footprint import Footprint, conflict_atomic
from repro.semantics.engine import GAbort, label_kind
from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.race import _RaceChecker, predict
from repro.semantics.witness import (
    CaptureError,
    Schedule,
    WitnessRecord,
    _make_step,
    semantics_for,
)


class ReplayDivergence(Exception):
    """Replay failed to reproduce a recorded schedule or verdict.

    ``step`` is the 0-based index of the first mismatching schedule
    step (``-1`` for setup problems, ``len(steps)`` for a verdict that
    fails to re-derive at the final world); ``reason`` a short tag;
    ``expected``/``actual`` the mismatching values.
    """

    def __init__(self, step, reason, expected=None, actual=None):
        self.step = step
        self.reason = reason
        self.expected = expected
        self.actual = actual
        msg = "replay diverged at step {}: {}".format(step, reason)
        if expected is not None or actual is not None:
            msg += " (expected {!r}, got {!r})".format(expected, actual)
        super().__init__(msg)


class ReplayResult:
    """A successful replay: the worlds visited and how the walk ended.

    ``end`` is ``"state"`` (the schedule walked to its final world) or
    ``"abort"`` (the recorded aborting step reproduced); ``world`` the
    final world; ``worlds`` every world visited, initial included.
    """

    __slots__ = ("world", "end", "worlds")

    def __init__(self, world, end, worlds):
        self.world = world
        self.end = end
        self.worlds = tuple(worlds)

    def __repr__(self):
        return "ReplayResult(end={!r}, {} world(s))".format(
            self.end, len(self.worlds)
        )


def replay_schedule(ctx, schedule, semantics=None):
    """Drive ``semantics`` along ``schedule``, verifying every step.

    ``semantics`` defaults to the one the schedule was recorded under.
    Returns a :class:`ReplayResult`; raises :class:`ReplayDivergence`
    at the first mismatch.
    """
    if semantics is None:
        semantics = semantics_for(schedule.semantics)
    with obs.span(
        "replay", semantics=semantics.name, steps=len(schedule.steps)
    ):
        result = _replay(ctx, schedule, semantics)
    if obs.enabled:
        obs.inc("replay.runs")
        obs.inc("replay.steps", len(result.worlds) - 1)
    return result


def _replay(ctx, schedule, semantics):
    worlds = semantics.initial_worlds(ctx)
    if not 0 <= schedule.init < len(worlds):
        raise ReplayDivergence(
            -1, "initial world index out of range",
            expected="0..{}".format(len(worlds) - 1),
            actual=schedule.init,
        )
    world = worlds[schedule.init]
    visited = [world]
    last = len(schedule.steps) - 1
    for n, st in enumerate(schedule.steps):
        if world.is_done():
            raise ReplayDivergence(
                n, "world terminated before the schedule ended"
            )
        outs = semantics.successors(ctx, world)
        if not 0 <= st.index < len(outs):
            raise ReplayDivergence(
                n, "successor index out of range",
                expected="0..{}".format(len(outs) - 1),
                actual=st.index,
            )
        out = outs[st.index]
        if isinstance(out, GAbort):
            if st.kind != "abort":
                raise ReplayDivergence(
                    n, "unexpected abort", expected=st.kind,
                    actual="abort",
                )
            if n != last:
                raise ReplayDivergence(
                    n, "abort before the end of the schedule"
                )
            return ReplayResult(world, "abort", visited)
        if st.kind == "abort":
            raise ReplayDivergence(
                n, "recorded abort did not reproduce",
                expected="abort", actual=label_kind(out.label),
            )
        if st.tid is not None and world.cur != st.tid:
            raise ReplayDivergence(
                n, "acting thread mismatch", expected=st.tid,
                actual=world.cur,
            )
        kind = label_kind(out.label)
        if kind != st.kind:
            raise ReplayDivergence(
                n, "label kind mismatch", expected=st.kind, actual=kind
            )
        if kind == "event" and st.detail is not None:
            actual = (out.label.kind, str(out.label.value))
            if tuple(st.detail) != actual:
                raise ReplayDivergence(
                    n, "event mismatch", expected=tuple(st.detail),
                    actual=actual,
                )
        if st.to is not None and out.world.cur != st.to:
            raise ReplayDivergence(
                n, "scheduled thread mismatch", expected=st.to,
                actual=out.world.cur,
            )
        if st.rs is not None and out.fp is not None:
            actual_fp = (tuple(sorted(out.fp.rs)),
                         tuple(sorted(out.fp.ws)))
            if (st.rs, st.ws) != actual_fp:
                raise ReplayDivergence(
                    n, "footprint mismatch",
                    expected=(st.rs, st.ws), actual=actual_fp,
                )
        world = out.world
        visited.append(world)
    return ReplayResult(world, "state", visited)


def replay_witness(ctx, record, semantics=None):
    """Replay a witness artifact and re-derive its verdict.

    For a race, the recorded conflicting prediction pair is recomputed
    from scratch at the final world via :func:`repro.semantics.race
    .predict` — the schedule *and* the Race rule application must both
    reproduce. Returns the :class:`ReplayResult`; raises
    :class:`ReplayDivergence` otherwise.
    """
    schedule = record.schedule
    if semantics is None:
        semantics = semantics_for(schedule.semantics)
    result = replay_schedule(ctx, schedule, semantics)
    end = len(schedule.steps)
    if record.verdict == "abort":
        if result.end != "abort":
            raise ReplayDivergence(
                end, "recorded abort did not reproduce",
                expected="abort", actual=result.end,
            )
    elif record.verdict == "race":
        if result.end != "state":
            raise ReplayDivergence(
                end, "schedule ended in {!r}, not at a racy "
                "world".format(result.end),
            )
        _verify_race(ctx, semantics, record, result.world, end)
    else:
        raise ReplayDivergence(
            end, "unknown verdict", actual=record.verdict
        )
    if obs.enabled:
        obs.inc("replay.verified")
    return result


def _verify_race(ctx, semantics, record, world, step):
    race = record.race or {}
    quantum = isinstance(semantics, NonPreemptiveSemantics)
    max_atomic = record.meta.get("max_atomic_steps", 64)
    for side in ("1", "2"):
        tid = race.get("tid" + side)
        fp = Footprint(race.get("rs" + side, ()),
                       race.get("ws" + side, ()))
        bit = race.get("bit" + side, 0)
        preds = predict(
            ctx, world, tid, max_atomic_steps=max_atomic,
            quantum=quantum,
        )
        if (fp, bit) not in preds:
            raise ReplayDivergence(
                step,
                "prediction of thread {} not reproduced at the final "
                "world".format(tid),
                expected=(fp, bit),
                actual=sorted(preds, key=repr),
            )
    fp1 = Footprint(race.get("rs1", ()), race.get("ws1", ()))
    fp2 = Footprint(race.get("rs2", ()), race.get("ws2", ()))
    if not conflict_atomic(fp1, race.get("bit1", 0),
                           fp2, race.get("bit2", 0)):
        raise ReplayDivergence(
            step, "recorded prediction pair does not conflict",
            actual=(fp1, fp2),
        )


# ----- minimization ---------------------------------------------------------


def _move_of(st):
    """The context-independent essence of a schedule step.

    Successor *indices* shift as soon as any earlier step is removed,
    so candidates are matched on what the step did instead: the acting
    thread, the label kind, the thread scheduled next, the event
    payload, and (for thread steps) the exact footprint addresses —
    address layouts are deterministic per thread, so a surviving step
    keeps its footprint even when removed neighbours change the values
    it reads.
    """
    return (st.tid, st.to, st.kind, st.detail, st.rs, st.ws)


def _match_move(world, outs, move):
    """The successor index realising ``move`` at ``world``, or ``None``."""
    tid, to, kind, detail, rs, ws = move
    if kind != "sw" and world.cur != tid:
        return None
    for i, out in enumerate(outs):
        if isinstance(out, GAbort):
            continue
        if label_kind(out.label) != kind:
            continue
        if out.world.cur != to:
            continue
        if kind == "event" and detail is not None:
            if (out.label.kind, str(out.label.value)) != tuple(detail):
                continue
        if rs is not None and out.fp is not None:
            if (tuple(sorted(out.fp.rs)),
                    tuple(sorted(out.fp.ws))) != (rs, ws):
                continue
        return i
    return None


class _Minimizer:
    """ddmin over a racy schedule's moves, with attempt accounting.

    ``max_rounds``/``deadline`` bound the deletion loop: ddmin on an
    unshrinkable schedule is quadratic in walk attempts, and one
    pathological fuzz finding must not stall a whole campaign. A hit
    bound stops shrinking and keeps the best (still racy, still
    replayable) schedule found so far — bounded minimization degrades
    to *less minimal*, never to *invalid*.
    """

    def __init__(self, ctx, semantics, quantum, max_atomic, init,
                 max_rounds=None, deadline=None, clock=time.monotonic):
        self.ctx = ctx
        self.semantics = semantics
        self.init = init
        self.checker = _RaceChecker(ctx, quantum, max_atomic)
        self.attempts = 0
        self.max_rounds = max_rounds
        self.deadline = deadline
        self.clock = clock
        self.budget_hit = False

    def _exhausted(self, rounds):
        if self.max_rounds is not None and rounds >= self.max_rounds:
            self.budget_hit = True
            return True
        if self.deadline is not None and self.clock() >= self.deadline:
            self.budget_hit = True
            return True
        return False

    def walk(self, moves):
        """Re-walk ``moves``; return the surviving move list or ``None``.

        A walk survives when every move finds a matching successor and
        the Race rule fires at some visited world — the walk is then
        truncated there, which is how suffix shrinking falls out for
        free.
        """
        self.attempts += 1
        world = self.semantics.initial_worlds(self.ctx)[self.init]
        for k, move in enumerate(moves):
            if self.checker(world):
                return list(moves[:k])
            if world.is_done():
                return None
            outs = self.semantics.successors(self.ctx, world)
            i = _match_move(world, outs, move)
            if i is None:
                return None
            world = outs[i].world
        return list(moves) if self.checker(world) else None

    def ddmin(self, moves):
        """Delta-debugging deletion loop: locally 1-minimal result
        (or the best schedule found when a round/deadline budget ran
        out first)."""
        rounds = 0
        granularity = 2
        while len(moves) >= 1 and granularity <= max(len(moves), 1):
            if self._exhausted(rounds):
                break
            rounds += 1
            chunk = max(1, len(moves) // granularity)
            shrunk = False
            start = 0
            while start < len(moves):
                if self.deadline is not None and \
                        self.clock() >= self.deadline:
                    # Mid-round deadline check: one round over a long
                    # schedule is itself O(len/chunk) full re-walks.
                    self.budget_hit = True
                    return moves, rounds
                candidate = moves[:start] + moves[start + chunk:]
                survived = self.walk(candidate)
                if survived is not None:
                    moves = survived
                    granularity = max(granularity - 1, 2)
                    shrunk = True
                    break
                start += chunk
            if not shrunk:
                if chunk == 1:
                    break
                granularity = min(granularity * 2, len(moves))
        return moves, rounds


def minimize_witness(ctx, record, semantics=None, max_rounds=None,
                     max_seconds=None):
    """Shrink a racy witness to a locally minimal racy interleaving.

    Returns a new, replayable :class:`WitnessRecord` (``minimized``
    flag set) whose schedule is never longer than the original's and
    whose final world still satisfies the Race rule; the conflicting
    prediction pair is re-derived at the minimized world. The original
    record is left untouched. Counters: ``witness.minimize.attempts``,
    ``witness.minimize.rounds``, ``witness.minimize.removed_steps``,
    ``witness.minimize.budget_hits``.

    ``max_rounds`` caps ddmin deletion rounds and ``max_seconds`` the
    wall-clock of the whole shrink; hitting either stops early with
    the best schedule found so far (still racy, still replayable, just
    possibly not 1-minimal). The fuzz campaign always passes a budget:
    a single pathological finding must not stall the run.
    """
    if record.verdict != "race":
        raise CaptureError(
            "only race witnesses can be minimized (verdict={!r})".format(
                record.verdict
            )
        )
    schedule = record.schedule
    if semantics is None:
        semantics = semantics_for(schedule.semantics)
    quantum = isinstance(semantics, NonPreemptiveSemantics)
    max_atomic = record.meta.get("max_atomic_steps", 64)
    deadline = (
        None
        if max_seconds is None
        else time.monotonic() + max(float(max_seconds), 0.0)
    )
    with obs.span(
        "witness.minimize", steps=len(schedule.steps)
    ) as sp:
        minimizer = _Minimizer(
            ctx, semantics, quantum, max_atomic, schedule.init,
            max_rounds=max_rounds, deadline=deadline,
        )
        moves = [_move_of(st) for st in schedule.steps]
        baseline = minimizer.walk(moves)
        if baseline is None:
            raise ReplayDivergence(
                -1, "original schedule no longer reaches a racy world"
            )
        moves, rounds = minimizer.ddmin(baseline)
        record_min = _rebuild(ctx, semantics, minimizer, record, moves)
        removed = len(schedule.steps) - len(record_min.schedule.steps)
        if obs.enabled:
            obs.inc("witness.minimize.attempts", minimizer.attempts)
            obs.inc("witness.minimize.rounds", rounds)
            obs.inc("witness.minimize.removed_steps", removed)
            if minimizer.budget_hit:
                obs.inc("witness.minimize.budget_hits")
            sp.set(
                attempts=minimizer.attempts,
                removed=removed,
                final_steps=len(record_min.schedule.steps),
                budget_hit=minimizer.budget_hit,
            )
    return record_min


def _rebuild(ctx, semantics, minimizer, record, moves):
    """Re-capture the minimized walk as an exact index schedule."""
    world = semantics.initial_worlds(ctx)[minimizer.init]
    steps = []
    for move in moves:
        outs = semantics.successors(ctx, world)
        i = _match_move(world, outs, move)
        if i is None:  # pragma: no cover - walk() already validated
            raise ReplayDivergence(
                len(steps), "minimized move no longer enabled",
                expected=move,
            )
        steps.append(_make_step(i, world, outs[i]))
        world = outs[i].world
    checker = _RaceChecker(
        ctx, minimizer.checker.quantum, minimizer.checker.max_atomic_steps
    )
    if not checker(world):  # pragma: no cover - walk() already validated
        raise ReplayDivergence(
            len(steps), "minimized schedule lost the race"
        )
    witness = checker.witness
    race = {
        "tid1": witness.tid1,
        "rs1": sorted(witness.fp1.rs),
        "ws1": sorted(witness.fp1.ws),
        "bit1": witness.bit1,
        "tid2": witness.tid2,
        "rs2": sorted(witness.fp2.rs),
        "ws2": sorted(witness.fp2.ws),
        "bit2": witness.bit2,
    }
    return WitnessRecord(
        "race",
        Schedule(minimizer.init, steps, semantics.name, False),
        race,
        record.program,
        minimized=True,
        meta=record.meta,
    )
