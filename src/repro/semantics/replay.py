"""Deterministic replay and minimization of recorded schedules.

The other half of the witness subsystem
(:mod:`repro.semantics.witness`): given a schedule, **re-execute** it
under the plain global semantics and assert the recorded verdict
reproduces, or **shrink** it to a locally minimal racy interleaving.

Both step the schedule through the one walk of
:func:`repro.semantics.witness.walk`. Replay is strict: at every step
the recorded successor index must be in range and the annotated step
must match the recorded one on every field it pins (acting thread,
label kind, event, scheduled thread, footprint — checked in that
order); the final verdict (the abort, or the conflicting prediction
pair of a race) is re-derived from scratch at the final world. Any
mismatch raises a structured :class:`ReplayDivergence` naming the
first diverging step — a replay that "mostly works" is a broken
artifact, not a passing one. Replay never applies partial-order
reduction: schedules recorded under POR re-execute on the full
semantics, which is the paper-level soundness cross-check (reduction
must not invent or lose interleavings).

Minimization is ddmin-style over the schedule's *moves* (a step
without its successor index, which is context-dependent, and a switch
without its acting thread): each candidate subsequence is walked by
taking, at every world, the first successor that matches the next
move, and survives iff the walk completes and the Race rule fires at
(or before) its final world. Chunked deletion shrinks context-switch
round-trips and padding steps that raw index surgery could never
remove. The surviving walk *is* the minimized schedule, exact
successor indices included, and its race checker already holds the
witness at its final world — so minimized witnesses are just as
replayable as originals, with no second walk to rebuild them.
Candidate walks share one step table per minimisation: each world is
expanded, annotated and checked for a clean Race verdict once, so
ddmin's cost is its walk attempts times table lookups, not
interpreter steps.
"""

import time

from repro import obs
from repro.common.footprint import Footprint, conflict_atomic
from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.race import _RaceChecker, predict
from repro.semantics.witness import (
    CaptureError,
    Schedule,
    ScheduleStep,
    annotate_step,
    mismatch,
    record_race,
    semantics_for,
    walk,
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
    recorded = schedule.steps

    def choose(n, world, outs):
        if n == len(recorded):
            return None
        index = recorded[n].index
        if not 0 <= index < len(outs):
            raise ReplayDivergence(
                n, "successor index out of range",
                expected="0..{}".format(len(outs) - 1),
                actual=index,
            )
        return annotate_step(index, world, outs[index])

    visited = [worlds[schedule.init]]
    for n, (step, world) in enumerate(
        walk(ctx, semantics, visited[0], choose)
    ):
        want = recorded[n]
        if "abort" in (step.kind, want.kind) and step.kind != want.kind:
            raise ReplayDivergence(
                n, "unexpected abort" if step.kind == "abort"
                else "recorded abort did not reproduce",
                expected=want.kind, actual=step.kind,
            )
        if step.kind == "abort":
            if n != len(recorded) - 1:
                raise ReplayDivergence(
                    n, "abort before the end of the schedule"
                )
            return ReplayResult(world, "abort", visited)
        diff = mismatch(want, step)
        if diff is not None:
            raise ReplayDivergence(n, *diff)
        visited.append(world)
    if len(visited) <= len(recorded):
        raise ReplayDivergence(
            len(visited) - 1,
            "world terminated before the schedule ended",
        )
    return ReplayResult(visited[-1], "state", visited)


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


def _move(step):
    """What ``step`` did, to be matched where it was not recorded: the
    successor index is never matched (it shifts once an earlier step
    goes), and a switch pins no acting thread (it is the same move from
    any thread). Footprint addresses are deterministic per thread, so a
    surviving step keeps its footprint."""
    if step.kind != "sw":
        return step
    return ScheduleStep(step.index, None, step.to, step.kind)


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
        self.start = semantics.initial_worlds(ctx)[init]
        self.checker = _RaceChecker(ctx, quantum, max_atomic)
        # The step table of this minimisation: each world's successors
        # and their annotated steps, and the worlds where the Race rule
        # did not fire. Both are pure functions of the world, so every
        # candidate walk expands and checks a world at most once.
        self._steps = {}
        self._clean = set()
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

    def successors(self, ctx, world):
        """The walk's semantics: ``world``'s successors, expanded and
        annotated once per minimisation."""
        entry = self._steps.get(world)
        if entry is None:
            outs = self.semantics.successors(ctx, world)
            entry = self._steps[world] = (outs, [
                annotate_step(i, world, out) for i, out in enumerate(outs)
            ])
        return entry[0]

    def _racy(self, world):
        """The Race rule at ``world``. Only clean verdicts are
        remembered, so a race always comes from the checker and its
        witness is at the world asked about."""
        if world in self._clean:
            return False
        if self.checker(world):
            return True
        self._clean.add(world)
        return False

    def walk(self, steps):
        """Re-walk ``steps`` as moves, each taking the first successor
        that matches it; return the steps taken, or ``None``.

        A walk survives when every move finds a matching successor and
        the Race rule fires at some visited world — the walk is then
        cut there, which is how suffix shrinking falls out for free.
        The surviving steps are an exact schedule, and the checker
        holds the race witnessed at their final world.
        """
        self.attempts += 1
        moves = [_move(st) for st in steps]

        def choose(n, world, outs):
            if n == len(moves):
                return None
            for step in self._steps[world][1]:
                if mismatch(moves[n], step) is None:
                    return step
            return None

        world = self.start
        if self._racy(world):
            return []
        taken = []
        for step, world in walk(self.ctx, self, world, choose):
            taken.append(step)
            if self._racy(world):
                return taken
        return None

    def ddmin(self, steps):
        """Delta-debugging deletion loop: locally 1-minimal result
        (or the best schedule found when a round/deadline budget ran
        out first)."""
        rounds = 0
        granularity = 2
        while len(steps) >= 1 and granularity <= max(len(steps), 1):
            if self._exhausted(rounds):
                break
            rounds += 1
            chunk = max(1, len(steps) // granularity)
            shrunk = False
            start = 0
            while start < len(steps):
                if self.deadline is not None and \
                        self.clock() >= self.deadline:
                    # Mid-round deadline check: one round over a long
                    # schedule is itself O(len/chunk) full re-walks.
                    self.budget_hit = True
                    return steps, rounds
                candidate = steps[:start] + steps[start + chunk:]
                survived = self.walk(candidate)
                if survived is not None:
                    steps = survived
                    granularity = max(granularity - 1, 2)
                    shrunk = True
                    break
                start += chunk
            if not shrunk:
                if chunk == 1:
                    break
                granularity = min(granularity * 2, len(steps))
        return steps, rounds


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
        baseline = minimizer.walk(schedule.steps)
        if baseline is None:
            raise ReplayDivergence(
                -1, "original schedule no longer reaches a racy world"
            )
        steps, rounds = minimizer.ddmin(baseline)
        witness = minimizer.checker.witness
        witness.schedule = Schedule(
            schedule.init, steps, semantics.name, False
        )
        record_min = record_race(
            witness, record.program, minimized=True, meta=record.meta
        )
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
