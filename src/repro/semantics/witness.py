"""Witness capture: replayable schedules for exploration verdicts.

A verdict alone ("racy", "aborts") is not auditable: nothing ties it to
an execution that can be re-run, shrunk, or explained. This module
makes every verdict carry a **schedule** — the sequence of scheduling
choices from an initial world to the interesting world — serialized as
a versioned JSON artifact that :mod:`repro.semantics.replay` re-executes
deterministically and ``repro inspect`` renders as a per-thread
timeline.

Capture is *post-hoc*: both exploration loops already record every
expanded world's edges in successor-list order (see
:func:`repro.semantics.explore.explore`), so the discovery path to any
state is a path of edge indices through ``graph.edges`` — extracted
here by BFS, then re-walked once under the plain (unreduced) semantics
to annotate each step with the acting thread, label kind and footprint.
The re-walk doubles as a soundness cross-check: a witness found under
partial-order reduction must reproduce state-for-state under the full
preemptive semantics (ample edges are a prefix of the full successor
list — :meth:`repro.semantics.por.AmpleReducer.decide`), and a
:class:`CaptureError` here means that prefix property broke. The hot
exploration loops themselves are untouched — capture costs one
path-length walk per witness, preserving the <1% disabled-path
contract of the observability layer.

Schedule steps record ``(index, tid, to, kind, detail, rs, ws)``:
``index`` is the successor-list position (the ground truth replay
follows), the rest is checkable redundancy — the acting thread before
and the scheduled thread after the step, the label kind
(``tau``/``sw``/``event``/``abort``), the event payload or abort
reason, and the step footprint as sorted address tuples.
"""

import json
from collections import deque

from repro import obs
from repro.semantics.engine import GAbort, label_kind
from repro.semantics.explore import ABORT_DST

#: Version tag of the witness JSON artifact (bump on layout changes).
WITNESS_SCHEMA_VERSION = 1


class CaptureError(Exception):
    """A schedule could not be extracted or re-walked from a graph."""


class ScheduleStep:
    """One scheduling choice along a recorded execution.

    ``index`` — position in the successor list of the world the step
    was taken from; ``tid``/``to`` — the current thread before/after
    the step; ``kind`` — the label classification
    (:func:`repro.semantics.engine.label_kind`); ``detail`` — the event
    ``(kind, value-str)`` pair or the abort reason; ``rs``/``ws`` — the
    step footprint as sorted address tuples (``None`` for pure
    scheduler edges, which have no footprint).
    """

    __slots__ = ("index", "tid", "to", "kind", "detail", "rs", "ws")

    def __init__(self, index, tid, to, kind, detail=None, rs=None,
                 ws=None):
        self.index = index
        self.tid = tid
        self.to = to
        self.kind = kind
        self.detail = detail
        self.rs = None if rs is None else tuple(rs)
        self.ws = None if ws is None else tuple(ws)

    def __eq__(self, other):
        return isinstance(other, ScheduleStep) and self.as_dict() == \
            other.as_dict()

    def __repr__(self):
        return "ScheduleStep(i={}, t{}→t{}, {})".format(
            self.index, self.tid, self.to, self.kind
        )

    def as_dict(self):
        rec = {"i": self.index, "tid": self.tid, "to": self.to,
               "k": self.kind}
        if self.detail is not None:
            rec["d"] = list(self.detail) if isinstance(
                self.detail, tuple) else self.detail
        if self.rs is not None:
            rec["rs"] = list(self.rs)
        if self.ws is not None:
            rec["ws"] = list(self.ws)
        return rec

    @classmethod
    def from_dict(cls, rec):
        detail = rec.get("d")
        if isinstance(detail, list):
            detail = tuple(detail)
        return cls(
            rec["i"], rec["tid"], rec["to"], rec["k"], detail,
            rec.get("rs"), rec.get("ws"),
        )


class Schedule:
    """A replayable execution prefix: initial-world choice plus steps.

    ``init`` indexes ``semantics.initial_worlds`` (the Load rule yields
    one world per initial thread choice); ``semantics`` is the global
    semantics' ``name``; ``por`` records whether the schedule was
    discovered under partial-order reduction (informational — replay is
    always performed under the full semantics).
    """

    __slots__ = ("init", "steps", "semantics", "por")

    def __init__(self, init, steps, semantics, por=False):
        self.init = init
        self.steps = tuple(steps)
        self.semantics = semantics
        self.por = bool(por)

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return (
            isinstance(other, Schedule)
            and self.init == other.init
            and self.steps == other.steps
            and self.semantics == other.semantics
        )

    def __repr__(self):
        return "Schedule({} step(s), init={}, {})".format(
            len(self.steps), self.init, self.semantics
        )

    def as_dict(self):
        return {
            "init": self.init,
            "semantics": self.semantics,
            "por": self.por,
            "steps": [st.as_dict() for st in self.steps],
        }

    @classmethod
    def from_dict(cls, rec):
        return cls(
            rec["init"],
            [ScheduleStep.from_dict(s) for s in rec["steps"]],
            rec["semantics"],
            rec.get("por", False),
        )


# ----- path extraction ------------------------------------------------------


def graph_path(graph, target_sid):
    """A shortest edge-index path from an initial state to ``target_sid``.

    BFS over the recorded edges; returns ``(init_index, hops)`` where
    ``init_index`` indexes ``graph.initial`` and each hop is
    ``(sid, edge_index, dst)``. Works on halted (prefix) graphs: every
    reachable state was added as a successor of an expanded state, so
    its discovery edge is recorded even when the state itself never got
    expanded.
    """
    parents = {}
    seen = set(graph.initial)
    queue = deque(graph.initial)
    found = target_sid in seen
    while queue and not found:
        sid = queue.popleft()
        for i, (_label, dst) in enumerate(graph.edges.get(sid, ())):
            if dst == ABORT_DST or dst in seen:
                continue
            parents[dst] = (sid, i)
            if dst == target_sid:
                found = True
                break
            seen.add(dst)
            queue.append(dst)
    if not found:
        raise CaptureError(
            "state {} unreachable from the initial states in the "
            "recorded graph".format(target_sid)
        )
    hops = []
    sid = target_sid
    while sid not in graph.initial:
        parent, i = parents[sid]
        hops.append((parent, i, sid))
        sid = parent
    hops.reverse()
    return graph.initial.index(sid), hops


def abort_target(graph):
    """The first recorded abort edge ``(sid, edge_index)``, or ``None``."""
    for sid in range(graph.state_count()):
        for i, (_label, dst) in enumerate(graph.edges.get(sid, ())):
            if dst == ABORT_DST:
                return sid, i
    return None


# ----- capture --------------------------------------------------------------


def _make_step(index, world, out):
    """Annotate one taken global step as a :class:`ScheduleStep`."""
    kind = label_kind(out.label)
    detail = None
    if kind == "event":
        detail = (out.label.kind, str(out.label.value))
    fp = out.fp
    if fp is None:
        rs = ws = None
    else:
        rs = sorted(fp.rs)
        ws = sorted(fp.ws)
    return ScheduleStep(
        index, world.cur, out.world.cur, kind, detail, rs, ws
    )


def capture_schedule(ctx, semantics, graph, target_sid, por=False,
                     abort_index=None):
    """Extract and annotate the schedule reaching ``target_sid``.

    Re-walks the extracted path under the plain semantics, verifying
    every step lands on the world the explorer recorded — for a graph
    built under partial-order reduction this is the cross-check that
    the reduced discovery path replays identically under the full
    semantics. ``abort_index`` optionally appends the aborting choice
    at the target world, producing a schedule that ends in ``abort``.
    """
    init_idx, hops = graph_path(graph, target_sid)
    world = semantics.initial_worlds(ctx)[init_idx]
    key = graph.keyspace.key
    steps = []
    for n, (_sid, i, dst) in enumerate(hops):
        outs = semantics.successors(ctx, world)
        if i >= len(outs):
            raise CaptureError(
                "step {}: recorded successor index {} out of range "
                "({} successors under the full semantics)".format(
                    n, i, len(outs)
                )
            )
        out = outs[i]
        if isinstance(out, GAbort):
            raise CaptureError(
                "step {}: interior edge replays as an abort".format(n)
            )
        if key(out.world) != graph.keys[dst]:
            raise CaptureError(
                "step {}: full-semantics walk diverges from the "
                "explored graph (POR prefix property violated?)".format(
                    n
                )
            )
        steps.append(_make_step(i, world, out))
        world = out.world
    if abort_index is not None:
        outs = semantics.successors(ctx, world)
        if abort_index >= len(outs) or not isinstance(
            outs[abort_index], GAbort
        ):
            raise CaptureError(
                "recorded abort edge {} is not an abort under the "
                "full semantics".format(abort_index)
            )
        steps.append(
            ScheduleStep(
                abort_index, world.cur, world.cur, "abort",
                outs[abort_index].reason,
            )
        )
    schedule = Schedule(init_idx, steps, semantics.name, por)
    if obs.enabled:
        obs.inc("witness.captured")
        obs.inc("witness.schedule_steps", len(steps))
        obs.event(
            "witness.captured", steps=len(steps),
            semantics=semantics.name, por=por,
        )
    return schedule


def capture_abort_schedule(ctx, semantics, graph, por=False):
    """The schedule to the first recorded abort edge, or ``None``."""
    tgt = abort_target(graph)
    if tgt is None:
        return None
    sid, i = tgt
    return capture_schedule(
        ctx, semantics, graph, sid, por=por, abort_index=i
    )


def capture_walk(ctx, semantics, picks, init=0):
    """Record a schedule by walking a sequence of successor choices.

    Each pick is taken modulo the number of enabled successors; the
    walk stops early at a terminated world, an abort, or when picks run
    out. Returns ``(schedule, final_world)`` — the random-schedule
    generator the replay-determinism tests are built on.
    """
    world = semantics.initial_worlds(ctx)[init]
    steps = []
    for pick in picks:
        if world.is_done():
            break
        outs = semantics.successors(ctx, world)
        if not outs:
            break
        i = pick % len(outs)
        out = outs[i]
        if isinstance(out, GAbort):
            steps.append(
                ScheduleStep(i, world.cur, world.cur, "abort",
                             out.reason)
            )
            break
        steps.append(_make_step(i, world, out))
        world = out.world
    return Schedule(init, steps, semantics.name, False), world


# ----- the witness artifact -------------------------------------------------


class WitnessRecord:
    """A self-contained, serialisable verdict artifact.

    ``verdict`` is ``"race"`` or ``"abort"``; ``race`` (for races) maps
    the conflicting prediction pair to plain data
    (``tid1``/``rs1``/``ws1``/``bit1`` and the ``2`` counterparts);
    ``program`` optionally records how to rebuild the program (thread
    entries, lock/optimize flags) so ``repro replay`` needs no repeated
    flags; ``meta`` carries capture parameters (``max_atomic_steps``).
    """

    __slots__ = ("verdict", "schedule", "race", "program", "minimized",
                 "meta")

    def __init__(self, verdict, schedule, race=None, program=None,
                 minimized=False, meta=None):
        self.verdict = verdict
        self.schedule = schedule
        self.race = race
        self.program = program or {}
        self.minimized = bool(minimized)
        self.meta = meta or {}

    def __repr__(self):
        return "WitnessRecord({}, {} step(s){})".format(
            self.verdict, len(self.schedule),
            ", minimized" if self.minimized else "",
        )

    def as_dict(self):
        rec = {
            "type": "witness",
            "version": WITNESS_SCHEMA_VERSION,
            "verdict": self.verdict,
            "minimized": self.minimized,
            "schedule": self.schedule.as_dict(),
        }
        if self.race is not None:
            rec["race"] = dict(self.race)
        if self.program:
            rec["program"] = dict(self.program)
        if self.meta:
            rec["meta"] = dict(self.meta)
        return rec

    @classmethod
    def from_dict(cls, rec):
        if not isinstance(rec, dict):
            raise CaptureError(
                "not a witness artifact (a JSON {})".format(
                    type(rec).__name__
                )
            )
        if rec.get("type") != "witness":
            raise CaptureError(
                "not a witness artifact (type={!r})".format(
                    rec.get("type")
                )
            )
        version = rec.get("version")
        if version != WITNESS_SCHEMA_VERSION:
            raise CaptureError(
                "unsupported witness schema version {!r} "
                "(expected {})".format(version, WITNESS_SCHEMA_VERSION)
            )
        return cls(
            rec["verdict"],
            Schedule.from_dict(rec["schedule"]),
            rec.get("race"),
            rec.get("program"),
            rec.get("minimized", False),
            rec.get("meta"),
        )


def record_race(witness, program=None, minimized=False, meta=None):
    """A :class:`WitnessRecord` for a schedule-carrying ``RaceWitness``."""
    if witness.schedule is None:
        raise CaptureError(
            "RaceWitness carries no schedule (find_race(capture=False)?)"
        )
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
        "race", witness.schedule, race, program, minimized, meta
    )


def record_abort(schedule, program=None, meta=None):
    """A :class:`WitnessRecord` for a schedule ending in ``abort``."""
    if not schedule.steps or schedule.steps[-1].kind != "abort":
        raise CaptureError("schedule does not end in an abort step")
    return WitnessRecord("abort", schedule, None, program, False, meta)


def save_witness(path_or_file, record):
    """Write a witness artifact as (indented, stable-key) JSON."""
    data = json.dumps(record.as_dict(), indent=2, sort_keys=True)
    if hasattr(path_or_file, "write"):
        path_or_file.write(data + "\n")
    else:
        with open(path_or_file, "w") as handle:
            handle.write(data + "\n")


def load_witness(path_or_file):
    """Read a witness artifact back into a :class:`WitnessRecord`."""
    if hasattr(path_or_file, "read"):
        rec = json.load(path_or_file)
    else:
        with open(path_or_file) as handle:
            rec = json.load(handle)
    return WitnessRecord.from_dict(rec)
