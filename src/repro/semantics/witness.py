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

Capture, :func:`capture_walk`, replay and minimisation step a schedule
through one :func:`walk`, annotate each step with
:func:`annotate_step` and match a recorded step by :func:`mismatch`;
they differ only in how they choose the next successor.

Schedule steps record ``(index, tid, to, kind, detail, rs, ws)``:
``index`` is the successor-list position (the ground truth replay
follows), the rest is checkable redundancy — the acting thread before
and the scheduled thread after the step, the label kind
(``tau``/``sw``/``event``/``abort``), the event payload or abort
reason, and the step footprint as sorted address tuples.
"""

import json
import operator
from collections import deque

from repro import obs
from repro.semantics.engine import GAbort, label_kind
from repro.semantics.explore import ABORT_DST
from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.preemptive import PreemptiveSemantics

#: Version tag of the witness JSON artifact (bump on layout changes).
WITNESS_SCHEMA_VERSION = 1


class CaptureError(Exception):
    """A schedule could not be extracted or re-walked from a graph, or
    a witness artifact does not parse into one."""


#: The global semantics a schedule can name, by their ``name``.
_SEMANTICS = {
    PreemptiveSemantics.name: PreemptiveSemantics,
    NonPreemptiveSemantics.name: NonPreemptiveSemantics,
}


def semantics_for(name):
    """The semantics instance a schedule names."""
    cls = _SEMANTICS.get(name)
    if cls is None:
        raise CaptureError(
            "unknown semantics {!r} (expected one of {})".format(
                name, sorted(_SEMANTICS)
            )
        )
    return cls()


#: Field kinds of the artifact, ``(test, description)``. JSON numbers
#: decode to ``int`` exactly when integral, so ``type(v) is int`` also
#: rejects ``true``/``false``.
_INDEX = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_INT = (lambda v: type(v) is int, "an integer")
_INTS = (
    lambda v: type(v) is list and all(type(x) is int for x in v),
    "a list of integers",
)
_STR = (lambda v: type(v) is str, "a string")
_BOOL = (lambda v: type(v) is bool, "true or false")
_LIST = (lambda v: type(v) is list, "a list")
_OBJECT = (lambda v: type(v) is dict, "an object")
_DETAIL = (lambda v: type(v) in (str, list), "a string or a list")
_VERDICT = (lambda v: v in ("race", "abort"), '"race" or "abort"')
_SEMANTICS_NAME = (
    lambda v: type(v) is str and v in _SEMANTICS,
    "one of {}".format(", ".join(sorted(_SEMANTICS))),
)

_MISSING = object()


def _check(value, path, kind):
    """``value`` if it is of ``kind``, else a :class:`CaptureError`
    naming the artifact field ``path``."""
    test, expected = kind
    if not test(value):
        got = json.dumps(value)
        if len(got) > 40:
            got = got[:37] + "..."
        raise CaptureError(
            "{}: expected {}, got {}".format(path, expected, got)
        )
    return value


def _field(rec, where, name, kind, default=_MISSING):
    """``rec[name]`` checked to be of ``kind``; a missing field takes
    ``default`` and is an error when there is none."""
    path = "{}.{}".format(where, name) if where else name
    if name not in rec:
        if default is _MISSING:
            raise CaptureError("{}: missing".format(path))
        return default
    return _check(rec[name], path, kind)


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

    @property
    def footprint(self):
        """``(rs, ws)``, or ``None`` for a step without a footprint."""
        return None if self.rs is None else (self.rs, self.ws)

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
    def from_dict(cls, rec, where="step"):
        _check(rec, where, _OBJECT)
        detail = _field(rec, where, "d", _DETAIL, None)
        if isinstance(detail, list):
            detail = tuple(detail)
        return cls(
            _field(rec, where, "i", _INDEX),
            _field(rec, where, "tid", _INDEX),
            _field(rec, where, "to", _INDEX),
            _field(rec, where, "k", _STR),
            detail,
            _field(rec, where, "rs", _INTS, None),
            _field(rec, where, "ws", _INTS, None),
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
    def from_dict(cls, rec, where="schedule"):
        _check(rec, where, _OBJECT)
        steps = _field(rec, where, "steps", _LIST)
        return cls(
            _field(rec, where, "init", _INDEX),
            [
                ScheduleStep.from_dict(
                    step, "{}.steps[{}]".format(where, n)
                )
                for n, step in enumerate(steps)
            ],
            _field(rec, where, "semantics", _SEMANTICS_NAME),
            _field(rec, where, "por", _BOOL, False),
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


# ----- the schedule walk ----------------------------------------------------


def annotate_step(index, world, out):
    """Annotate the global step ``out``, successor ``index`` of
    ``world``, as a :class:`ScheduleStep` (an abort included)."""
    if isinstance(out, GAbort):
        return ScheduleStep(index, world.cur, world.cur, "abort",
                            out.reason)
    kind = label_kind(out.label)
    detail = None
    if kind == "event":
        detail = (out.label.kind, str(out.label.value))
    fp = out.fp
    if fp is None:
        rs = ws = None
    else:
        rs = tuple(sorted(fp.rs))
        ws = tuple(sorted(fp.ws))
    return ScheduleStep(
        index, world.cur, out.world.cur, kind, detail, rs, ws
    )


#: The fields a recorded step is matched on, in replay's order, and
#: the reason each one's mismatch reports.
_MATCHED = operator.attrgetter("tid", "kind", "detail", "to", "footprint")
_REASONS = ("acting thread mismatch", "label kind mismatch",
            "event mismatch", "scheduled thread mismatch",
            "footprint mismatch")


def mismatch(recorded, actual):
    """``(reason, expected, got)`` for the first field ``recorded``
    pins (is not ``None``) that ``actual`` does not share, else
    ``None``. The index is not matched: it is how a walk chose."""
    for reason, expected, got in zip(
        _REASONS, _MATCHED(recorded), _MATCHED(actual)
    ):
        if expected is not None and expected != got:
            return reason, expected, got
    return None


def walk(ctx, semantics, world, choose):
    """The one schedule walk: from ``world``, yield each step
    ``choose(n, world, outs)`` takes (annotated; ``None`` ends the walk)
    with the world it reaches. It also ends at a terminated world and
    after an abort (yielded with the world it aborted from). Successors
    are computed only when the next step is asked for, by
    ``semantics.successors(ctx, world)``: a global semantics, or a
    minimiser's step table."""
    n = 0
    while not world.is_done():
        outs = semantics.successors(ctx, world)
        step = choose(n, world, outs)
        if step is None:
            return
        if step.kind == "abort":
            yield step, world
            return
        world = outs[step.index].world
        yield step, world
        n += 1


# ----- capture --------------------------------------------------------------


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
    key = graph.keyspace.key

    def choose(n, world, outs):
        if n == len(hops):
            if abort_index is None:
                return None
            if abort_index >= len(outs) or not isinstance(
                outs[abort_index], GAbort
            ):
                raise CaptureError(
                    "recorded abort edge {} is not an abort under the "
                    "full semantics".format(abort_index)
                )
            return annotate_step(abort_index, world, outs[abort_index])
        _sid, i, dst = hops[n]
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
        return annotate_step(i, world, out)

    world = semantics.initial_worlds(ctx)[init_idx]
    steps = [step for step, _world in walk(ctx, semantics, world, choose)]
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
    picks = list(picks)

    def choose(n, world, outs):
        if n == len(picks) or not outs:
            return None
        i = picks[n] % len(outs)
        return annotate_step(i, world, outs[i])

    world = semantics.initial_worlds(ctx)[init]
    steps = []
    for step, world in walk(ctx, semantics, world, choose):
        steps.append(step)
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
        verdict = _field(rec, "", "verdict", _VERDICT)
        # A race verdict is re-derived from its prediction pair.
        race_default = _MISSING if verdict == "race" else None
        race = _field(rec, "", "race", _OBJECT, race_default)
        if race is not None:
            for side in ("1", "2"):
                _field(race, "race", "tid" + side, _INDEX)
                _field(race, "race", "rs" + side, _INTS, ())
                _field(race, "race", "ws" + side, _INTS, ())
                _field(race, "race", "bit" + side, _INT, 0)
        program = _field(rec, "", "program", _OBJECT, None)
        if program is not None:
            _field(program, "program", "file", _STR, None)
            _field(program, "program", "threads", _STR, None)
            _field(program, "program", "lock", _BOOL, None)
            _field(program, "program", "optimize", _BOOL, None)
        meta = _field(rec, "", "meta", _OBJECT, None)
        if meta is not None:
            _field(meta, "meta", "max_atomic_steps", _INDEX, None)
        return cls(
            verdict,
            Schedule.from_dict(_field(rec, "", "schedule", _OBJECT)),
            race,
            program,
            _field(rec, "", "minimized", _BOOL, False),
            meta,
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
