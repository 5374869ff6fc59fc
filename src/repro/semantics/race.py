"""Data races, DRF and NPDRF (Fig. 9, Sec. 5).

A program races when, from some reachable world, two different threads
*predict* conflicting footprints — where a prediction is either the
footprint of an enabled silent step (Predict-0, atomic bit 0) or any
prefix-accumulated footprint of a run inside an atomic block the thread
could enter (Predict-1, atomic bit 1). Conflicts require at least one
side to be outside an atomic block (``(δ1,d1) ⌢ (δ2,d2)``).

``DRF`` explores the preemptive world graph; ``NPDRF`` the
non-preemptive one with per-thread atomic bits — their equivalence is
the paper's steps ⑥/⑧, validated empirically by the FIG2-68 benchmark.

Race detection runs **on the fly** by default: :func:`find_race` hooks
into :func:`~repro.semantics.explore.explore` as an observer, checking
each world's predictions as it is expanded and halting the exploration
at the first witness — so a racy program never materialises its full
state space, and under partial-order reduction the ample decision's
one-step outcomes are shared with the predictor. The stored-graph path
(``on_the_fly=False``) is kept for cross-validation; it scans the
graph's keys in state order. The checker reads each world from its
packed key (:mod:`repro.semantics.keyspace`): predictions are memoized
per ``(thread field, memory id)`` — the thread's stack id and atomic
bit, and the memory id, packed into one int — so distinct worlds that
differ only in other threads' components reuse each other's
predictions with one int dict probe, and a world is decoded only to
report a witness. Callers holding worlds (the sharded explorer, the
replayer) use the same checker through its world entry point, memoized
per ``(top frame, memory, atomic bit)``.

A race-free on-the-fly search has explored the whole program, so its
graph also gives the program's behaviours: :class:`Explorations` keeps
the searches of one verdict run and reads the behaviour sets off them.
Only a racy program is explored a second time, for its behaviours.

Witnesses are *replayable*: :func:`find_race` attaches the schedule
(the edge-index path from an initial world to the racy world, with
per-step labels and footprints) to every witness it returns, so a
verdict can be independently re-executed
(:mod:`repro.semantics.replay`), shrunk to a locally minimal racy
interleaving, and rendered as a per-thread timeline (``repro
inspect``).
"""

from collections import deque

from repro import obs
from repro.common.footprint import EMP, conflict_atomic
from repro.lang.messages import ENT_ATOM, is_silent
from repro.lang import closure as _closure
from repro.lang.steps import Step
from repro.semantics.explore import (
    ExplorationLimit,
    behaviours,
    explore,
    program_behaviours,
)
from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.por import default_reduce
from repro.semantics.preemptive import PreemptiveSemantics
from repro.semantics.witness import capture_schedule
from repro.semantics.world import GlobalContext


class RaceWitness:
    """Evidence of a data race: the world and the two predictions.

    ``schedule`` (attached by :func:`find_race` unless capture is
    disabled) is the replayable path from an initial world to
    ``world`` — see :mod:`repro.semantics.witness`.
    """

    __slots__ = ("world", "tid1", "fp1", "bit1", "tid2", "fp2", "bit2",
                 "schedule")

    def __init__(self, world, tid1, fp1, bit1, tid2, fp2, bit2,
                 schedule=None):
        self.world = world
        self.tid1 = tid1
        self.fp1 = fp1
        self.bit1 = bit1
        self.tid2 = tid2
        self.fp2 = fp2
        self.bit2 = bit2
        self.schedule = schedule

    def __repr__(self):
        return (
            "RaceWitness(t{} {!r} (atomic={}) ⌢ t{} {!r} (atomic={}))"
        ).format(
            self.tid1, self.fp1, self.bit1,
            self.tid2, self.fp2, self.bit2,
        )


def predict(ctx, world, tid, max_atomic_steps=64, quantum=False,
            outcomes=None):
    """All instrumented footprints ``(δ, d)`` thread ``tid`` predicts.

    With ``quantum=False`` (the preemptive Race rule, Fig. 9):
    Predict-0 — footprints of the thread's enabled silent steps, bit 0
    — and Predict-1 — accumulated footprints of an atomic block the
    thread can enter, bit 1.

    With ``quantum=True`` (the non-preemptive notion): prediction
    ranges over the thread's whole *scheduling quantum* — every silent
    step along its solo run up to the next switch point, bit 0, with
    Predict-1 applied at each intermediate state. This is the
    region-conflict view (the paper relates NPDRF to DRFx's
    region-conflict-freedom): suspended threads have no intermediate
    non-preemptive worlds, so their entire region must be predicted
    at once — one-step prediction would miss races in programs with no
    synchronization points at all.

    When the world records the thread inside an atomic block (possible
    non-preemptively), its continuation is predicted with bit 1.

    ``outcomes`` optionally passes in the thread's already-computed raw
    one-step outcomes (shared with the POR ample decision), saving the
    first local step call.
    """
    frame = world.top_frame(tid)
    if frame is None:
        return set()
    return _predict_frame(
        ctx, frame, world.mem, world.bits[tid], max_atomic_steps,
        quantum, outcomes,
    )


def _predict_frame(ctx, frame, mem, bit, max_atomic_steps=64,
                  quantum=False, outcomes=None):
    """:func:`predict` of a live thread given by its parts: its top
    activation ``frame``, the memory ``mem`` and its atomic bit
    ``bit``. Nothing else of the world matters to a prediction."""
    decl = ctx.module(frame.mod_idx)
    first_outs = outcomes
    predictions = set()

    if bit == 1:
        return {
            (fp, 1)
            for fp in _atomic_run_footprints(
                decl, frame, frame.core, mem, max_atomic_steps
            )
        }

    horizon = max_atomic_steps if quantum else 1
    # Seed the dedup set with the entry state: a silent cycle straight
    # back to the entry core must not re-enqueue it (it used to, wasting
    # a full round of quantum-mode prediction).
    seen = {(frame.core, mem)}
    frontier = deque([(frame.core, mem, 0)])
    step_outcomes = _closure.step_outcomes
    while frontier:
        core, m, depth = frontier.popleft()
        if first_outs is not None:
            # The first dequeued element is exactly the entry state the
            # shared outcomes were computed at.
            outs, first_outs = first_outs, None
        else:
            outs = step_outcomes(decl, core, m, frame.flist)
        for out in outs:
            if not isinstance(out, Step):
                continue
            if is_silent(out.msg):
                if not out.fp.is_empty():
                    predictions.add((out.fp, 0))
                if depth + 1 < horizon:
                    key = (out.core, out.mem)
                    if key not in seen:
                        seen.add(key)
                        frontier.append((out.core, out.mem, depth + 1))
            elif out.msg is ENT_ATOM:
                predictions |= {
                    (fp, 1)
                    for fp in _atomic_run_footprints(
                        decl, frame, out.core, m, max_atomic_steps
                    )
                }
    return predictions


def _atomic_run_footprints(decl, frame, core, mem, max_steps):
    """Prefix-accumulated footprints of silent runs from inside a block."""
    fps = set()
    seen = set()
    queue = deque([(core, mem, EMP, 0)])
    while queue:
        cur, m, acc, depth = queue.popleft()
        if not acc.is_empty():
            fps.add(acc)
        if depth >= max_steps:
            continue
        for out in _closure.step_outcomes(decl, cur, m, frame.flist):
            if not isinstance(out, Step) or not is_silent(out.msg):
                continue
            nxt = (out.core, out.mem, acc.union(out.fp))
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append(nxt + (depth + 1,))
    return fps


class _RaceChecker:
    """Per-run observer applying the Race rule to each expanded world.

    Carries the prediction memo table and the plain accounting counters
    that :func:`find_race` flushes into ``obs`` afterwards. Returns
    True (halt the exploration) as soon as a witness is found.

    Two entry points share one conflict scan (:meth:`_conflict`):
    :meth:`observe`, the keyed exploration observer, and the call
    ``checker(world, outcomes)`` for callers that hold worlds (the
    sharded explorer, the replayer and the minimizer). A checker serves
    one run: the keyed memo's ints are that run's key-space ids.
    """

    __slots__ = (
        "ctx",
        "quantum",
        "max_atomic_steps",
        "track",
        "witness",
        "worlds_checked",
        "predictions",
        "pairs_checked",
        "_memo",
        "_memo_hits",
        "_checked",
    )

    def __init__(self, ctx, quantum, max_atomic_steps):
        self.ctx = ctx
        self.quantum = quantum
        self.max_atomic_steps = max_atomic_steps
        self.track = obs.enabled
        self.witness = None
        self.worlds_checked = 0
        self.predictions = 0
        self.pairs_checked = 0
        self._memo = {}
        self._memo_hits = 0
        # Keys without ``cur`` of the worlds ``observe`` checked.
        self._checked = set()

    def _predict(self, world, tid, outcomes):
        # Predictions depend only on the thread's top frame, the memory
        # and its atomic bit (quantum/max_atomic_steps are fixed per
        # run) — never on the other threads — so they memoize across
        # worlds that interleave the *other* threads differently.
        key = (world.top_frame(tid), world.mem, world.bits[tid])
        preds = self._memo.get(key)
        if preds is None:
            preds = predict(
                self.ctx, world, tid, self.max_atomic_steps,
                quantum=self.quantum, outcomes=outcomes,
            )
            self._memo[key] = preds
        else:
            self._memo_hits += 1
        return preds

    def __call__(self, world, outcomes=None):
        if world.is_done():
            return False
        # The Race rule applies to worlds where the running thread is
        # not inside an atomic block (Fig. 9: ``W = (T, _, 0, σ)``).
        if world.bits[world.cur] != 0:
            return False
        self.worlds_checked += 1
        cur = world.cur
        live = world.live_threads()
        hit = self._conflict(live, [
            self._predict(world, tid, outcomes if tid == cur else None)
            for tid in live
        ])
        if hit is None:
            return False
        self.witness = RaceWitness(world, *hit)
        return True

    def observe(self, ks, k, live, outcomes):
        """The Race rule at the world of key ``k`` in key space ``ks``
        (``live``: its live threads), in the
        :func:`~repro.semantics.explore.explore` observer contract."""
        cur_bits = ks.cur_bits
        cur = k & ((1 << cur_bits) - 1)
        low_bits = ks.low_bits
        slot_bits = ks.slot_bits
        if k >> (low_bits + cur * slot_bits) & 1:
            return False
        # The verdict does not depend on ``cur``, and a race at a world
        # that differs only in ``cur`` would already have halted the run.
        rest = k >> cur_bits
        if rest in self._checked:
            return False
        self._checked.add(rest)
        self.worlds_checked += 1
        mem_bits = ks.mem_bits
        mid = rest & ((1 << mem_bits) - 1)
        slot_mask = (1 << slot_bits) - 1
        memo = self._memo
        preds = []
        for tid in live:
            field = k >> (low_bits + tid * slot_bits) & slot_mask
            mkey = field << mem_bits | mid
            p = memo.get(mkey)
            if p is None:
                p = memo[mkey] = _predict_frame(
                    self.ctx, ks.stack_list[field >> 1][-1],
                    ks.mem_list[mid], field & 1, self.max_atomic_steps,
                    self.quantum, outcomes if tid == cur else None,
                )
            else:
                self._memo_hits += 1
            preds.append(p)
        hit = self._conflict(live, preds)
        if hit is None:
            return False
        self.witness = RaceWitness(ks.decode(k), *hit)
        return True

    def _conflict(self, live, preds):
        """The first conflicting pair of predictions, as ``(t1, fp1,
        b1, t2, fp2, b2)``, or ``None``; ``preds[i]`` is thread
        ``live[i]``'s prediction set."""
        track = self.track
        if track:
            self.predictions += sum(len(p) for p in preds)
        n = len(live)
        for i in range(n):
            p1 = preds[i]
            if not p1:
                continue
            for j in range(i + 1, n):
                p2 = preds[j]
                if track:
                    # Accounting only — guarded like `predictions` so
                    # the disabled path stays free.
                    self.pairs_checked += len(p1) * len(p2)
                for fp1, b1 in p1:
                    for fp2, b2 in p2:
                        if conflict_atomic(fp1, b1, fp2, b2):
                            return live[i], fp1, b1, live[j], fp2, b2
        return None


def find_race(ctx, semantics, max_states=50000, reduce=None,
              on_the_fly=True, capture=True, jobs=None):
    """Search reachable worlds for a race; returns a witness or ``None``.

    Non-preemptive exploration uses quantum (region) prediction — see
    :func:`predict`. The default mode checks each world while it is
    being explored and halts at the first witness, so peak memory no
    longer retains the full state list when a race shows up early;
    ``on_the_fly=False`` explores first and scans the stored graph (the
    pre-POR code path, kept for cross-validation). ``reduce=None``
    defers to the ``REPRO_POR`` default; reduction only engages for
    semantics that support it (preemptive).

    With ``capture=True`` (the default) a found witness carries a
    replayable :class:`~repro.semantics.witness.Schedule` from an
    initial world to the racy world; for a witness discovered under
    partial-order reduction, capture re-walks the path under the full
    semantics, so POR-found witnesses are cross-checked on the spot.

    The prediction horizon is the semantics object's own bound
    (``semantics.max_atomic_steps``), so witness metadata and the
    prediction horizon can never silently disagree. ``jobs > 1`` runs
    the fused search across forked worker processes
    (:mod:`repro.semantics.parallel`): the verdict is unchanged; which
    of several witnesses is reported first is a scheduling artifact,
    exactly as in the sequential search.
    """
    return race_search(
        ctx, semantics, max_states, reduce, on_the_fly, capture, jobs,
    )[0]


def race_search(ctx, semantics, max_states, reduce=None, on_the_fly=True,
                capture=True, jobs=None):
    """:func:`find_race`, returning ``(witness or None, graph)``. With
    the defaults (sequential, on the fly) the graph is the whole
    reachable one unless a race halted the search."""
    quantum = isinstance(semantics, NonPreemptiveSemantics)
    if reduce is None:
        reduce = default_reduce()
    use_parallel = False
    if jobs is not None and jobs > 1:
        from repro.semantics import parallel

        use_parallel = parallel.available()
    track = obs.enabled
    with obs.span(
        "race.find",
        semantics=type(semantics).__name__,
        on_the_fly=on_the_fly,
        jobs=jobs if jobs else 1,
    ) as sp:
        checker = None
        if use_parallel and on_the_fly:
            witness, graph = parallel.parallel_find_race(
                ctx, semantics, max_states=max_states, reduce=reduce,
                jobs=jobs,
            )
        else:
            checker = _RaceChecker(ctx, quantum, semantics.max_atomic_steps)
            if on_the_fly:
                graph = explore(
                    ctx, semantics, max_states, strict=True,
                    reduce=reduce, observer=checker.observe,
                )
            else:
                graph = explore(
                    ctx, semantics, max_states, strict=True,
                    reduce=reduce, jobs=jobs,
                )
                ks = graph.keyspace
                done = graph.done
                for sid, k in enumerate(graph.keys):
                    if sid not in done and checker.observe(
                        ks, k, ks.live(k), None
                    ):
                        break
            witness = checker.witness
        if witness is not None and capture:
            sid = graph.sid_of(witness.world)
            if sid is not None:
                witness.schedule = capture_schedule(
                    ctx, semantics, graph, sid,
                    por=bool(reduce) and getattr(
                        semantics, "supports_por", False
                    ),
                )
        if track:
            if checker is not None:
                # The parallel path publishes the workers' summed
                # checker counters itself (repro.semantics.parallel).
                obs.inc("race.worlds_checked", checker.worlds_checked)
                obs.inc("race.predictions", checker.predictions)
                obs.inc("race.pairs_checked", checker.pairs_checked)
                obs.inc("race.prediction_memo_hits", checker._memo_hits)
                sp.set(
                    worlds=checker.worlds_checked,
                    pairs=checker.pairs_checked,
                )
            if witness is not None:
                obs.inc("race.witnesses")
            sp.set(racy=witness is not None)
            if witness is not None and witness.schedule is not None:
                sp.set(schedule_steps=len(witness.schedule))
    return witness, graph


class Explorations:
    """The strict race searches (:func:`race_search`) of one verdict
    run, once per program object and semantics, and the behaviour sets
    read off their graphs; a racy program's come from one observer-free
    :func:`program_behaviours` run. Never process-wide."""

    def __init__(self, max_states, max_events=10):
        self.max_states = max_states
        self.max_events = max_events
        self._searches = {}
        self._behaviours = {}

    def search(self, program, semantics):
        """``(witness or None, graph)``. A search over ``max_states``
        raises :class:`~repro.semantics.explore.ExplorationLimit` on
        every ask, without exploring again."""
        key = (program, type(semantics), semantics.max_atomic_steps)
        found = self._searches.get(key)
        if found is None:
            try:
                found = race_search(
                    GlobalContext(program), semantics, self.max_states
                )
            except ExplorationLimit as exc:
                found = exc
            self._searches[key] = found
        if isinstance(found, ExplorationLimit):
            raise found
        return found

    def race(self, program, semantics):
        """The race witness, or ``None`` on a race-free program."""
        return self.search(program, semantics)[0]

    def behaviours(self, program, semantics, termination_sensitive=True):
        """The behaviour set, in :func:`behaviours`' termination mode."""
        key = (program, type(semantics), semantics.max_atomic_steps,
               termination_sensitive)
        behs = self._behaviours.get(key)
        if behs is None:
            witness, graph = self.search(program, semantics)
            if witness is None:
                behs = behaviours(
                    graph, self.max_events,
                    termination_sensitive=termination_sensitive,
                )
            else:
                behs = program_behaviours(
                    GlobalContext(program), semantics, self.max_states,
                    self.max_events,
                    termination_sensitive=termination_sensitive,
                )
            self._behaviours[key] = behs
        return behs


def drf(program, max_states=50000, max_atomic_steps=64, reduce=None,
        jobs=None):
    """``DRF(P)``: no race in the preemptive semantics."""
    ctx = GlobalContext(program)
    return (
        find_race(
            ctx, PreemptiveSemantics(max_atomic_steps), max_states,
            reduce=reduce, jobs=jobs,
        )
        is None
    )


def npdrf(program, max_states=50000, max_atomic_steps=64, reduce=None,
          jobs=None):
    """``NPDRF(P)``: no race in the non-preemptive semantics."""
    ctx = GlobalContext(program)
    return (
        find_race(
            ctx, NonPreemptiveSemantics(max_atomic_steps), max_states,
            reduce=reduce, jobs=jobs,
        )
        is None
    )
