"""Footprint-directed partial-order reduction (ample sets).

The preemptive semantics lets the scheduler switch threads at *every*
step outside an atomic block, so the explored world graph grows
exponentially in thread count even though most interleavings only
permute steps that commute. The paper's footprints are an executable
independence relation: by the locality/forward lemmas behind Def. 1,
two silent steps of different threads with non-conflicting footprints
commute — executing them in either order reaches the same world.

This module turns that into a sound *ample set* construction for
:func:`repro.semantics.explore.explore`:

* At a world ``W`` whose current thread's next steps are all **private**
  — silent ``τ`` steps whose footprints lie entirely inside the thread's
  own freelist address space (or are empty) — the singleton ample set
  ``{cur}`` is chosen: only the current thread is expanded and the
  Switch edges to other threads are pruned. Privacy is a *stable*
  strengthening of one-step footprint disjointness: a private footprint
  can never conflict with any step any other thread takes now **or
  later** (freelists of distinct threads are disjoint by construction,
  Sec. 2.3), which is exactly the unbounded-future independence that
  the ample-set condition C1 demands. One-step disjointness alone is
  not enough: a thread whose *second* step conflicts with the pruned
  thread's pending write would lose interleavings (see
  ``tests/semantics/test_por.py`` for the counterexample).

* Reduction is refused conservatively whenever any of the current
  thread's global steps is not silent: observable events,
  ``EntAtom``/``ExtAtom``, spawns, thread termination and aborts all
  force a full expansion (C2, visibility), as do stuck or terminated
  current threads and atomic blocks. A cross-module call, or a return
  to a caller activation, is a silent global step (it only pushes or
  pops the thread's own activation), so it is admitted like a ``τ``
  step when its footprint is private.

* The **cycle proviso** (C3) is applied by the explorer's DFS: a reduced
  expansion whose successor closes a cycle back into the current search
  stack is re-expanded fully, so a thread spinning in a private loop
  cannot starve the others (the classical "ignoring problem") and
  ``silent_div`` detection stays exact.

The reducer is deliberately unaware of the non-preemptive semantics:
its switch points (atomic boundaries, events, termination) are exactly
the sync points NPDRF's region predictions quantify over, so pruning
them would change what :func:`repro.semantics.race.predict` must cover.
Non-preemptive exploration is already "reduced" in that sense and runs
unmodified (``explore`` falls back to the full expansion).
"""

import os

from repro.common.freelist import LOCAL_BASE, MAX_DEPTH, SLOT_SPACE
from repro.semantics.engine import GStep, thread_expansion

#: Width of one thread's private address space: every activation
#: freelist of thread ``t`` lies in
#: ``[LOCAL_BASE + t·THREAD_SPAN, LOCAL_BASE + (t+1)·THREAD_SPAN)``
#: (see :meth:`repro.common.freelist.FreeList.for_thread`).
THREAD_SPAN = MAX_DEPTH * SLOT_SPACE

_OFF_VALUES = frozenset({"0", "false", "off", "no", ""})


def default_reduce(environ=None):
    """The ``REPRO_POR`` default: reduction is on unless switched off.

    POR defaults on only for the whole-program property checks
    (``drf``/``npdrf``/``program_behaviours``) whose POR-on/POR-off
    agreement the cross-validation suite pins down; ``explore`` itself
    keeps ``reduce=False`` so graph consumers see the full graph unless
    they opt in.
    """
    env = os.environ if environ is None else environ
    value = env.get("REPRO_POR")
    if value is None:
        return True
    return value.strip().lower() not in _OFF_VALUES


class AmpleReducer:
    """Per-exploration ample-set oracle for the preemptive semantics.

    Holds the privacy memo table (footprints are hash-consed, so the
    table stays tiny) and the plain reduction counters the explorer
    flushes into ``obs`` when metrics are enabled.
    """

    __slots__ = (
        "_private_fp",
        "ample_worlds",
        "full_expansions",
        "proviso_expansions",
        "steps_avoided",
    )

    def __init__(self):
        self._private_fp = {}
        self.ample_worlds = 0
        self.full_expansions = 0
        self.proviso_expansions = 0
        self.steps_avoided = 0

    def footprint_private(self, fp, tid):
        """True iff ``fp`` touches only thread ``tid``'s freelist space."""
        if fp.is_empty():
            return True
        key = (fp, tid)
        cached = self._private_fp.get(key)
        if cached is None:
            lo = LOCAL_BASE + tid * THREAD_SPAN
            hi = lo + THREAD_SPAN
            cached = all(lo <= a < hi for a in fp.rs) and all(
                lo <= a < hi for a in fp.ws
            )
            self._private_fp[key] = cached
        return cached

    def decide(self, ctx, world):
        """The ample decision at ``world``.

        Returns ``(outcomes, results, ample)``. ``outcomes`` is the
        current thread's raw local outcome list (for sharing with fused
        race prediction), ``results`` the engine-processed global
        outcomes (:class:`~repro.semantics.engine.GStep` etc.), both
        ``None`` when not computed (terminated thread or atomic
        section). ``ample`` is True iff the singleton ample set
        ``{cur}`` is sound here: every result is a *private* silent
        global step — label ``None`` (τ, internal call/return — never
        an event, atomic boundary, spawn, termination or abort) with a
        footprint inside the thread's own address space. Classifying
        the engine-processed results (rather than raw messages) keeps
        this in lock-step with the engine's Fig. 7 rules and admits
        silent cross-module calls/returns, whose only effects are the
        thread's own activation stack and its private freelists.

        The ample ``results`` are exactly the thread's global steps in
        ``thread_successors`` order — i.e. a *prefix* of what the full
        ``semantics.successors`` list would be (the pruned Switch edges
        are appended after the thread steps). Witness capture and
        replay (:mod:`repro.semantics.witness`) rely on this: an
        edge-index path recorded through a reduced expansion replays
        verbatim under the full semantics.
        """
        cur = world.cur
        if world.bits[cur] != 0:
            # Inside an atomic block the semantics emits no switches;
            # there is nothing to prune and EntAtom/ExtAtom handling
            # must stay with the engine.
            return None, None, False
        outs, results = thread_expansion(ctx, world)
        if outs is None:
            return None, None, False
        if not outs:
            # Locally stuck: surface through the full path.
            return outs, [], False
        private = self.footprint_private
        for res in results:
            if (
                not isinstance(res, GStep)
                or res.label is not None
                or not private(res.fp, cur)
            ):
                return outs, results, False
        return outs, results, True
