"""Shared machinery of the two global semantics.

Both the preemptive and the non-preemptive semantics execute the current
thread's top activation and process the resulting message the same way
(Fig. 7's ``τ``-step / EntAt / ExtAt rules, plus the call/return
protocol of the interaction semantics). They differ only in *where
context switches may occur*, which each semantics module adds on top.

A global step outcome is a :class:`GStep` (label + successor world) or
:class:`GAbort`. Labels:

* ``None`` — silent (τ, internal call/return, thread termination);
* an :class:`~repro.lang.messages.EventMsg` — observable event;
* ``"sw"`` — a context switch (visible in ``=⇒*`` but not in traces).
"""

from repro import obs
from repro.common.errors import SemanticsError
from repro.lang import closure as _closure
from repro.lang.messages import (
    ENT_ATOM,
    EXT_ATOM,
    CallMsg,
    EventMsg,
    RetMsg,
    SpawnMsg,
    is_silent,
)
from repro.lang.steps import StepAbort
from repro.semantics.world import Frame

#: Context-switch label.
SW = "sw"


def label_kind(label):
    """The schedule-artifact classification of a global-step label.

    The witness subsystem records and replays edges by this kind tag:
    ``"tau"`` (silent, including internal call/return and atomic
    boundaries), ``"sw"`` (a pure context switch), ``"event"`` (an
    observable event — non-preemptively this may also carry a bundled
    switch, visible as a changed current thread), or the stringified
    label otherwise (the explorer's ``"abort"`` pseudo-label).
    """
    if label is None:
        return "tau"
    if label == SW:
        return "sw"
    if isinstance(label, EventMsg):
        return "event"
    return str(label)


class GStep:
    """A successful global step: label, footprint, successor world.

    Ephemeral (consumed by the explorer, never stored in graphs or
    hashed), so unlike worlds it skips immutability enforcement — it is
    constructed once per candidate edge on the hottest path.
    """

    __slots__ = ("label", "fp", "world")

    def __init__(self, label, fp, world):
        self.label = label
        self.fp = fp
        self.world = world

    def __repr__(self):
        return "GStep(label={!r})".format(self.label)


class GAbort:
    """The global abort outcome."""

    __slots__ = ("reason",)

    def __init__(self, reason=""):
        object.__setattr__(self, "reason", reason)

    def __setattr__(self, name, value):
        raise AttributeError("GAbort is immutable")

    def __repr__(self):
        return "GAbort({!r})".format(self.reason)


class SyncPoint:
    """A successor that the calling semantics may add switches to.

    ``kind`` records which message produced it (``"ent"``, ``"ext"``,
    ``"event"``, ``"term"``) so the non-preemptive semantics can decide
    which of its switch rules applies.
    """

    __slots__ = ("kind", "label", "fp", "world")

    def __init__(self, kind, label, fp, world):
        self.kind = kind
        self.label = label
        self.fp = fp
        self.world = world


def thread_successors(ctx, world):
    """Execute one step of the current thread; no scheduling decisions.

    Returns a list of :class:`GStep` / :class:`GAbort` /
    :class:`SyncPoint`. SyncPoints are steps at which the non-preemptive
    semantics switches; the preemptive semantics converts them to plain
    GSteps (it has its own free Switch rule instead).
    """
    return thread_expansion(ctx, world)[1] or []


def thread_expansion(ctx, world):
    """Step the current thread: ``(raw outcomes, global results)``.

    The one-call expansion both exploration drivers use. Returns
    ``(None, None)`` when the current thread has terminated.

    The local step is the language's interpreter behind the
    step-outcome memo (:mod:`repro.lang.closure`); each outcome's
    message is then processed by :func:`_process_step` against this
    world.
    """
    frame = world.top_frame()
    if frame is None:
        return None, None
    decl = ctx.module(frame.mod_idx)
    outcomes = _closure.step_outcomes(
        decl, frame.core, world.mem, frame.flist
    )
    results = []
    for outcome in outcomes:
        if isinstance(outcome, StepAbort):
            results.append(GAbort(outcome.reason))
        else:
            results.append(_process_step(ctx, world, frame, decl, outcome))
    if obs.enabled:
        # One flag test on the disabled path; detailed edge-kind
        # accounting happens post-hoc in the explorer.
        obs.inc("engine.expansions")
        obs.inc("engine.outcomes", len(results))
        for r in results:
            if isinstance(r, GAbort):
                obs.inc("engine.aborts")
    return outcomes, results


def _process_step(ctx, world, frame, decl, step):
    msg = step.msg
    bit = world.bits[world.cur]

    if is_silent(msg):
        nxt = world.replace_top(frame.with_core(step.core), mem=step.mem)
        return GStep(None, step.fp, nxt)

    if msg is ENT_ATOM:
        if bit != 0:
            raise SemanticsError("nested atomic block")
        if not step.fp.is_empty() or step.mem != world.mem:
            raise SemanticsError("EntAtom must be pure (Fig. 7 EntAt)")
        nxt = world.replace_top(
            frame.with_core(step.core), mem=step.mem, bit=1
        )
        return SyncPoint("ent", None, step.fp, nxt)

    if msg is EXT_ATOM:
        if bit != 1:
            raise SemanticsError("ExtAtom outside an atomic block")
        if not step.fp.is_empty() or step.mem != world.mem:
            raise SemanticsError("ExtAtom must be pure (Fig. 7 ExtAt)")
        nxt = world.replace_top(
            frame.with_core(step.core), mem=step.mem, bit=0
        )
        return SyncPoint("ext", None, step.fp, nxt)

    if isinstance(msg, EventMsg):
        nxt = world.replace_top(frame.with_core(step.core), mem=step.mem)
        return SyncPoint("event", msg, step.fp, nxt)

    if isinstance(msg, RetMsg):
        popped = world.replace_top(
            frame.with_core(step.core), mem=step.mem
        ).pop_frame()
        if popped.threads[world.cur]:
            # Return to the caller activation: resume its waiting core.
            caller = popped.top_frame()
            caller_decl = ctx.module(caller.mod_idx)
            resumed = caller_decl.lang.after_external(
                caller.core, msg.value
            )
            nxt = popped.replace_top(caller.with_core(resumed))
            return GStep(None, step.fp, nxt)
        # Bottom activation: the thread terminates.
        return SyncPoint("term", None, step.fp, popped)

    if isinstance(msg, CallMsg):
        advanced = world.replace_top(
            frame.with_core(step.core), mem=step.mem
        )
        resolved = ctx.resolve(msg.fname, msg.args)
        if resolved is None:
            return GAbort("unresolved external {!r}".format(msg.fname))
        mod_idx, core = resolved
        callee = Frame.make(mod_idx, ctx.next_flist(world), core)
        return GStep(None, step.fp, advanced.push_frame(callee))

    if isinstance(msg, SpawnMsg):
        advanced = world.replace_top(
            frame.with_core(step.core), mem=step.mem
        )
        resolved = ctx.resolve(msg.fname, ())
        if resolved is None:
            return GAbort("spawn of unresolved {!r}".format(msg.fname))
        mod_idx, core = resolved
        # The new thread gets a fresh, disjoint freelist — the paper's
        # requirement for the spawn step.
        child = Frame.make(mod_idx, ctx.spawn_flist(world), core)
        return SyncPoint("spawn", None, step.fp,
                         advanced.add_thread(child))

    raise SemanticsError("unknown message {!r}".format(msg))


def switch_targets(world, include_self):
    """Live threads the scheduler may switch to."""
    live = world.live_threads()
    if include_self:
        return live
    return [t for t in live if t != world.cur]
