"""The module-local footprint-preserving downward simulation (Defs. 2, 3),
as an executable checker.

In Coq the simulation is *proved* once per compiler pass; here it is
*checked* per compiled module — translation validation. The checker
co-executes the source and target modules from related initial states
and discharges, at every non-silent message (the switch points of
Def. 3 case 2):

* message match — same event / same return value / same external call,
  modulo the address mapping ``µ.f``;
* scope — accumulated footprints lie inside ``F ∪ S`` on both sides
  (the ``HG`` side of case 2 and the in-scope conditions of case 1);
* ``FPmatch(µ, Δ, δ)`` on the *accumulated* segment footprints (the
  accumulation is what admits reorderings such as the ``y=2; x=1``
  swap of example (2.2));
* ``LG`` — target shared memory closed and ``Inv``-related to the
  source's;
* continuation under ``Rely`` — at each switch point the identity
  continuation runs first; then, from the same state, one
  :func:`rg.rely_moves` move per shared integer cell that continuation's
  source footprint (``rs ∪ ws``) touches, rewritten consistently on
  both sides. Other cells are touched by neither side in that segment,
  so moving them tests nothing; a source segment that aborts has lost
  its last step's reads, so there every shared cell gets a move. Moves
  and the small set of candidate return values for external calls
  share one :class:`rg.RelyBudget` per entry; switch points that wanted
  a move past it are counted.

Between messages both sides must be deterministic (the paper's
``det(tl)`` premise for flipping the simulation); the checker reports a
violation otherwise. Termination preservation is approximated by a
τ-step budget per segment (the well-founded index of Def. 3).

Because a side is deterministic, a segment is a function of where it
starts: ``(language, module, core, memory, freelist, shared region,
τ budget)``. The checker reads its segments through a memo keyed on
exactly that (:func:`_run_segment`; the module by identity), and
segments are immutable, so one memo may serve several checkers:
:func:`~repro.simulation.validate.validate_compilation` shares one
across all the pairs of a compilation, so a stage that is the target
of one pass and the source of the next runs once. The obligation
counters still count every use; ``segments_run`` counts the runs.

The ``lockstep`` flag implements the ABL-FP ablation: instead of the
accumulated FPmatch, it requires the per-step sequences of shared
footprints to match exactly — the stricter CompCertTSO-style criterion
that rejects legal reorderings.
"""

from collections import namedtuple

from repro import obs
from repro.common.footprint import EMP
from repro.common.values import VInt
from repro.lang.messages import (
    ENT_ATOM,
    EXT_ATOM,
    CallMsg,
    EventMsg,
    RetMsg,
    SpawnMsg,
    is_silent,
)
from repro.lang.steps import Step, StepAbort
from repro.lang.wd import FLIST_EXTENT
from repro.simulation import rg


class SimulationStats:
    """Counted obligations — the raw material of the Fig. 13 table."""

    def __init__(self):
        self.segments = 0
        self.messages_matched = 0
        self.fpmatch_checks = 0
        self.scope_checks = 0
        self.lg_checks = 0
        self.rely_moves = 0
        #: Switch points that wanted a rely move after the budget ran out.
        self.rely_budget_exhausted = 0
        self.ext_calls = 0
        self.src_steps = 0
        self.tgt_steps = 0
        self.vacuous_aborts = 0
        #: Entries not run: a pointer parameter had no shared global.
        self.entries_skipped = 0
        #: Segments interpreted (memo misses); ``segments`` counts uses.
        self.segments_run = 0


class SimulationReport:
    """Result of validating one module against its compilation."""

    def __init__(self):
        self.failures = []
        #: Entries that were not run (see :meth:`skip`).
        self.skipped = []
        self.stats = SimulationStats()

    @property
    def ok(self):
        return not self.failures

    def fail(self, message):
        self.failures.append(message)

    def skip(self, entry):
        """Record that ``entry`` was not run: no obligation was
        checked for it, so it neither passes nor fails."""
        self.skipped.append(entry)
        self.stats.entries_skipped += 1

    def __repr__(self):
        return "SimulationReport(ok={}, failures={})".format(
            self.ok, len(self.failures)
        )


class _Segment(namedtuple("_Segment", (
        "kind", "msg", "core", "mem", "acc", "step_fps", "steps",
        "reason"), defaults=(None, None, None, EMP, (), 0, ""))):
    """Result of running one side to its next non-silent message.

    ``kind`` is ``"msg"``, ``"abort"``, ``"stuck"``, ``"nondet"`` or
    ``"budget"``. A segment is immutable: one object serves every pair
    whose check starts a side from the same state.
    """

    __slots__ = ()


def _run_to_message(lang, module, core, mem, flist, shared, max_tau):
    """Deterministically run to the next non-silent message."""
    acc = EMP
    step_fps = []
    steps = 0
    while True:
        outs = lang.step(module, core, mem, flist)
        if not outs:
            return _Segment("stuck", core=core, mem=mem, acc=acc,
                            step_fps=tuple(step_fps), steps=steps)
        if len(outs) != 1:
            return _Segment(
                "nondet",
                reason="{} outcomes in {}".format(len(outs), lang.name),
            )
        out = outs[0]
        if isinstance(out, StepAbort):
            return _Segment("abort", reason=out.reason, acc=acc,
                            steps=steps)
        assert isinstance(out, Step)
        steps += 1
        fp = out.fp
        if fp.rs or fp.ws:
            acc = acc.union(fp)
            if not (shared.isdisjoint(fp.rs)
                    and shared.isdisjoint(fp.ws)):
                step_fps.append(fp.restricted(shared))
        if is_silent(out.msg):
            core, mem = out.core, out.mem
            if steps > max_tau:
                return _Segment(
                    "budget",
                    reason="{} exceeded {} silent steps".format(
                        lang.name, max_tau
                    ),
                )
            continue
        return _Segment(
            "msg",
            msg=out.msg,
            core=out.core,
            mem=out.mem,
            acc=acc,
            step_fps=tuple(step_fps),
            steps=steps,
        )


def _run_segment(segments, stats, lang, module, core, mem, flist, shared,
                 max_tau):
    """:func:`_run_to_message` through the memo ``segments``, keyed by
    every argument it reads (the module by identity). A miss is
    counted in ``stats.segments_run``."""
    key = (lang, id(module), core, mem, flist, shared, max_tau)
    seg = segments.get(key)
    if seg is None:
        stats.segments_run += 1
        seg = segments[key] = _run_to_message(
            lang, module, core, mem, flist, shared, max_tau
        )
    return seg


def _related_msg(mu, src_msg, tgt_msg):
    """Message match modulo the address mapping."""
    if isinstance(src_msg, EventMsg):
        return src_msg == tgt_msg
    if isinstance(src_msg, RetMsg):
        if not isinstance(tgt_msg, RetMsg):
            return False
        return mu.map_value(src_msg.value) == tgt_msg.value
    if isinstance(src_msg, CallMsg):
        if not isinstance(tgt_msg, CallMsg):
            return False
        if src_msg.fname != tgt_msg.fname:
            return False
        if len(src_msg.args) != len(tgt_msg.args):
            return False
        return all(
            mu.map_value(a) == b
            for a, b in zip(src_msg.args, tgt_msg.args)
        )
    if isinstance(src_msg, SpawnMsg):
        return src_msg == tgt_msg
    if src_msg in (ENT_ATOM, EXT_ATOM):
        return src_msg == tgt_msg
    return False


class LocalSimulationChecker:
    """Checks ``(sl, ge, γ) ≼_φ (tl, ge', π)`` on concrete executions."""

    def __init__(self, src_lang, src_module, tgt_lang, tgt_module, mu,
                 max_tau=5000, max_segments=500,
                 ext_returns=(VInt(0), VInt(7)),
                 lockstep=False, roach_motel=False):
        self.src_lang = src_lang
        self.src_module = src_module
        self.tgt_lang = tgt_lang
        self.tgt_module = tgt_module
        self.mu = mu
        self.max_tau = max_tau
        self.max_segments = max_segments
        self.ext_returns = tuple(ext_returns)
        self.lockstep = lockstep
        #: Roach-motel mode (the paper's future-work reordering): keep
        #: the accumulated footprints alive across atomic boundaries,
        #: so accesses the target moves *into* an atomic block still
        #: match footprints the source produced before entering it.
        #: Footprints are still cleared at events, calls and returns —
        #: the points where effects become visible to the environment.
        self.roach_motel = roach_motel
        #: Memo of the segments this checker runs (see
        #: :func:`_run_segment`). It starts empty; a caller that checks
        #: several pairs over shared stages may hand every checker the
        #: same dict for the duration of one validation.
        self.segments = {}

    def check_entry(self, entry, args, src_mem, tgt_mem, src_flist,
                    tgt_flist, report=None):
        """Validate one entry point from one pair of initial memories."""
        report = report or SimulationReport()
        if not obs.enabled:
            return self._check_entry(
                entry, args, src_mem, tgt_mem, src_flist, tgt_flist,
                report,
            )
        seg0 = report.stats.segments
        fail0 = len(report.failures)
        with obs.span(
            "simulate.entry",
            entry=entry,
            src=self.src_lang.name,
            tgt=self.tgt_lang.name,
        ) as sp:
            self._check_entry(
                entry, args, src_mem, tgt_mem, src_flist, tgt_flist,
                report,
            )
            sp.set(
                segments=report.stats.segments - seg0,
                failures=len(report.failures) - fail0,
            )
        return report

    def _check_entry(self, entry, args, src_mem, tgt_mem, src_flist,
                     tgt_flist, report):
        mu = self.mu
        if not mu.well_formed():
            report.fail("µ is not well-formed")
            return report
        if not rg.inv(mu, src_mem, tgt_mem):
            report.fail("initial memories not Inv-related")
            return report

        src_core = self.src_lang.init_core(
            self.src_module, entry, args
        )
        mapped_args = tuple(mu.map_value(a) for a in args)
        tgt_core = self.tgt_lang.init_core(
            self.tgt_module, entry, mapped_args
        )
        if src_core is None or tgt_core is None:
            report.fail(
                "entry {!r} missing on one side".format(entry)
            )
            return report

        src_fl = src_flist.addresses(FLIST_EXTENT)
        tgt_fl = tgt_flist.addresses(FLIST_EXTENT)

        self._rely = rg.RelyBudget(report.stats)
        # The last field marks a switch point's identity continuation:
        # once its source segment has run, the rely moves over that
        # segment's footprint restart from the same switch point.
        stack = [(src_core, src_mem, tgt_core, tgt_mem, EMP, EMP, 0,
                  False)]
        while stack:
            (s_core, s_mem, t_core, t_mem, s_carry, t_carry, depth,
             switch) = stack.pop()
            if depth > self.max_segments:
                report.fail("segment budget exceeded")
                continue
            report.stats.segments += 1
            src_seg = _run_segment(
                self.segments, report.stats, self.src_lang,
                self.src_module, s_core, s_mem, src_flist, mu.src_shared,
                self.max_tau,
            )
            if switch:
                cells = rg.segment_cells(src_seg.acc,
                                         src_seg.kind == "abort",
                                         mu.src_shared)
                for s_mem2, t_mem2 in self._rely.take(
                        rg.rely_moves(mu, s_mem, t_mem, cells)):
                    stack.append((s_core, s_mem2, t_core, t_mem2, EMP,
                                  EMP, depth, False))
            if src_seg.kind == "abort":
                # Source undefined behaviour: obligation vacuous.
                report.stats.vacuous_aborts += 1
                continue
            if src_seg.kind != "msg":
                report.fail(
                    "source segment {}: {}".format(
                        src_seg.kind, src_seg.reason
                    )
                )
                continue
            tgt_seg = _run_segment(
                self.segments, report.stats, self.tgt_lang,
                self.tgt_module, t_core, t_mem, tgt_flist, mu.tgt_shared,
                self.max_tau,
            )
            if tgt_seg.kind != "msg":
                report.fail(
                    "target segment {} (source had {!r}): {}".format(
                        tgt_seg.kind, src_seg.msg, tgt_seg.reason
                    )
                )
                continue
            report.stats.src_steps += src_seg.steps
            report.stats.tgt_steps += tgt_seg.steps
            # The footprints carried into this segment (roach-motel
            # mode) join its own; the shared segments stay as they are.
            s_acc = src_seg.acc.union(s_carry)
            t_acc = tgt_seg.acc.union(t_carry)

            if not self._check_obligations(report, src_seg, tgt_seg,
                                           s_acc, t_acc, src_fl, tgt_fl):
                continue
            self._continue(report, stack, src_seg, tgt_seg, s_acc,
                           t_acc, depth)
        return report

    # ----- obligations ----------------------------------------------------

    def _check_obligations(self, report, src_seg, tgt_seg, s_acc, t_acc,
                           src_fl, tgt_fl):
        mu = self.mu
        ok = True
        if not _related_msg(mu, src_seg.msg, tgt_seg.msg):
            report.fail(
                "message mismatch: {!r} vs {!r}".format(
                    src_seg.msg, tgt_seg.msg
                )
            )
            ok = False
        report.stats.messages_matched += 1

        report.stats.scope_checks += 1
        if not rg.hg(s_acc, src_seg.mem, src_fl, mu.src_shared):
            report.fail(
                "HG violated at {!r} (Δ={!r})".format(
                    src_seg.msg, s_acc
                )
            )
            ok = False

        if self.lockstep:
            report.stats.fpmatch_checks += 1
            if src_seg.step_fps != tgt_seg.step_fps:
                report.fail(
                    "lockstep footprint sequences differ at {!r}".format(
                        src_seg.msg
                    )
                )
                ok = False
        else:
            report.stats.fpmatch_checks += 1
            if not rg.fp_match(mu, s_acc, t_acc):
                report.fail(
                    "FPmatch violated at {!r}: Δ={!r} δ={!r}".format(
                        src_seg.msg, s_acc, t_acc
                    )
                )
                ok = False

        if self.roach_motel and src_seg.msg is ENT_ATOM:
            # Roach-motel mode (acquire side): accesses may be moved
            # forward *into* an atomic block, so the memories need not
            # match at its entry — the deferred LG is enforced at the
            # block's exit, where the moved effects must have landed.
            # (Release-side motion, out of the block, stays rejected:
            # full LG applies at ExtAtom.)
            return ok
        report.stats.lg_checks += 1
        if not rg.lg(mu, t_acc, tgt_seg.mem, tgt_fl, s_acc,
                     src_seg.mem):
            report.fail(
                "LG violated at {!r}".format(src_seg.msg)
            )
            ok = False
        return ok

    # ----- continuations ----------------------------------------------------

    def _continue(self, report, stack, src_seg, tgt_seg, s_acc, t_acc,
                  depth):
        msg = src_seg.msg
        if isinstance(msg, RetMsg):
            return
        if isinstance(msg, CallMsg):
            report.stats.ext_calls += 1
            returns = self.ext_returns
            if not self._rely.spend():
                returns = returns[:1]
            for retval in returns:
                s_core = self.src_lang.after_external(
                    src_seg.core, retval
                )
                t_core = self.tgt_lang.after_external(
                    tgt_seg.core, self.mu.map_value(retval)
                )
                stack.append(
                    (s_core, src_seg.mem, t_core, tgt_seg.mem, EMP, EMP,
                     depth + 1, True)
                )
            return
        # Events and atomic boundaries: switch points — continue under
        # environment interference. In roach-motel mode the footprints
        # stay accumulated across atomic boundaries (and no rely move
        # intervenes there: the reordering is only sound because the
        # block boundary is not an interference point for the moved
        # accesses).
        if self.roach_motel and msg is ENT_ATOM:
            stack.append(
                (src_seg.core, src_seg.mem, tgt_seg.core,
                 tgt_seg.mem, s_acc, t_acc, depth + 1, False)
            )
            return
        stack.append(
            (src_seg.core, src_seg.mem, tgt_seg.core, tgt_seg.mem, EMP,
             EMP, depth + 1, True)
        )
