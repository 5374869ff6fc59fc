"""ReachClose (Def. 4): the source-side obligation of compilation.

A module is reach-closed when, executing from any valid initial state
under any environment interference satisfying the rely ``R``, every
step's footprint stays in scope (``Δ ⊆ F ∪ S``) and the shared memory
stays closed — i.e. the module never walks out of its own freelist and
the shared region, and never leaks local pointers into shared memory.

The checker verifies ``HG`` at every step. At a switch point it runs
the identity environment to the next one, then ``rg.rely_one_moves``
over the shared cells that segment touched (every shared cell if it
aborted), within one ``rg.RelyBudget``.
"""

from repro.common.footprint import EMP
from repro.common.values import VInt
from repro.lang.messages import CallMsg, RetMsg, is_silent
from repro.lang.steps import StepAbort
from repro.lang.wd import FLIST_EXTENT
from repro.simulation import rg


class ReachCloseReport:
    def __init__(self):
        self.failures = []
        self.steps_checked = 0
        self.rely_moves = 0
        #: Switch points that wanted a rely move after the budget ran out.
        self.rely_budget_exhausted = 0

    @property
    def ok(self):
        return not self.failures

    def fail(self, message):
        self.failures.append(message)

    def __repr__(self):
        return "ReachCloseReport(ok={}, steps={})".format(
            self.ok, self.steps_checked
        )


def check_reach_close(lang, module, entry, args, initial_mem, shared,
                      flist, max_steps=5000,
                      ext_returns=(VInt(0), VInt(7)), report=None):
    """Check ``ReachClose`` for one entry of one module."""
    report = report or ReachCloseReport()
    flist_addrs = flist.addresses(FLIST_EXTENT)
    core = lang.init_core(module, entry, args)
    if core is None:
        report.fail("entry {!r} not defined".format(entry))
        return report

    budget = rg.RelyBudget(report)
    # A walk carries its footprint since the last switch point and that
    # point's state (None on a first or moved segment): as in the local
    # simulation, the moves over a segment restart from there once the
    # identity continuation has run it.
    stack = [(core, initial_mem, 0, EMP, None)]
    while stack:
        core, mem, depth, acc, switch = stack.pop()
        if depth > max_steps:
            report.fail("step budget exceeded")
            continue
        outs = lang.step(module, core, mem, flist)
        if not outs:
            continue
        if len(outs) != 1:
            report.fail("nondeterministic module step")
            continue
        out = outs[0]
        # Aborting is a safety failure of the *program*, not a scope
        # violation; ReachClose is about footprints.
        aborted = isinstance(out, StepAbort)
        if not aborted:
            report.steps_checked += 1
            acc = acc.union(out.fp)
            if not rg.hg(out.fp, out.mem, flist_addrs, shared):
                report.fail(
                    "HG violated at step {} (fp={!r})".format(depth, out.fp)
                )
                continue
            if is_silent(out.msg):
                stack.append((out.core, out.mem, depth + 1, acc, switch))
                continue
        if switch is not None:
            cells = rg.segment_cells(acc, aborted, shared)
            for _addr, mem2 in budget.take(
                    rg.rely_one_moves(switch[1], shared, cells)):
                stack.append((switch[0], mem2, switch[2], EMP, None))
        if aborted or isinstance(out.msg, RetMsg):
            continue
        # Events, atomic boundaries and external-call returns are
        # switch points.
        resumed = [out.core]
        if isinstance(out.msg, CallMsg):
            resumed = [lang.after_external(out.core, retval)
                       for retval in ext_returns]
        for core2 in resumed:
            stack.append((core2, out.mem, depth + 1, EMP,
                          (core2, out.mem, depth + 1)))
    return report
