"""The call protocol of MiniC and the compiler IRs (Fig. 4, Sec. 7.1).

Every language of the chain from Clight to Mach has the same kind of
core: a stack of activation ``frames``, the index ``nidx`` of the next
freelist slot, a ``pending`` action and a ``done`` bit. A step first
finishes a pending action, in a silent step of its own so that each
carries its own footprint:

* ``("enter", f, ...)`` pushes ``f``'s frame, allocating its stack
  slots from the freelist;
* the result action writes back the value of a finished call;
* ``("ext-wait", ...)`` waits for the environment: no local step until
  :meth:`CallLanguage.after_external` turns it into a result action;
* ``("arity-abort",)`` aborts an entry called with the wrong number of
  arguments.

Without a pending action the language steps its top frame. The chain
uses two calling conventions, one subclass each:

* :class:`DestLanguage` (MiniC, C#minor, Cminor/CminorSel, RTL): the
  arguments travel in ``("enter", f, args, dst)`` and the result in
  ``("assign-result", dst, v)``, where ``dst`` is the caller's
  destination;
* :class:`RegLanguage` (LTL, Linear, Mach): the arguments sit in
  ``ARG_REGS`` and the result goes to ``RET_REG``, so the actions are
  ``("enter", f)`` and ``("set-ret", v)``.

A language gives ``core_cls``, ``_run`` (one step of the top frame),
``_enter`` (the callee's frame) and, under the destination convention,
``_assign`` or ``_resume`` (the result write-back).
"""

from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import ImmutableMap
from repro.common.values import VUndef
from repro.lang.interface import ModuleLanguage
from repro.lang.messages import TAU, CallMsg, RetMsg
from repro.lang.steps import Step, StepAbort
from repro.langs.ir.base import EvalAbort
from repro.langs.x86.regs import ARG_REGS, RET_REG


class CallLanguage(ModuleLanguage):
    """A deterministic language whose core is an activation stack."""

    #: Abort reason of an entry called with the wrong number of
    #: arguments.
    arity_reason = "arity mismatch"

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != self._arity(func):
            return self.core_cls(pending=("arity-abort",))
        return self._entry_core(entry, tuple(args))

    def after_external(self, core, retval):
        pending = core.pending
        if not (pending and pending[0] == "ext-wait"):
            raise SemanticsError("core is not waiting for an external")
        return self._with_pending(
            core, (self.RESULT,) + pending[1:] + (retval,)
        )

    def step(self, module, core, mem, flist):
        if core.done:
            return []
        try:
            pending = core.pending
            if pending is None:
                return self._run(module, core, mem)
            kind = pending[0]
            if kind == "enter":
                return self._enter(module, core, mem, flist, *pending[1:])
            if kind == self.RESULT:
                return self._resume(module, core, mem, *pending[1:])
            if kind == "ext-wait":
                return []
            if kind == "arity-abort":
                return [StepAbort(reason=self.arity_reason)]
            raise SemanticsError("unknown pending {!r}".format(pending))
        except EvalAbort as abort:
            return [StepAbort(reason=abort.reason)]

    def is_final(self, module, core):
        return core is not None and core.done


class DestLanguage(CallLanguage):
    """Arguments in ``enter``; results to the caller's ``dst``.

    Frames keep ``ret_dst``, where their caller wants the result.
    """

    RESULT = "assign-result"

    @staticmethod
    def _arity(func):
        return len(func.params)

    def _entry_core(self, entry, args):
        return self.core_cls(pending=("enter", entry, args, None))

    def _with_pending(self, core, pending):
        return self.core_cls(core.frames, core.nidx, pending)

    def _tau(self, core, frame, fp, mem, label=TAU):
        """Replace the top frame with ``frame``."""
        nxt = self.core_cls(core.frames[:-1] + (frame,), core.nidx)
        return [Step(label, fp, nxt, mem)]

    def _push(self, core, frame, addrs, mem):
        """Push the callee ``frame``, whose slots are ``addrs``."""
        nxt = self.core_cls(core.frames + (frame,), core.nidx + len(addrs))
        return [Step(TAU, Footprint((), addrs), nxt, mem)]

    def _call(self, core, frame, fname, args, dst, external, fp, mem):
        """Call ``fname``; ``frame`` is the caller, already advanced."""
        frames = core.frames[:-1] + (frame,)
        if external:
            nxt = self.core_cls(frames, core.nidx, ("ext-wait", dst))
            return [Step(CallMsg(fname, args), fp, nxt, mem)]
        nxt = self.core_cls(frames, core.nidx, ("enter", fname, args, dst))
        return [Step(TAU, fp, nxt, mem)]

    def _tailcall(self, core, fname, args, mem):
        """Replace the top activation with a call of ``fname``; the
        callee inherits its return destination."""
        nxt = self.core_cls(
            core.frames[:-1],
            core.nidx,
            ("enter", fname, args, core.frames[-1].ret_dst),
        )
        return [Step(TAU, EMP, nxt, mem)]

    def _return(self, core, value, fp, mem):
        """Pop the top activation; the bottom one returns to the
        environment."""
        if len(core.frames) > 1:
            nxt = self.core_cls(
                core.frames[:-1],
                core.nidx,
                ("assign-result", core.frames[-1].ret_dst, value),
            )
            return [Step(TAU, fp, nxt, mem)]
        nxt = self.core_cls(nidx=core.nidx, done=True)
        return [Step(RetMsg(value), fp, nxt, mem)]

    def _resume(self, module, core, mem, dst, value):
        frames = core.frames
        if dst is not None:
            frames = frames[:-1] + (self._assign(frames[-1], dst, value),)
        return [Step(TAU, EMP, self.core_cls(frames, core.nidx), mem)]


class RegLanguage(CallLanguage):
    """Arguments in ``ARG_REGS``, the result in ``RET_REG``.

    The machine registers ``regs`` belong to the core: they are the
    thread's physical registers, shared by the whole activation stack.
    """

    RESULT = "set-ret"

    @staticmethod
    def _arity(func):
        return func.nparams

    def _entry_core(self, entry, args):
        regs = ImmutableMap(dict(zip(ARG_REGS, args)))
        return self.core_cls(regs=regs, pending=("enter", entry))

    def _with_pending(self, core, pending):
        return self.core_cls(core.regs, core.frames, core.nidx, pending)

    def _tau(self, core, frame, fp, mem, regs=None, label=TAU):
        """Replace the top frame with ``frame`` (and the registers with
        ``regs`` unless ``None``)."""
        nxt = self.core_cls(
            core.regs if regs is None else regs,
            core.frames[:-1] + (frame,),
            core.nidx,
        )
        return [Step(label, fp, nxt, mem)]

    def _push(self, core, frame, addrs, mem):
        """Push the callee ``frame``, whose slots are ``addrs``."""
        nxt = self.core_cls(
            core.regs, core.frames + (frame,), core.nidx + len(addrs)
        )
        return [Step(TAU, Footprint((), addrs), nxt, mem)]

    def _call(self, core, frame, fname, args, external, mem):
        """Call ``fname`` with ``args`` (read from ``ARG_REGS``);
        ``frame`` is the caller, already advanced."""
        frames = core.frames[:-1] + (frame,)
        if external:
            nxt = self.core_cls(core.regs, frames, core.nidx, ("ext-wait",))
            return [Step(CallMsg(fname, args), EMP, nxt, mem)]
        nxt = self.core_cls(core.regs, frames, core.nidx, ("enter", fname))
        return [Step(TAU, EMP, nxt, mem)]

    def _tailcall(self, core, fname, mem):
        """Replace the top activation with a call of ``fname``."""
        nxt = self.core_cls(
            core.regs, core.frames[:-1], core.nidx, ("enter", fname)
        )
        return [Step(TAU, EMP, nxt, mem)]

    def _return(self, core, mem):
        """Return the value of ``RET_REG`` from the top activation."""
        value = core.regs.get(RET_REG, VUndef)
        if value is VUndef:
            return [StepAbort(reason="return with undefined eax")]
        if len(core.frames) > 1:
            nxt = self.core_cls(core.regs, core.frames[:-1], core.nidx)
            return [Step(TAU, EMP, nxt, mem)]
        nxt = self.core_cls(nidx=core.nidx, done=True)
        return [Step(RetMsg(value), EMP, nxt, mem)]

    def _resume(self, module, core, mem, value):
        regs = core.regs.set(RET_REG, value)
        nxt = self.core_cls(regs, core.frames, core.nidx)
        return [Step(TAU, EMP, nxt, mem)]
