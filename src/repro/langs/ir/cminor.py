"""Cminor: output of the Cminorgen pass.

Cminor shares Csharpminor's statement forms (imported below) but:

* temporaries are consecutive integers (parameters are temps
  ``0..n-1``) instead of names;
* the named stack locals are gone — each function owns a single stack
  block of ``stacksize`` words, addressed by ``EAddrStack(ofs)``
  relative to the stack pointer established at entry (CompCert's
  Cminor stack-layout discipline).

CminorSel (the Selection pass output) reuses this language with a
richer operator set; see :mod:`repro.langs.ir.cminorsel`.
"""

from repro.common.astbase import Node, Record
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import ImmutableMap
from repro.common.values import BINOPS, UNOPS, VInt, VPtr, VUndef
from repro.lang.interface import ModuleLanguage
from repro.lang.messages import (
    TAU,
    CallMsg,
    EventMsg,
    RetMsg,
    SpawnMsg,
)
from repro.lang.steps import Step, StepAbort
from repro.langs.ir.base import (
    EvalAbort,
    load_checked,
    store_checked,
    symbol_addr,
)
from repro.langs.ir.csharpminor import (
    EBinop,
    EConst,
    ELoad,
    ETemp,
    EUnop,
    EAddrGlobal,
    SCall,
    SIf,
    SPrint,
    SReturn,
    SSeq,
    SSet,
    SSkip,
    SSpawn,
    SStore,
    SWhile,
)

__all__ = [
    "EConst",
    "ETemp",
    "EAddrGlobal",
    "EAddrStack",
    "ELoad",
    "EUnop",
    "EBinop",
    "SSkip",
    "SSet",
    "SStore",
    "SCall",
    "SPrint",
    "SSeq",
    "SIf",
    "SWhile",
    "SReturn",
    "SSpawn",
    "CmFunction",
    "CminorLang",
    "CMINOR",
]


class EAddrStack(Node):
    """``sp + ofs`` — an address inside the function's stack block."""

    _fields = ("ofs",)


class CmFunction(Node):
    """A Cminor function: parameter count, stack block size, body.

    Parameters arrive in temps ``0..nparams-1``.
    """

    _fields = ("name", "nparams", "stacksize", "body")


class CmFrame(Record):
    _fields = __slots__ = ("fname", "temps", "sp", "kont", "ret_dst")

    def __init__(self, fname, temps, sp, kont, ret_dst=None):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "temps", temps)
        object.__setattr__(self, "sp", sp)
        object.__setattr__(self, "kont", tuple(kont))
        object.__setattr__(self, "ret_dst", ret_dst)

    def __repr__(self):
        return "CmFrame({}, kont_len={})".format(
            self.fname, len(self.kont)
        )

    def with_kont(self, kont):
        return CmFrame(self.fname, self.temps, self.sp, kont, self.ret_dst)

    def with_temps(self, temps, kont):
        return CmFrame(self.fname, temps, self.sp, kont, self.ret_dst)


class CmCore(Record):
    _fields = __slots__ = ("frames", "nidx", "pending", "done")

    def __init__(self, frames=(), nidx=0, pending=None, done=False):
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __repr__(self):
        return "CmCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


def _flatten(stmt, rest):
    if isinstance(stmt, SSeq):
        out = rest
        for s in reversed(stmt.stmts):
            out = _flatten(s, out)
        return out
    if isinstance(stmt, SSkip):
        return rest
    return (stmt,) + rest


def _eval(module, frame, mem, expr, rs):
    if isinstance(expr, EConst):
        return VInt(expr.n)
    if isinstance(expr, ETemp):
        value = frame.temps.get(expr.name, VUndef)
        if value is VUndef:
            raise EvalAbort("use of undefined temp {!r}".format(expr.name))
        return value
    if isinstance(expr, EAddrStack):
        if frame.sp is None:
            raise EvalAbort("stack address in a frame without stack")
        return VPtr(frame.sp + expr.ofs)
    if isinstance(expr, EAddrGlobal):
        return VPtr(symbol_addr(module, expr.name))
    if isinstance(expr, ELoad):
        ptr = _eval(module, frame, mem, expr.addr, rs)
        if not isinstance(ptr, VPtr):
            raise EvalAbort("load through non-pointer")
        return load_checked(module, mem, ptr.addr, rs)
    if isinstance(expr, EUnop):
        result = UNOPS[expr.op](_eval(module, frame, mem, expr.arg, rs))
        if result is VUndef:
            raise EvalAbort("undefined unop result")
        return result
    if isinstance(expr, EBinop):
        left = _eval(module, frame, mem, expr.left, rs)
        right = _eval(module, frame, mem, expr.right, rs)
        result = BINOPS[expr.op](left, right)
        if result is VUndef:
            raise EvalAbort("undefined binop result")
        return result
    raise SemanticsError("unknown Cminor expression {!r}".format(expr))


class CminorLang(ModuleLanguage):
    """The Cminor module language (deterministic)."""

    name = "Cminor"

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != func.nparams:
            return CmCore(pending=("arity-abort",))
        return CmCore(pending=("enter", entry, tuple(args), None))

    def after_external(self, core, retval):
        if not (core.pending and core.pending[0] == "ext-wait"):
            raise SemanticsError("core is not waiting for an external")
        return CmCore(
            core.frames,
            core.nidx,
            ("assign-result", core.pending[1], retval),
        )

    def step(self, module, core, mem, flist):
        if core.done:
            return []
        try:
            return self._step(module, core, mem, flist)
        except EvalAbort as abort:
            return [StepAbort(reason=abort.reason)]

    def _step(self, module, core, mem, flist):
        pending = core.pending
        if pending is not None:
            kind = pending[0]
            if kind == "arity-abort":
                return [StepAbort(reason="arity mismatch")]
            if kind == "enter":
                return self._enter(module, core, mem, flist, *pending[1:])
            if kind == "assign-result":
                _, dst, value = pending
                frames = core.frames
                if dst is not None:
                    frame = frames[-1]
                    frames = frames[:-1] + (
                        frame.with_temps(
                            frame.temps.set(dst, value), frame.kont
                        ),
                    )
                return [Step(TAU, EMP, CmCore(frames, core.nidx), mem)]
            if kind == "ext-wait":
                return []
            raise SemanticsError("unknown pending {!r}".format(pending))
        frame = core.frames[-1]
        if not frame.kont:
            return self._return(core, mem, frame, VInt(0), set())
        return self._stmt_step(module, core, mem, frame)

    def _enter(self, module, core, mem, flist, fname, args, ret_dst):
        func = module.functions[fname]
        temps = ImmutableMap(dict(enumerate(args)))
        ws = set()
        nidx = core.nidx
        mem2 = mem
        sp = None
        if func.stacksize > 0:
            sp = flist.addr_at(nidx)
            for _ in range(func.stacksize):
                addr = flist.addr_at(nidx)
                nidx += 1
                mem2 = mem2.alloc(addr, VUndef)
                if mem2 is None:
                    raise SemanticsError("freelist slot already allocated")
                ws.add(addr)
        frame = CmFrame(
            fname, temps, sp, _flatten(func.body, ()), ret_dst
        )
        nxt = CmCore(core.frames + (frame,), nidx)
        return [Step(TAU, Footprint((), ws), nxt, mem2)]

    def _stmt_step(self, module, core, mem, frame):
        stmt, rest = frame.kont[0], frame.kont[1:]

        if isinstance(stmt, SSkip):
            return self._tau(core, frame.with_kont(rest), EMP, mem)

        if isinstance(stmt, SSet):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            nxt = frame.with_temps(frame.temps.set(stmt.temp, value), rest)
            return self._tau(core, nxt, Footprint(rs), mem)

        if isinstance(stmt, SStore):
            rs = set()
            ptr = _eval(module, frame, mem, stmt.addr, rs)
            value = _eval(module, frame, mem, stmt.expr, rs)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._tau(
                core,
                frame.with_kont(rest),
                Footprint(rs, {ptr.addr}),
                mem2,
            )

        if isinstance(stmt, SCall):
            rs = set()
            args = tuple(
                _eval(module, frame, mem, a, rs) for a in stmt.args
            )
            frames = core.frames[:-1] + (frame.with_kont(rest),)
            if stmt.external:
                nxt = CmCore(frames, core.nidx, ("ext-wait", stmt.dst))
                return [
                    Step(CallMsg(stmt.fname, args), Footprint(rs), nxt, mem)
                ]
            nxt = CmCore(
                frames, core.nidx, ("enter", stmt.fname, args, stmt.dst)
            )
            return [Step(TAU, Footprint(rs), nxt, mem)]

        if isinstance(stmt, SPrint):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            nxt = CmCore(
                core.frames[:-1] + (frame.with_kont(rest),), core.nidx
            )
            return [
                Step(EventMsg("print", value.n), Footprint(rs), nxt, mem)
            ]

        if isinstance(stmt, SIf):
            rs = set()
            cond = _eval(module, frame, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            branch = stmt.then if taken else stmt.els
            return self._tau(
                core,
                frame.with_kont(_flatten(branch, rest)),
                Footprint(rs),
                mem,
            )

        if isinstance(stmt, SWhile):
            rs = set()
            cond = _eval(module, frame, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined loop condition")]
            kont = _flatten(stmt.body, (stmt,) + rest) if taken else rest
            return self._tau(core, frame.with_kont(kont), Footprint(rs), mem)

        if isinstance(stmt, SSpawn):
            nxt = CmCore(
                core.frames[:-1] + (frame.with_kont(rest),), core.nidx
            )
            return [Step(SpawnMsg(stmt.fname), EMP, nxt, mem)]

        if isinstance(stmt, SReturn):
            rs = set()
            value = VInt(0)
            if stmt.expr is not None:
                value = _eval(module, frame, mem, stmt.expr, rs)
            popped = CmCore(
                core.frames[:-1] + (frame.with_kont(rest),), core.nidx
            )
            return self._return(popped, mem, frame, value, rs)

        raise SemanticsError("unknown Cminor statement {!r}".format(stmt))

    def _tau(self, core, frame, footprint, mem):
        nxt = CmCore(core.frames[:-1] + (frame,), core.nidx)
        return [Step(TAU, footprint, nxt, mem)]

    def _return(self, core, mem, frame, value, rs):
        if len(core.frames) > 1:
            nxt = CmCore(
                core.frames[:-1],
                core.nidx,
                ("assign-result", frame.ret_dst, value),
            )
            return [Step(TAU, Footprint(rs), nxt, mem)]
        nxt = CmCore(nidx=core.nidx, done=True)
        return [Step(RetMsg(value), Footprint(rs), nxt, mem)]

    def is_final(self, module, core):
        return core is not None and core.done


CMINOR = CminorLang()
