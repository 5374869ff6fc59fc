"""RTL: the CFG-based register transfer language (output of RTLgen).

A function is a control-flow graph: a map from program points ``pc`` to
instructions, each naming its successor(s). Values live in an unbounded
supply of virtual registers (pseudo-registers); memory is touched only
by explicit ``Iload``/``Istore`` and by the entry step's stack-block
allocation.

RTL is also the IR of the three CFG-level optimization passes we
verify (Tailcall, Renumber) and the input of Allocation.
"""

from repro.common.astbase import Node, Record
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import ImmutableMap
from repro.common.values import VInt, VPtr, VUndef
from repro.lang.messages import EventMsg, SpawnMsg
from repro.lang.steps import StepAbort
from repro.langs.ir.base import (
    EvalAbort,
    alloc_slots,
    apply_op,
    load_checked,
    store_checked,
    symbol_addr,
)
from repro.langs.ir.calls import DestLanguage


# ----- instructions ----------------------------------------------------------


class Instr(Node):
    pass


class Inop(Instr):
    _fields = ("next",)


class Iconst(Instr):
    _fields = ("n", "dst", "next")


class Iaddrglobal(Instr):
    _fields = ("name", "dst", "next")


class Iaddrstack(Instr):
    _fields = ("ofs", "dst", "next")


class Iop(Instr):
    """``dst := op(args)``; unary for 1 argument (incl. ``move``),
    binary for 2."""

    _fields = ("op", "args", "dst", "next")


class Iload(Instr):
    _fields = ("addr", "dst", "next")


class Istore(Instr):
    _fields = ("addr", "src", "next")


class Icall(Instr):
    _fields = ("fname", "args", "dst", "next", "external")


class Itailcall(Instr):
    """Internal tail call: the current activation is replaced."""

    _fields = ("fname", "args")


class Icond(Instr):
    _fields = ("op", "args", "iftrue", "iffalse")


class Ireturn(Instr):
    _fields = ("src",)


class Iprint(Instr):
    _fields = ("src", "next")


class Ispawn(Instr):
    """Thread creation: start ``fname`` in a new thread."""

    _fields = ("fname", "next")


class RTLFunction:
    """An RTL function: params (virtual regs), stack block size, CFG."""

    __slots__ = ("name", "params", "stacksize", "entry", "code")

    def __init__(self, name, params, stacksize, entry, code):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "stacksize", stacksize)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "code", dict(code))

    def __setattr__(self, name, value):
        raise AttributeError("RTLFunction is immutable")

    def __repr__(self):
        return "RTLFunction({}, {} nodes)".format(
            self.name, len(self.code)
        )


# ----- semantics --------------------------------------------------------------


class RTLFrame(Record):
    _fields = __slots__ = ("fname", "pc", "regs", "sp", "ret_dst")

    def __init__(self, fname, pc, regs, sp, ret_dst=None):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "sp", sp)
        object.__setattr__(self, "ret_dst", ret_dst)

    def __repr__(self):
        return "RTLFrame({}@{})".format(self.fname, self.pc)

    def at(self, pc, regs=None):
        return RTLFrame(
            self.fname,
            pc,
            self.regs if regs is None else regs,
            self.sp,
            self.ret_dst,
        )


class RTLCore(Record):
    _fields = __slots__ = ("frames", "nidx", "pending", "done")

    def __init__(self, frames=(), nidx=0, pending=None, done=False):
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __repr__(self):
        return "RTLCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


def _reg(frame, r):
    value = frame.regs.get(r, VUndef)
    if value is VUndef:
        raise EvalAbort("use of undefined register r{}".format(r))
    return value


class RTLLang(DestLanguage):
    """The RTL module language (deterministic)."""

    name = "RTL"
    core_cls = RTLCore

    def _enter(self, module, core, mem, flist, fname, args, ret_dst):
        func = module.functions[fname]
        addrs, mem2 = alloc_slots(
            flist, core.nidx, mem, [VUndef] * func.stacksize
        )
        frame = RTLFrame(
            fname,
            func.entry,
            ImmutableMap(dict(zip(func.params, args))),
            addrs[0] if addrs else None,
            ret_dst,
        )
        return self._push(core, frame, addrs, mem2)

    @staticmethod
    def _assign(frame, dst, value):
        return frame.at(frame.pc, frame.regs.set(dst, value))

    def _run(self, module, core, mem):
        frame = core.frames[-1]
        func = module.functions[frame.fname]
        instr = func.code.get(frame.pc)
        if instr is None:
            raise SemanticsError(
                "no instruction at {}:{}".format(frame.fname, frame.pc)
            )
        return self._instr_step(module, core, mem, frame, instr)

    def _instr_step(self, module, core, mem, frame, instr):
        if isinstance(instr, Inop):
            return self._tau(core, frame.at(instr.next), EMP, mem)

        if isinstance(instr, Iconst):
            regs = frame.regs.set(instr.dst, VInt(instr.n))
            return self._tau(core, frame.at(instr.next, regs), EMP, mem)

        if isinstance(instr, Iaddrglobal):
            value = VPtr(symbol_addr(module, instr.name))
            regs = frame.regs.set(instr.dst, value)
            return self._tau(core, frame.at(instr.next, regs), EMP, mem)

        if isinstance(instr, Iaddrstack):
            if frame.sp is None:
                return [StepAbort(reason="stack address without stack")]
            regs = frame.regs.set(instr.dst, VPtr(frame.sp + instr.ofs))
            return self._tau(core, frame.at(instr.next, regs), EMP, mem)

        if isinstance(instr, Iop):
            values = [_reg(frame, r) for r in instr.args]
            result = apply_op(instr.op, values)
            regs = frame.regs.set(instr.dst, result)
            return self._tau(core, frame.at(instr.next, regs), EMP, mem)

        if isinstance(instr, Iload):
            rs = set()
            ptr = _reg(frame, instr.addr)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="load through non-pointer")]
            value = load_checked(module, mem, ptr.addr, rs)
            regs = frame.regs.set(instr.dst, value)
            return self._tau(
                core, frame.at(instr.next, regs), Footprint(rs), mem
            )

        if isinstance(instr, Istore):
            ptr = _reg(frame, instr.addr)
            value = _reg(frame, instr.src)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._tau(
                core, frame.at(instr.next), Footprint((), {ptr.addr}), mem2
            )

        if isinstance(instr, Icall):
            args = tuple(_reg(frame, r) for r in instr.args)
            return self._call(
                core, frame.at(instr.next), instr.fname, args, instr.dst,
                instr.external, EMP, mem,
            )

        if isinstance(instr, Itailcall):
            # When the tail-callee becomes the bottom activation its
            # eventual return is the module's RetMsg; otherwise the
            # inherited ret_dst routes the value to the original caller.
            args = tuple(_reg(frame, r) for r in instr.args)
            return self._tailcall(core, instr.fname, args, mem)

        if isinstance(instr, Icond):
            values = [_reg(frame, r) for r in instr.args]
            result = apply_op(instr.op, values)
            taken = result.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            target = instr.iftrue if taken else instr.iffalse
            return self._tau(core, frame.at(target), EMP, mem)

        if isinstance(instr, Ireturn):
            value = VInt(0)
            if instr.src is not None:
                value = _reg(frame, instr.src)
            return self._return(core, value, EMP, mem)

        if isinstance(instr, Ispawn):
            return self._tau(
                core, frame.at(instr.next), EMP, mem, SpawnMsg(instr.fname)
            )

        if isinstance(instr, Iprint):
            value = _reg(frame, instr.src)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            return self._tau(
                core, frame.at(instr.next), EMP, mem,
                EventMsg("print", value.n),
            )

        raise SemanticsError("unknown RTL instruction {!r}".format(instr))


RTL = RTLLang()
