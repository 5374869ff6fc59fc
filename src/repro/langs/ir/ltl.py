"""LTL: RTL over machine *locations* (output of Allocation).

Virtual registers are replaced by locations: machine registers or
abstract stack slots ``("s", i)``. Slots still live in the core (the
"locset"), not in memory — materializing them as frame memory is the
Stacking pass's job. The Allocation pass maintains the CompCert
invariant that computing instructions use register operands only;
slots appear exclusively in ``move`` instructions.

Calling convention (:class:`repro.langs.ir.calls.RegLanguage`, shared
with Linear and Mach): arguments in ``ARG_REGS``, result in
``RET_REG``; machine registers are shared across the activation stack
(they are the thread's physical registers), slots are per-activation.
"""

from repro.common.astbase import Node, Record
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import EMPTY_MAP
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
from repro.langs.ir.calls import RegLanguage
from repro.langs.x86.regs import ARG_REGS, is_reg, is_slot


# ----- instructions -----------------------------------------------------------


class LInstr(Node):
    pass


class Lnop(LInstr):
    _fields = ("next",)


class Lconst(LInstr):
    _fields = ("n", "dst", "next")


class Laddrglobal(LInstr):
    _fields = ("name", "dst", "next")


class Laddrstack(LInstr):
    _fields = ("ofs", "dst", "next")


class Lop(LInstr):
    """``dst := op(args)``. For ``op != "move"`` all operands and the
    destination must be machine registers (Allocation invariant)."""

    _fields = ("op", "args", "dst", "next")


class Lload(LInstr):
    _fields = ("addr", "dst", "next")


class Lstore(LInstr):
    _fields = ("addr", "src", "next")


class Lcall(LInstr):
    """Arguments already placed in ``ARG_REGS[:arity]``; the result
    arrives in ``RET_REG``."""

    _fields = ("fname", "arity", "next", "external")


class Ltailcall(LInstr):
    _fields = ("fname", "arity")


class Lcond(LInstr):
    _fields = ("op", "args", "iftrue", "iffalse")


class Lreturn(LInstr):
    """Returns the value of ``RET_REG``."""

    _fields = ()


class Lprint(LInstr):
    _fields = ("src", "next")


class Lspawn(LInstr):
    _fields = ("fname", "next")


class LTLFunction:
    """An LTL function: CFG over locations.

    ``numslots`` is the number of spill slots this function uses
    (becomes the frame layout input of Stacking).
    """

    __slots__ = ("name", "nparams", "stacksize", "numslots", "entry",
                 "code")

    def __init__(self, name, nparams, stacksize, numslots, entry, code):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "nparams", nparams)
        object.__setattr__(self, "stacksize", stacksize)
        object.__setattr__(self, "numslots", numslots)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "code", dict(code))

    def __setattr__(self, name, value):
        raise AttributeError("LTLFunction is immutable")

    def __repr__(self):
        return "LTLFunction({}, {} nodes)".format(
            self.name, len(self.code)
        )


# ----- semantics ---------------------------------------------------------------


class LTLFrame(Record):
    _fields = __slots__ = ("fname", "pc", "slots", "sp")

    def __init__(self, fname, pc, slots, sp):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "sp", sp)

    def __repr__(self):
        return "LTLFrame({}@{})".format(self.fname, self.pc)

    def at(self, pc, slots=None):
        return LTLFrame(
            self.fname,
            pc,
            self.slots if slots is None else slots,
            self.sp,
        )


class LTLCore(Record):
    _fields = __slots__ = ("regs", "frames", "nidx", "pending", "done")

    def __init__(self, regs=EMPTY_MAP, frames=(), nidx=0, pending=None,
                 done=False):
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __repr__(self):
        return "LTLCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


def _read(core, frame, loc):
    if is_reg(loc):
        value = core.regs.get(loc, VUndef)
    elif is_slot(loc):
        value = frame.slots.get(loc[1], VUndef)
    else:
        raise SemanticsError("bad location {!r}".format(loc))
    if value is VUndef:
        raise EvalAbort("use of undefined location {!r}".format(loc))
    return value


def _write(core, frame, loc, value):
    """Returns ``(regs, slots)`` after writing ``loc``."""
    if is_reg(loc):
        return core.regs.set(loc, value), frame.slots
    if is_slot(loc):
        return core.regs, frame.slots.set(loc[1], value)
    raise SemanticsError("bad location {!r}".format(loc))


class LTLLang(RegLanguage):
    """The LTL module language (deterministic)."""

    name = "LTL"
    core_cls = LTLCore

    def _enter(self, module, core, mem, flist, fname):
        func = module.functions[fname]
        addrs, mem2 = alloc_slots(
            flist, core.nidx, mem, [VUndef] * func.stacksize
        )
        frame = LTLFrame(
            fname, func.entry, EMPTY_MAP, addrs[0] if addrs else None
        )
        return self._push(core, frame, addrs, mem2)

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
        if isinstance(instr, Lnop):
            return self._tau(core, frame.at(instr.next), EMP, mem)

        if isinstance(instr, Lconst):
            regs, slots = _write(core, frame, instr.dst, VInt(instr.n))
            return self._tau(
                core, frame.at(instr.next, slots), EMP, mem, regs
            )

        if isinstance(instr, Laddrglobal):
            value = VPtr(symbol_addr(module, instr.name))
            regs, slots = _write(core, frame, instr.dst, value)
            return self._tau(
                core, frame.at(instr.next, slots), EMP, mem, regs
            )

        if isinstance(instr, Laddrstack):
            if frame.sp is None:
                return [StepAbort(reason="stack address without stack")]
            regs, slots = _write(
                core, frame, instr.dst, VPtr(frame.sp + instr.ofs)
            )
            return self._tau(
                core, frame.at(instr.next, slots), EMP, mem, regs
            )

        if isinstance(instr, Lop):
            if instr.op != "move":
                bad = [
                    l
                    for l in tuple(instr.args) + (instr.dst,)
                    if not is_reg(l)
                ]
                if bad:
                    raise SemanticsError(
                        "non-register operand {!r} in Lop".format(bad[0])
                    )
            values = [_read(core, frame, l) for l in instr.args]
            result = apply_op(instr.op, values)
            regs, slots = _write(core, frame, instr.dst, result)
            return self._tau(
                core, frame.at(instr.next, slots), EMP, mem, regs
            )

        if isinstance(instr, Lload):
            rs = set()
            ptr = _read(core, frame, instr.addr)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="load through non-pointer")]
            value = load_checked(module, mem, ptr.addr, rs)
            regs, slots = _write(core, frame, instr.dst, value)
            return self._tau(
                core, frame.at(instr.next, slots), Footprint(rs), mem, regs
            )

        if isinstance(instr, Lstore):
            ptr = _read(core, frame, instr.addr)
            value = _read(core, frame, instr.src)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._tau(
                core, frame.at(instr.next), Footprint((), {ptr.addr}), mem2
            )

        if isinstance(instr, Lcall):
            args = tuple(
                _read(core, frame, ARG_REGS[i])
                for i in range(instr.arity)
            )
            return self._call(
                core, frame.at(instr.next), instr.fname, args,
                instr.external, mem,
            )

        if isinstance(instr, Ltailcall):
            return self._tailcall(core, instr.fname, mem)

        if isinstance(instr, Lcond):
            values = [_read(core, frame, l) for l in instr.args]
            result = apply_op(instr.op, values)
            taken = result.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            target = instr.iftrue if taken else instr.iffalse
            return self._tau(core, frame.at(target), EMP, mem)

        if isinstance(instr, Lreturn):
            return self._return(core, mem)

        if isinstance(instr, Lspawn):
            return self._tau(
                core, frame.at(instr.next), EMP, mem,
                label=SpawnMsg(instr.fname),
            )

        if isinstance(instr, Lprint):
            value = _read(core, frame, instr.src)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            return self._tau(
                core, frame.at(instr.next), EMP, mem,
                label=EventMsg("print", value.n),
            )

        raise SemanticsError("unknown LTL instruction {!r}".format(instr))


LTL = LTLLang()
