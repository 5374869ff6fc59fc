"""Linear: linearized LTL (output of the Linearize pass).

The CFG is replaced by an instruction *list* with labels, gotos and
conditional branches that fall through when false. Locations (machine
registers + abstract slots) and the calling convention are unchanged
from LTL; the CleanupLabels pass runs at this level.
"""

from repro.common.astbase import Node, Record
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import EMPTY_MAP
from repro.common.values import VInt, VPtr, VUndef
from repro.lang.messages import EventMsg, SpawnMsg
from repro.lang.steps import StepAbort
from repro.langs.ir.base import (
    alloc_slots,
    apply_op,
    load_checked,
    store_checked,
    symbol_addr,
)
from repro.langs.ir.calls import RegLanguage
from repro.langs.ir.ltl import _read, _write
from repro.langs.x86.regs import ARG_REGS


class LinInstr(Node):
    pass


class LinLabel(LinInstr):
    _fields = ("lbl",)


class LinOp(LinInstr):
    _fields = ("op", "args", "dst")


class LinConst(LinInstr):
    _fields = ("n", "dst")


class LinAddrGlobal(LinInstr):
    _fields = ("name", "dst")


class LinAddrStack(LinInstr):
    _fields = ("ofs", "dst")


class LinLoad(LinInstr):
    _fields = ("addr", "dst")


class LinStore(LinInstr):
    _fields = ("addr", "src")


class LinCall(LinInstr):
    _fields = ("fname", "arity", "external")


class LinTailcall(LinInstr):
    _fields = ("fname", "arity")


class LinGoto(LinInstr):
    _fields = ("lbl",)


class LinCond(LinInstr):
    """Branch to ``lbl`` when the condition holds; else fall through."""

    _fields = ("op", "args", "lbl")


class LinReturn(LinInstr):
    _fields = ()


class LinPrint(LinInstr):
    _fields = ("src",)


class LinSpawn(LinInstr):
    _fields = ("fname",)


class LinearFunction:
    """A Linear function: an instruction tuple plus its label map."""

    __slots__ = ("name", "nparams", "stacksize", "numslots", "code",
                 "labels")

    def __init__(self, name, nparams, stacksize, numslots, code):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "nparams", nparams)
        object.__setattr__(self, "stacksize", stacksize)
        object.__setattr__(self, "numslots", numslots)
        object.__setattr__(self, "code", tuple(code))
        labels = {}
        for idx, instr in enumerate(self.code):
            if isinstance(instr, LinLabel):
                if instr.lbl in labels:
                    raise SemanticsError(
                        "duplicate label {!r} in {}".format(
                            instr.lbl, name
                        )
                    )
                labels[instr.lbl] = idx
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("LinearFunction is immutable")

    def __repr__(self):
        return "LinearFunction({}, {} instrs)".format(
            self.name, len(self.code)
        )

    def target(self, lbl):
        idx = self.labels.get(lbl)
        if idx is None:
            raise SemanticsError(
                "undefined label {!r} in {}".format(lbl, self.name)
            )
        return idx


class LinFrame(Record):
    _fields = __slots__ = ("fname", "pc", "slots", "sp")

    def __init__(self, fname, pc, slots, sp):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "sp", sp)

    def __repr__(self):
        return "LinFrame({}@{})".format(self.fname, self.pc)

    def at(self, pc, slots=None):
        return LinFrame(
            self.fname,
            pc,
            self.slots if slots is None else slots,
            self.sp,
        )


class LinCore(Record):
    _fields = __slots__ = ("regs", "frames", "nidx", "pending", "done")

    def __init__(self, regs=EMPTY_MAP, frames=(), nidx=0, pending=None,
                 done=False):
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __repr__(self):
        return "LinCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


class LinearLang(RegLanguage):
    """The Linear module language (deterministic)."""

    name = "Linear"
    core_cls = LinCore

    def _enter(self, module, core, mem, flist, fname):
        func = module.functions[fname]
        addrs, mem2 = alloc_slots(
            flist, core.nidx, mem, [VUndef] * func.stacksize
        )
        frame = LinFrame(fname, 0, EMPTY_MAP, addrs[0] if addrs else None)
        return self._push(core, frame, addrs, mem2)

    def _run(self, module, core, mem):
        frame = core.frames[-1]
        func = module.functions[frame.fname]
        if frame.pc >= len(func.code):
            raise SemanticsError(
                "fell off the end of {}".format(frame.fname)
            )
        return self._instr_step(
            module, core, mem, frame, func, func.code[frame.pc]
        )

    def _instr_step(self, module, core, mem, frame, func, instr):
        if isinstance(instr, LinLabel):
            return self._tau(core, frame.at(frame.pc + 1), EMP, mem)

        if isinstance(instr, LinConst):
            regs, slots = _write(core, frame, instr.dst, VInt(instr.n))
            return self._tau(
                core, frame.at(frame.pc + 1, slots), EMP, mem, regs
            )

        if isinstance(instr, LinAddrGlobal):
            value = VPtr(symbol_addr(module, instr.name))
            regs, slots = _write(core, frame, instr.dst, value)
            return self._tau(
                core, frame.at(frame.pc + 1, slots), EMP, mem, regs
            )

        if isinstance(instr, LinAddrStack):
            if frame.sp is None:
                return [StepAbort(reason="stack address without stack")]
            regs, slots = _write(
                core, frame, instr.dst, VPtr(frame.sp + instr.ofs)
            )
            return self._tau(
                core, frame.at(frame.pc + 1, slots), EMP, mem, regs
            )

        if isinstance(instr, LinOp):
            values = [_read(core, frame, l) for l in instr.args]
            result = apply_op(instr.op, values)
            regs, slots = _write(core, frame, instr.dst, result)
            return self._tau(
                core, frame.at(frame.pc + 1, slots), EMP, mem, regs
            )

        if isinstance(instr, LinLoad):
            rs = set()
            ptr = _read(core, frame, instr.addr)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="load through non-pointer")]
            value = load_checked(module, mem, ptr.addr, rs)
            regs, slots = _write(core, frame, instr.dst, value)
            return self._tau(
                core, frame.at(frame.pc + 1, slots), Footprint(rs), mem, regs
            )

        if isinstance(instr, LinStore):
            ptr = _read(core, frame, instr.addr)
            value = _read(core, frame, instr.src)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._tau(
                core, frame.at(frame.pc + 1), Footprint((), {ptr.addr}), mem2
            )

        if isinstance(instr, LinCall):
            args = tuple(
                _read(core, frame, ARG_REGS[i])
                for i in range(instr.arity)
            )
            return self._call(
                core, frame.at(frame.pc + 1), instr.fname, args,
                instr.external, mem,
            )

        if isinstance(instr, LinTailcall):
            return self._tailcall(core, instr.fname, mem)

        if isinstance(instr, LinGoto):
            return self._tau(
                core, frame.at(func.target(instr.lbl)), EMP, mem
            )

        if isinstance(instr, LinCond):
            values = [_read(core, frame, l) for l in instr.args]
            result = apply_op(instr.op, values)
            taken = result.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            pc = func.target(instr.lbl) if taken else frame.pc + 1
            return self._tau(core, frame.at(pc), EMP, mem)

        if isinstance(instr, LinReturn):
            return self._return(core, mem)

        if isinstance(instr, LinSpawn):
            return self._tau(
                core, frame.at(frame.pc + 1), EMP, mem,
                label=SpawnMsg(instr.fname),
            )

        if isinstance(instr, LinPrint):
            value = _read(core, frame, instr.src)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            return self._tau(
                core, frame.at(frame.pc + 1), EMP, mem,
                label=EventMsg("print", value.n),
            )

        raise SemanticsError(
            "unknown Linear instruction {!r}".format(instr)
        )


LINEAR = LinearLang()
