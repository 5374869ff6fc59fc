"""Mach: Linear with concrete stack frames (output of Stacking).

The abstract slot locations of LTL/Linear become *memory*: each
activation allocates a frame of ``framesize`` words from the freelist;
slot ``i`` lives at ``sp + i`` and the Cminor stack data at
``sp + numslots + ...`` (the Stacking pass folds that offset in).
Consequently spill traffic now shows up in footprints — in the local
(freelist) region, which ``FPmatch`` permits.

All computing instructions use machine registers only; the spill moves
of Linear become explicit ``MGetstack``/``MSetstack`` memory accesses.
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
from repro.langs.x86.regs import ARG_REGS, is_reg


class MInstr(Node):
    pass


class MLabel(MInstr):
    _fields = ("lbl",)


class MOp(MInstr):
    """``dst := op(args)`` over machine registers."""

    _fields = ("op", "args", "dst")


class MConst(MInstr):
    _fields = ("n", "dst")


class MAddrGlobal(MInstr):
    _fields = ("name", "dst")


class MAddrStack(MInstr):
    """``dst := sp + ofs`` (ofs already includes the slot area)."""

    _fields = ("ofs", "dst")


class MGetstack(MInstr):
    """``dst := [sp + idx]`` — a spill reload."""

    _fields = ("idx", "dst")


class MSetstack(MInstr):
    """``[sp + idx] := src`` — a spill store."""

    _fields = ("src", "idx")


class MLoad(MInstr):
    _fields = ("addr", "dst")


class MStore(MInstr):
    _fields = ("addr", "src")


class MCall(MInstr):
    _fields = ("fname", "arity", "external")


class MTailcall(MInstr):
    _fields = ("fname", "arity")


class MGoto(MInstr):
    _fields = ("lbl",)


class MCond(MInstr):
    _fields = ("op", "args", "lbl")


class MReturn(MInstr):
    _fields = ()


class MPrint(MInstr):
    _fields = ("src",)


class MSpawn(MInstr):
    _fields = ("fname",)


class MachFunction:
    """A Mach function: instruction tuple, frame size, label map."""

    __slots__ = ("name", "nparams", "framesize", "code", "labels")

    def __init__(self, name, nparams, framesize, code):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "nparams", nparams)
        object.__setattr__(self, "framesize", framesize)
        object.__setattr__(self, "code", tuple(code))
        labels = {}
        for idx, instr in enumerate(self.code):
            if isinstance(instr, MLabel):
                if instr.lbl in labels:
                    raise SemanticsError(
                        "duplicate label {!r} in {}".format(
                            instr.lbl, name
                        )
                    )
                labels[instr.lbl] = idx
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("MachFunction is immutable")

    def __repr__(self):
        return "MachFunction({}, {} instrs)".format(
            self.name, len(self.code)
        )

    def target(self, lbl):
        idx = self.labels.get(lbl)
        if idx is None:
            raise SemanticsError(
                "undefined label {!r} in {}".format(lbl, self.name)
            )
        return idx


class MachFrame(Record):
    _fields = __slots__ = ("fname", "pc", "sp")

    def __init__(self, fname, pc, sp):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "sp", sp)

    def __repr__(self):
        return "MachFrame({}@{})".format(self.fname, self.pc)

    def at(self, pc):
        return MachFrame(self.fname, pc, self.sp)


class MachCore(Record):
    _fields = __slots__ = ("regs", "frames", "nidx", "pending", "done")

    def __init__(self, regs=EMPTY_MAP, frames=(), nidx=0, pending=None,
                 done=False):
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __repr__(self):
        return "MachCore(depth={}, pending={!r})".format(
            len(self.frames), self.pending
        )


def _reg(core, r):
    if not is_reg(r):
        raise SemanticsError("bad machine register {!r}".format(r))
    value = core.regs.get(r, VUndef)
    if value is VUndef:
        raise EvalAbort("use of undefined register {!r}".format(r))
    return value


class MachLang(RegLanguage):
    """The Mach module language (deterministic)."""

    name = "Mach"
    core_cls = MachCore

    def _enter(self, module, core, mem, flist, fname):
        func = module.functions[fname]
        addrs, mem2 = alloc_slots(
            flist, core.nidx, mem, [VUndef] * func.framesize
        )
        frame = MachFrame(fname, 0, addrs[0] if addrs else None)
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
        if isinstance(instr, MLabel):
            return self._tau(core, frame.at(frame.pc + 1), EMP, mem)

        if isinstance(instr, MConst):
            regs = core.regs.set(instr.dst, VInt(instr.n))
            return self._tau(
                core, frame.at(frame.pc + 1), EMP, mem, regs
            )

        if isinstance(instr, MAddrGlobal):
            value = VPtr(symbol_addr(module, instr.name))
            regs = core.regs.set(instr.dst, value)
            return self._tau(
                core, frame.at(frame.pc + 1), EMP, mem, regs
            )

        if isinstance(instr, MAddrStack):
            if frame.sp is None:
                return [StepAbort(reason="stack address without frame")]
            regs = core.regs.set(instr.dst, VPtr(frame.sp + instr.ofs))
            return self._tau(
                core, frame.at(frame.pc + 1), EMP, mem, regs
            )

        if isinstance(instr, MGetstack):
            if frame.sp is None:
                return [StepAbort(reason="getstack without frame")]
            rs = set()
            value = load_checked(
                module, mem, frame.sp + instr.idx, rs
            )
            regs = core.regs.set(instr.dst, value)
            return self._tau(
                core, frame.at(frame.pc + 1), Footprint(rs), mem, regs
            )

        if isinstance(instr, MSetstack):
            if frame.sp is None:
                return [StepAbort(reason="setstack without frame")]
            value = _reg(core, instr.src)
            addr = frame.sp + instr.idx
            mem2 = store_checked(module, mem, addr, value)
            return self._tau(
                core, frame.at(frame.pc + 1), Footprint((), {addr}), mem2
            )

        if isinstance(instr, MOp):
            values = [_reg(core, r) for r in instr.args]
            result = apply_op(instr.op, values)
            regs = core.regs.set(instr.dst, result)
            return self._tau(
                core, frame.at(frame.pc + 1), EMP, mem, regs
            )

        if isinstance(instr, MLoad):
            rs = set()
            ptr = _reg(core, instr.addr)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="load through non-pointer")]
            value = load_checked(module, mem, ptr.addr, rs)
            regs = core.regs.set(instr.dst, value)
            return self._tau(
                core, frame.at(frame.pc + 1), Footprint(rs), mem, regs
            )

        if isinstance(instr, MStore):
            ptr = _reg(core, instr.addr)
            value = _reg(core, instr.src)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._tau(
                core, frame.at(frame.pc + 1), Footprint((), {ptr.addr}), mem2
            )

        if isinstance(instr, MCall):
            args = tuple(
                _reg(core, ARG_REGS[i]) for i in range(instr.arity)
            )
            return self._call(
                core, frame.at(frame.pc + 1), instr.fname, args,
                instr.external, mem,
            )

        if isinstance(instr, MTailcall):
            return self._tailcall(core, instr.fname, mem)

        if isinstance(instr, MGoto):
            return self._tau(
                core, frame.at(func.target(instr.lbl)), EMP, mem
            )

        if isinstance(instr, MCond):
            values = [_reg(core, r) for r in instr.args]
            result = apply_op(instr.op, values)
            taken = result.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            pc = func.target(instr.lbl) if taken else frame.pc + 1
            return self._tau(core, frame.at(pc), EMP, mem)

        if isinstance(instr, MReturn):
            return self._return(core, mem)

        if isinstance(instr, MSpawn):
            return self._tau(
                core, frame.at(frame.pc + 1), EMP, mem,
                label=SpawnMsg(instr.fname),
            )

        if isinstance(instr, MPrint):
            value = _reg(core, instr.src)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            return self._tau(
                core, frame.at(frame.pc + 1), EMP, mem,
                label=EventMsg("print", value.n),
            )

        raise SemanticsError("unknown Mach instruction {!r}".format(instr))


MACH = MachLang()
