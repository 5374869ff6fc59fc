"""Cminor: output of the Cminorgen pass.

Cminor shares Csharpminor's statement forms and statement step: its
language subclasses C#minor's and keeps only what differs:

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
from repro.common.immutables import ImmutableMap
from repro.common.values import VUndef
from repro.langs.ir.base import EvalAbort, alloc_slots
from repro.langs.ir.csharpminor import (
    CshmLang,
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
    _flatten,
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

    def local_addr(self, expr):
        """The address a stack-block expression designates."""
        if isinstance(expr, EAddrStack):
            if self.sp is None:
                raise EvalAbort("stack address in a frame without stack")
            return self.sp + expr.ofs
        raise SemanticsError("unknown Cminor expression {!r}".format(expr))


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


class CminorLang(CshmLang):
    """The Cminor module language (deterministic)."""

    name = "Cminor"
    core_cls = CmCore

    @staticmethod
    def _arity(func):
        return func.nparams

    def _enter(self, module, core, mem, flist, fname, args, ret_dst):
        func = module.functions[fname]
        addrs, mem2 = alloc_slots(
            flist, core.nidx, mem, [VUndef] * func.stacksize
        )
        frame = CmFrame(
            fname,
            ImmutableMap(dict(enumerate(args))),
            addrs[0] if addrs else None,
            _flatten(func.body, ()),
            ret_dst,
        )
        return self._push(core, frame, addrs, mem2)


CMINOR = CminorLang()
