"""Csharpminor: the first IR, output of the Cshmgen pass.

Differences from MiniC (Clight): variable scoping is gone — locals are
either *temporaries* (live in the core, no memory footprint) or
explicit *stack locals* (memory-allocated at entry, for address-taken
variables); global accesses are explicit ``ELoad``/``SStore`` through
``EAddrGlobal``. This is where the first footprint shrinkage of the
pipeline happens: reads/writes of promoted locals disappear from
footprints entirely (allowed because ``FPmatch`` only constrains the
shared region).
"""

from repro.common.astbase import Node, Record
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import ImmutableMap
from repro.common.values import BINOPS, UNOPS, VInt, VPtr, VUndef
from repro.lang.messages import EventMsg, SpawnMsg
from repro.lang.steps import StepAbort
from repro.langs.ir.base import (
    EvalAbort,
    alloc_slots,
    load_checked,
    store_checked,
    symbol_addr,
)
from repro.langs.ir.calls import DestLanguage


# ----- expressions -----------------------------------------------------------


class Expr(Node):
    pass


class EConst(Expr):
    _fields = ("n",)


class ETemp(Expr):
    _fields = ("name",)


class EAddrLocal(Expr):
    """Address of a stack-allocated local."""

    _fields = ("name",)


class EAddrGlobal(Expr):
    _fields = ("name",)


class ELoad(Expr):
    _fields = ("addr",)


class EUnop(Expr):
    _fields = ("op", "arg")


class EBinop(Expr):
    _fields = ("op", "left", "right")


# ----- statements ------------------------------------------------------------


class Stmt(Node):
    pass


class SSkip(Stmt):
    _fields = ()


class SSet(Stmt):
    """``temp := e`` — no memory effect."""

    _fields = ("temp", "expr")


class SStore(Stmt):
    """``[addr_e] := e``."""

    _fields = ("addr", "expr")


class SCall(Stmt):
    """``temp? = f(args)``; ``external`` resolved by the pass."""

    _fields = ("dst", "fname", "args", "external")


class SPrint(Stmt):
    _fields = ("expr",)


class SSeq(Stmt):
    _fields = ("stmts",)


class SIf(Stmt):
    _fields = ("cond", "then", "els")


class SWhile(Stmt):
    _fields = ("cond", "body")


class SReturn(Stmt):
    _fields = ("expr",)


class SSpawn(Stmt):
    """``spawn f`` — thread creation."""

    _fields = ("fname",)


class CshmFunction(Node):
    """``params`` are temp names; ``stack_locals`` the memory-resident
    (address-taken) locals."""

    _fields = ("name", "params", "stack_locals", "body")


# ----- semantics -------------------------------------------------------------


class CshmFrame(Record):
    _fields = __slots__ = ("fname", "temps", "env", "kont", "ret_dst")

    def __init__(self, fname, temps, env, kont, ret_dst=None):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "temps", temps)
        object.__setattr__(self, "env", env)
        object.__setattr__(self, "kont", tuple(kont))
        object.__setattr__(self, "ret_dst", ret_dst)

    def __repr__(self):
        return "CshmFrame({}, kont_len={})".format(
            self.fname, len(self.kont)
        )

    def with_kont(self, kont):
        return CshmFrame(
            self.fname, self.temps, self.env, kont, self.ret_dst
        )

    def with_temps(self, temps, kont):
        return CshmFrame(
            self.fname, temps, self.env, kont, self.ret_dst
        )

    def local_addr(self, expr):
        """The address a stack-local expression designates."""
        if isinstance(expr, EAddrLocal):
            addr = self.env.get(expr.name)
            if addr is None:
                raise EvalAbort(
                    "unknown stack local {!r}".format(expr.name)
                )
            return addr
        raise SemanticsError(
            "unknown Csharpminor expression {!r}".format(expr)
        )


class CshmCore(Record):
    _fields = __slots__ = ("frames", "nidx", "pending", "done")

    def __init__(self, frames=(), nidx=0, pending=None, done=False):
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __repr__(self):
        return "CshmCore(depth={}, pending={!r})".format(
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
    """Evaluate ``expr``; the frame resolves stack-local addresses, so
    C#minor and Cminor share this evaluator."""
    if isinstance(expr, EConst):
        return VInt(expr.n)
    if isinstance(expr, ETemp):
        value = frame.temps.get(expr.name, VUndef)
        if value is VUndef:
            raise EvalAbort(
                "use of undefined temp {!r}".format(expr.name)
            )
        return value
    if isinstance(expr, EAddrGlobal):
        return VPtr(symbol_addr(module, expr.name))
    if isinstance(expr, ELoad):
        ptr = _eval(module, frame, mem, expr.addr, rs)
        if not isinstance(ptr, VPtr):
            raise EvalAbort("load through non-pointer")
        return load_checked(module, mem, ptr.addr, rs)
    if isinstance(expr, EUnop):
        result = UNOPS[expr.op](
            _eval(module, frame, mem, expr.arg, rs)
        )
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
    return VPtr(frame.local_addr(expr))


class CshmLang(DestLanguage):
    """The Csharpminor module language (deterministic)."""

    name = "Csharpminor"
    core_cls = CshmCore

    def _enter(self, module, core, mem, flist, fname, args, ret_dst):
        func = module.functions[fname]
        addrs, mem2 = alloc_slots(
            flist, core.nidx, mem, [VUndef] * len(func.stack_locals)
        )
        frame = CshmFrame(
            fname,
            ImmutableMap(dict(zip(func.params, args))),
            ImmutableMap(dict(zip(func.stack_locals, addrs))),
            _flatten(func.body, ()),
            ret_dst,
        )
        return self._push(core, frame, addrs, mem2)

    @staticmethod
    def _assign(frame, dst, value):
        return frame.with_temps(frame.temps.set(dst, value), frame.kont)

    def _run(self, module, core, mem):
        frame = core.frames[-1]
        if not frame.kont:
            return self._return(core, VInt(0), EMP, mem)
        return self._stmt_step(module, core, mem, frame)

    def _stmt_step(self, module, core, mem, frame):
        stmt, rest = frame.kont[0], frame.kont[1:]

        if isinstance(stmt, SSkip):
            return self._tau(core, frame.with_kont(rest), EMP, mem)

        if isinstance(stmt, SSet):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            nxt = frame.with_temps(
                frame.temps.set(stmt.temp, value), rest
            )
            return self._tau(core, nxt, Footprint(rs), mem)

        if isinstance(stmt, SStore):
            rs = set()
            ptr = _eval(module, frame, mem, stmt.addr, rs)
            value = _eval(module, frame, mem, stmt.expr, rs)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store through non-pointer")]
            mem2 = store_checked(module, mem, ptr.addr, value)
            return self._tau(
                core, frame.with_kont(rest), Footprint(rs, {ptr.addr}), mem2
            )

        if isinstance(stmt, SCall):
            rs = set()
            args = tuple(
                _eval(module, frame, mem, a, rs) for a in stmt.args
            )
            return self._call(
                core, frame.with_kont(rest), stmt.fname, args, stmt.dst,
                stmt.external, Footprint(rs), mem,
            )

        if isinstance(stmt, SPrint):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            return self._tau(
                core, frame.with_kont(rest), Footprint(rs), mem,
                EventMsg("print", value.n),
            )

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
            kont = (
                _flatten(stmt.body, (stmt,) + rest) if taken else rest
            )
            return self._tau(
                core, frame.with_kont(kont), Footprint(rs), mem
            )

        if isinstance(stmt, SSpawn):
            return self._tau(
                core, frame.with_kont(rest), EMP, mem, SpawnMsg(stmt.fname)
            )

        if isinstance(stmt, SReturn):
            rs = set()
            value = VInt(0)
            if stmt.expr is not None:
                value = _eval(module, frame, mem, stmt.expr, rs)
            return self._return(core, value, Footprint(rs), mem)

        raise SemanticsError(
            "unknown {} statement {!r}".format(self.name, stmt)
        )


CSHARPMINOR = CshmLang()
