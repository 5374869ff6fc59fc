"""Footprint-instrumented small-step semantics of MiniC (Clight role).

Core states follow the paper's Clight instantiation (Sec. 7.1): a core
is control state plus the index ``N`` of the next freelist slot. As in
Clight, every local variable lives in memory: a function entry
allocates one slot per parameter/local from the activation's freelist
``F`` (so local footprints are visible, and shrinking them is the
compiler's job).

Execution granularity is one statement per step; the footprint of a
step collects every load/store its expressions perform. Cross-module
calls emit ``CallMsg`` and suspend the core; ``after_external`` injects
the result, which a subsequent silent step writes to its destination
(the write is a memory effect and needs its own footprint).

Permission discipline: a client module aborts when touching the
object-owned region (``module.forbidden``), realizing the paper's
"permission None" partition.
"""

from repro.common.astbase import Record
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import ImmutableMap
from repro.common.values import BINOPS, UNOPS, VInt, VPtr, VUndef
from repro.lang.messages import TAU, EventMsg, SpawnMsg
from repro.lang.steps import Step, StepAbort
from repro.langs.ir.base import EvalAbort, alloc_slots
from repro.langs.ir.calls import DestLanguage
from repro.langs.minic import ast


class MFrame(Record):
    """One internal activation: function, local slot map, continuation,
    and the caller's destination lvalue for this activation's result."""

    _fields = __slots__ = ("fname", "env", "kont", "ret_dst")

    def __init__(self, fname, env, kont, ret_dst=None):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "env", env)
        object.__setattr__(self, "kont", tuple(kont))
        object.__setattr__(self, "ret_dst", ret_dst)

    def __repr__(self):
        return "MFrame({}, kont_len={})".format(
            self.fname, len(self.kont)
        )

    def with_kont(self, kont):
        return MFrame(self.fname, self.env, kont, self.ret_dst)


class MiniCCore(Record):
    """A MiniC core: activation stack, next slot index, pending action."""

    _fields = __slots__ = ("frames", "nidx", "pending", "done")

    def __init__(self, frames=(), nidx=0, pending=None, done=False):
        object.__setattr__(self, "frames", tuple(frames))
        object.__setattr__(self, "nidx", nidx)
        object.__setattr__(self, "pending", pending)
        object.__setattr__(self, "done", done)

    def __repr__(self):
        return "MiniCCore(depth={}, nidx={}, pending={!r})".format(
            len(self.frames), self.nidx, self.pending
        )


def _check_access(module, addr):
    if addr in module.forbidden:
        raise EvalAbort(
            "client accessed object-owned address {}".format(addr)
        )


def _load(module, mem, addr, rs):
    _check_access(module, addr)
    rs.add(addr)
    value = mem.load(addr)
    if value is None:
        raise EvalAbort("load from unallocated {}".format(addr))
    return value


def _eval(module, frame, mem, expr, rs):
    if isinstance(expr, ast.IntLit):
        return VInt(expr.n)
    if isinstance(expr, ast.VarExpr):
        addr = _var_addr(module, frame, expr.name, expr.scope)
        return _load(module, mem, addr, rs)
    if isinstance(expr, ast.AddrOf):
        return VPtr(_var_addr(module, frame, expr.name, expr.scope))
    if isinstance(expr, ast.Deref):
        ptr = _eval(module, frame, mem, expr.arg, rs)
        if not isinstance(ptr, VPtr):
            raise EvalAbort("dereference of non-pointer")
        return _load(module, mem, ptr.addr, rs)
    if isinstance(expr, ast.Unop):
        arg = _eval(module, frame, mem, expr.arg, rs)
        result = UNOPS[expr.op](arg)
        if result is VUndef:
            raise EvalAbort("undefined unop result")
        return result
    if isinstance(expr, ast.Binop):
        left = _eval(module, frame, mem, expr.left, rs)
        right = _eval(module, frame, mem, expr.right, rs)
        result = BINOPS[expr.op](left, right)
        if result is VUndef:
            raise EvalAbort(
                "undefined result of {!r}".format(expr.op)
            )
        return result
    raise SemanticsError("unknown MiniC expression {!r}".format(expr))


def _var_addr(module, frame, name, scope):
    if scope == "local":
        return frame.env[name]
    addr = module.symbols.get(name)
    if addr is None:
        raise EvalAbort("unresolved global {!r}".format(name))
    return addr


def _flatten(stmt, rest):
    if isinstance(stmt, ast.SBlock):
        out = rest
        for s in reversed(stmt.stmts):
            out = _flatten(s, out)
        return out
    if isinstance(stmt, ast.SSkip):
        return rest
    return (stmt,) + rest


class MiniCLang(DestLanguage):
    """The MiniC module language (deterministic)."""

    name = "Clight"
    core_cls = MiniCCore
    arity_reason = "arity mismatch at module call"

    def _enter(self, module, core, mem, flist, fname, args, ret_dst):
        func = module.functions[fname]
        passed = {name: arg for (name, _ty), arg in zip(func.params, args)}
        names = [name for name, _ty in func.locals_]
        addrs, data_mem = alloc_slots(
            flist, core.nidx, mem, [passed.get(n, VUndef) for n in names]
        )
        frame = MFrame(
            fname,
            ImmutableMap(dict(zip(names, addrs))),
            _flatten(func.body, ()),
            ret_dst,
        )
        return self._push(core, frame, addrs, data_mem)

    def _resume(self, module, core, mem, dst, value):
        """Write a call's result to its destination lvalue: a memory
        effect, with its own footprint."""
        nxt = MiniCCore(core.frames, core.nidx)
        if dst is None:
            return [Step(TAU, EMP, nxt, mem)]
        rs = set()
        addr = self._lhs_addr(module, core.frames[-1], mem, dst, rs)
        mem2 = mem.store(addr, value)
        if mem2 is None:
            return [StepAbort(reason="store to unallocated")]
        return [Step(TAU, Footprint(rs, {addr}), nxt, mem2)]

    def _run(self, module, core, mem):
        if not core.frames:
            raise SemanticsError("MiniC core without frames")
        frame = core.frames[-1]
        if not frame.kont:
            # Implicit return at the end of the body.
            return self._return(core, VInt(0), EMP, mem)
        return self._stmt_step(module, core, mem, frame)

    # ----- statements -------------------------------------------------------

    def _stmt_step(self, module, core, mem, frame):
        stmt, rest = frame.kont[0], frame.kont[1:]
        advance = frame.with_kont(rest)

        if isinstance(stmt, ast.SSkip):
            return self._tau(core, advance, EMP, mem)

        if isinstance(stmt, ast.SDecl):
            if stmt.init is None:
                return self._tau(core, advance, EMP, mem)
            rs = set()
            value = _eval(module, frame, mem, stmt.init, rs)
            addr = frame.env[stmt.name]
            mem2 = mem.store(addr, value)
            if mem2 is None:
                return [StepAbort(reason="store to unallocated")]
            return self._tau(
                core, advance, Footprint(rs, {addr}), mem2
            )

        if isinstance(stmt, ast.SAssign):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            addr = self._lhs_addr(module, frame, mem, stmt.lhs, rs)
            mem2 = mem.store(addr, value)
            if mem2 is None:
                return [StepAbort(reason="store to unallocated")]
            return self._tau(
                core, advance, Footprint(rs, {addr}), mem2
            )

        if isinstance(stmt, ast.SCallStmt):
            # An internal call leaves the callee's entry pending, so
            # allocating its slots carries its own footprint.
            rs = set()
            args = tuple(
                _eval(module, frame, mem, a, rs) for a in stmt.call.args
            )
            return self._call(
                core, advance, stmt.call.fname, args, stmt.dst,
                stmt.call.external, Footprint(rs), mem,
            )

        if isinstance(stmt, ast.SPrint):
            rs = set()
            value = _eval(module, frame, mem, stmt.expr, rs)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            return self._tau(
                core, advance, Footprint(rs), mem,
                EventMsg("print", value.n),
            )

        if isinstance(stmt, ast.SIf):
            rs = set()
            cond = _eval(module, frame, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            branch = stmt.then if taken else stmt.els
            nxt_frame = frame.with_kont(_flatten(branch, rest))
            return self._tau(core, nxt_frame, Footprint(rs), mem)

        if isinstance(stmt, ast.SWhile):
            rs = set()
            cond = _eval(module, frame, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined loop condition")]
            if taken:
                kont = _flatten(stmt.body, (stmt,) + rest)
            else:
                kont = rest
            return self._tau(
                core, frame.with_kont(kont), Footprint(rs), mem
            )

        if isinstance(stmt, ast.SBlock):
            return self._tau(
                core, frame.with_kont(_flatten(stmt, rest)), EMP, mem
            )

        if isinstance(stmt, ast.SSpawn):
            return self._tau(core, advance, EMP, mem, SpawnMsg(stmt.fname))

        if isinstance(stmt, ast.SReturn):
            rs = set()
            value = VInt(0)
            if stmt.expr is not None:
                value = _eval(module, frame, mem, stmt.expr, rs)
            return self._return(core, value, Footprint(rs), mem)

        raise SemanticsError("unknown MiniC statement {!r}".format(stmt))

    def _lhs_addr(self, module, frame, mem, lhs, rs):
        if isinstance(lhs, ast.LhsVar):
            addr = _var_addr(module, frame, lhs.name, lhs.scope)
        else:
            ptr = _eval(module, frame, mem, lhs.arg, rs)
            if not isinstance(ptr, VPtr):
                raise EvalAbort("store through non-pointer")
            addr = ptr.addr
        _check_access(module, addr)
        return addr


#: Shared language instance.
MINIC = MiniCLang()
