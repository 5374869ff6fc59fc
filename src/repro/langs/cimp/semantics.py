"""Footprint-instrumented small-step semantics of CImp.

Each statement executes in one silent step (loads inside its expressions
contribute to the read set), except atomic blocks, whose entry and exit
are separate ``EntAtom``/``ExtAtom`` steps (Fig. 7) with empty footprints
and unchanged memory, exactly as the global EntAt/ExtAt rules require.

Permission discipline (Sec. 7.1): when a module declares an ``owned``
region, every memory access must fall inside it — the object's data is
invisible to clients and the object touches nothing else. Accessing an
unallocated address or asserting a false condition aborts.

CImp is deterministic: ``step`` always returns at most one outcome.
"""

from repro.common.astbase import Record
from repro.common.errors import SemanticsError
from repro.common.footprint import EMP, Footprint
from repro.common.immutables import EMPTY_MAP, ImmutableMap
from repro.common.values import BINOPS, UNOPS, VInt, VPtr, VUndef
from repro.lang.interface import ModuleLanguage
from repro.lang.messages import (
    ENT_ATOM,
    EXT_ATOM,
    TAU,
    EventMsg,
    RetMsg,
    SpawnMsg,
)
from repro.lang.steps import Step, StepAbort
from repro.langs.cimp import ast
from repro.langs.ir.base import EvalAbort

#: Continuation marker closing an atomic block.
EXIT_ATOM_MARK = "exit-atom"


class CImpCore(Record):
    """A CImp core: registers, continuation, termination flag."""

    _fields = __slots__ = ("regs", "kont", "done")

    def __init__(self, regs=EMPTY_MAP, kont=(), done=False):
        object.__setattr__(self, "regs", regs)
        object.__setattr__(self, "kont", tuple(kont))
        object.__setattr__(self, "done", done)

    def __repr__(self):
        return "CImpCore(kont_len={}, done={})".format(
            len(self.kont), self.done
        )


def _check_access(module, addr):
    if module.owned and addr not in module.owned:
        raise EvalAbort(
            "object accessed non-owned address {}".format(addr)
        )


def _eval(module, regs, mem, expr, rs):
    """Evaluate ``expr``; loads extend ``rs``; raises ``EvalAbort``."""
    if isinstance(expr, ast.Const):
        return VInt(expr.n)
    if isinstance(expr, ast.Var):
        if expr.name in regs:
            return regs[expr.name]
        addr = module.symbols.get(expr.name)
        if addr is None:
            raise EvalAbort("unbound identifier {!r}".format(expr.name))
        return VPtr(addr)
    if isinstance(expr, ast.Load):
        ptr = _eval(module, regs, mem, expr.addr, rs)
        if not isinstance(ptr, VPtr):
            raise EvalAbort("load from non-pointer {!r}".format(ptr))
        _check_access(module, ptr.addr)
        rs.add(ptr.addr)
        value = mem.load(ptr.addr)
        if value is None:
            raise EvalAbort("load from unallocated {}".format(ptr.addr))
        return value
    if isinstance(expr, ast.Bin):
        left = _eval(module, regs, mem, expr.left, rs)
        right = _eval(module, regs, mem, expr.right, rs)
        result = BINOPS[expr.op](left, right)
        if result is VUndef:
            raise EvalAbort(
                "undefined result of {!r}".format(expr.op)
            )
        return result
    if isinstance(expr, ast.Un):
        arg = _eval(module, regs, mem, expr.arg, rs)
        result = UNOPS[expr.op](arg)
        if result is VUndef:
            raise EvalAbort("undefined result of {!r}".format(expr.op))
        return result
    raise SemanticsError("unknown CImp expression {!r}".format(expr))


def _flatten(stmt, rest):
    """Prepend a statement to a continuation, flattening sequences."""
    if isinstance(stmt, ast.Seq):
        out = rest
        for s in reversed(stmt.stmts):
            out = _flatten(s, out)
        return out
    return (stmt,) + rest


class CImpLang(ModuleLanguage):
    """The CImp module language (deterministic, atomic blocks)."""

    name = "CImp"

    def init_core(self, module, entry, args=()):
        func = module.functions.get(entry)
        if func is None:
            return None
        if len(args) != len(func.params):
            # Arity mismatch at linking: undefined behaviour.
            return CImpCore(kont=("arity-abort",))
        regs = ImmutableMap(dict(zip(func.params, args)))
        return CImpCore(regs=regs, kont=_flatten(func.body, ()))

    def step(self, module, core, mem, flist):
        if core.done:
            return []
        if not core.kont:
            # Function body exhausted: implicit ``return 0``.
            return [
                Step(RetMsg(VInt(0)), EMP, CImpCore(done=True), mem)
            ]
        head, rest = core.kont[0], core.kont[1:]
        if head == "arity-abort":
            return [StepAbort(reason="arity mismatch at module call")]
        if head == EXIT_ATOM_MARK:
            return [
                Step(
                    EXT_ATOM,
                    EMP,
                    CImpCore(core.regs, rest, core.done),
                    mem,
                )
            ]
        try:
            return self._stmt_step(module, core, mem, head, rest)
        except EvalAbort as abort:
            return [StepAbort(reason=abort.reason)]

    def _stmt_step(self, module, core, mem, stmt, rest):
        regs = core.regs

        if isinstance(stmt, ast.Skip):
            return [Step(TAU, EMP, CImpCore(regs, rest), mem)]

        if isinstance(stmt, ast.Assign):
            rs = set()
            value = _eval(module, regs, mem, stmt.expr, rs)
            nxt = CImpCore(regs.set(stmt.var, value), rest)
            return [Step(TAU, Footprint(rs), nxt, mem)]

        if isinstance(stmt, ast.Store):
            rs = set()
            ptr = _eval(module, regs, mem, stmt.addr, rs)
            value = _eval(module, regs, mem, stmt.expr, rs)
            if not isinstance(ptr, VPtr):
                return [StepAbort(reason="store to non-pointer")]
            _check_access(module, ptr.addr)
            mem2 = mem.store(ptr.addr, value)
            if mem2 is None:
                return [
                    StepAbort(
                        reason="store to unallocated {}".format(ptr.addr)
                    )
                ]
            fp = Footprint(rs, {ptr.addr})
            return [Step(TAU, fp, CImpCore(regs, rest), mem2)]

        if isinstance(stmt, ast.Seq):
            return [
                Step(TAU, EMP, CImpCore(regs, _flatten(stmt, rest)), mem)
            ]

        if isinstance(stmt, ast.If):
            rs = set()
            cond = _eval(module, regs, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined condition")]
            branch = stmt.then if taken else stmt.els
            nxt = CImpCore(regs, _flatten(branch, rest))
            return [Step(TAU, Footprint(rs), nxt, mem)]

        if isinstance(stmt, ast.While):
            rs = set()
            cond = _eval(module, regs, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None:
                return [StepAbort(reason="undefined loop condition")]
            if taken:
                kont = _flatten(stmt.body, (stmt,) + rest)
            else:
                kont = rest
            return [Step(TAU, Footprint(rs), CImpCore(regs, kont), mem)]

        if isinstance(stmt, ast.Assert):
            rs = set()
            cond = _eval(module, regs, mem, stmt.cond, rs)
            taken = cond.is_true()
            if taken is None or not taken:
                return [StepAbort(reason="assertion failed")]
            return [Step(TAU, Footprint(rs), CImpCore(regs, rest), mem)]

        if isinstance(stmt, ast.Atomic):
            kont = _flatten(stmt.body, (EXIT_ATOM_MARK,) + rest)
            return [Step(ENT_ATOM, EMP, CImpCore(regs, kont), mem)]

        if isinstance(stmt, ast.Return):
            rs = set()
            value = VInt(0)
            if stmt.expr is not None:
                value = _eval(module, regs, mem, stmt.expr, rs)
            return [
                Step(
                    RetMsg(value),
                    Footprint(rs),
                    CImpCore(done=True),
                    mem,
                )
            ]

        if isinstance(stmt, ast.Print):
            rs = set()
            value = _eval(module, regs, mem, stmt.expr, rs)
            if not isinstance(value, VInt):
                return [StepAbort(reason="print of non-integer")]
            msg = EventMsg("print", value.n)
            return [Step(msg, Footprint(rs), CImpCore(regs, rest), mem)]

        if isinstance(stmt, ast.Spawn):
            return [
                Step(
                    SpawnMsg(stmt.fname),
                    EMP,
                    CImpCore(regs, rest),
                    mem,
                )
            ]

        raise SemanticsError("unknown CImp statement {!r}".format(stmt))

    def is_final(self, module, core):
        return core is not None and core.done


#: Shared language instance (the class is stateless).
CIMP = CImpLang()
