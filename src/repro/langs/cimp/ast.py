"""Abstract syntax of CImp, the object source language (Sec. 7.1).

CImp is the "simple imperative language" the paper uses to write
abstract specifications of synchronization objects (Fig. 10a). It has
thread-local registers, loads/stores on shared memory (``[e]``), atomic
blocks ``< c >`` that execute without interruption, and ``assert``.

AST nodes and functions are :class:`~repro.common.astbase.Node` values,
like the MiniC and IR syntax: immutable, equal by their ``_fields`` and
hashed once (they appear inside core states, which label graph nodes;
core states carry continuation tuples of statements, and without the
cached hash every core hash would re-walk the remaining program).
"""

from repro.common.astbase import Node


class Expr(Node):
    """Base class of CImp expressions (pure except for loads)."""


class Const(Expr):
    """An integer literal."""

    _fields = ("n",)


class Var(Expr):
    """A thread-local register, or a global symbol (resolved at runtime:
    register bindings shadow symbols; an unbound symbol denotes its
    address, so ``[L]`` loads from the address of global ``L``)."""

    _fields = ("name",)


class Load(Expr):
    """A memory read ``[e]``."""

    _fields = ("addr",)


class Bin(Expr):
    """A binary operation ``e1 op e2``."""

    _fields = ("op", "left", "right")


class Un(Expr):
    """A unary operation ``op e``."""

    _fields = ("op", "arg")


class Stmt(Node):
    """Base class of CImp statements."""


class Skip(Stmt):
    _fields = ()


class Assign(Stmt):
    """``r := e`` — write a thread-local register."""

    _fields = ("var", "expr")


class Store(Stmt):
    """``[e1] := e2`` — write shared memory."""

    _fields = ("addr", "expr")


class Seq(Stmt):
    """A statement sequence."""

    _fields = ("stmts",)


class If(Stmt):
    _fields = ("cond", "then", "els")


class While(Stmt):
    _fields = ("cond", "body")


class Assert(Stmt):
    """``assert(e)`` — aborts when false (Fig. 10a)."""

    _fields = ("cond",)


class Atomic(Stmt):
    """``< c >`` — an atomic block."""

    _fields = ("body",)


class Return(Stmt):
    """``return [e]``; ``expr`` is None for a bare return."""

    _fields = ("expr",)


class Print(Stmt):
    """``print(e)`` — emit an observable event."""

    _fields = ("expr",)


class Spawn(Stmt):
    """``spawn f;`` — start a new thread running function ``f``."""

    _fields = ("fname",)


class Function(Node):
    """A CImp function: parameter names plus a body statement."""

    _fields = ("name", "params", "body")

    def __repr__(self):
        return "Function({!r}, params={!r})".format(self.name, self.params)


class CImpModule:
    """A CImp module ``π``: functions, symbol table, owned data region.

    ``symbols`` maps global names to addresses. ``owned`` is the set of
    shared addresses this object module exclusively owns — the paper's
    permission partition (Sec. 7.1): clients have no permission on
    these, and the CImp module itself must only access owned addresses
    (it aborts otherwise).
    """

    __slots__ = ("functions", "symbols", "owned")

    def __init__(self, functions, symbols=None, owned=()):
        object.__setattr__(
            self, "functions", {f.name: f for f in functions}
        )
        object.__setattr__(self, "symbols", dict(symbols or {}))
        object.__setattr__(self, "owned", frozenset(owned))

    def __setattr__(self, name, value):
        raise AttributeError("CImpModule is immutable")

    def __repr__(self):
        return "CImpModule({})".format(sorted(self.functions))
