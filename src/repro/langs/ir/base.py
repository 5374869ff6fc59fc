"""Shared infrastructure of the compiler IRs.

Every IR module is an :class:`IRModule`: functions, linked symbol
table, extern signatures and the client-forbidden region. Interpreters
share :class:`EvalAbort`, the permission/load/store helpers, freelist
slot allocation and operator application, so footprints and aborts
behave identically across the chain. The call protocol that MiniC and
the IRs from C#minor to Mach share is in :mod:`repro.langs.ir.calls`.
"""

from repro.common.errors import SemanticsError
from repro.common.freelist import is_global
from repro.common.values import BINOPS, UNOPS, VUndef


class IRModule:
    """A module of any compiler IR.

    ``functions``: name → IR-specific function object;
    ``symbols``: global name → linked address;
    ``externs``: extern function name → arity (what the calling
    convention needs at lower levels);
    ``forbidden``: object-owned region this client must not touch;
    ``owned``: for *object* modules, the global region the module is
    confined to — a non-empty ``owned`` makes any access to global
    addresses outside it abort (the other half of the Sec. 7.1
    permission partition; local freelist addresses are always allowed).
    """

    __slots__ = ("functions", "symbols", "externs", "forbidden", "owned")

    def __init__(self, functions, symbols, externs=None, forbidden=(),
                 owned=()):
        object.__setattr__(self, "functions", dict(functions))
        object.__setattr__(self, "symbols", dict(symbols))
        object.__setattr__(self, "externs", dict(externs or {}))
        object.__setattr__(self, "forbidden", frozenset(forbidden))
        object.__setattr__(self, "owned", frozenset(owned))

    def __setattr__(self, name, value):
        raise AttributeError("IRModule is immutable")

    def __repr__(self):
        return "IRModule(functions={})".format(sorted(self.functions))

    def with_forbidden(self, forbidden):
        return IRModule(
            self.functions, self.symbols, self.externs, forbidden,
            self.owned,
        )

    def with_functions(self, functions):
        return IRModule(
            functions, self.symbols, self.externs, self.forbidden,
            self.owned,
        )


class EvalAbort(Exception):
    """Expression/instruction evaluation reached undefined behaviour."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


def check_access(module, addr):
    """Permission check (Sec. 7.1 partition).

    Clients must not touch the object-owned region; an object module
    (non-empty ``owned``) must not touch global addresses outside its
    own region. Freelist (thread-local) addresses are unrestricted.
    """
    if addr in module.forbidden:
        raise EvalAbort(
            "client accessed object-owned address {}".format(addr)
        )
    if module.owned and is_global(addr) and addr not in module.owned:
        raise EvalAbort(
            "object accessed non-owned global address {}".format(addr)
        )


def load_checked(module, mem, addr, rs):
    """A permission-checked, footprinted load; aborts on unallocated."""
    check_access(module, addr)
    rs.add(addr)
    value = mem.load(addr)
    if value is None:
        raise EvalAbort("load from unallocated {}".format(addr))
    return value


def store_checked(module, mem, addr, value):
    """A permission-checked store; returns the new memory."""
    check_access(module, addr)
    mem2 = mem.store(addr, value)
    if mem2 is None:
        raise EvalAbort("store to unallocated {}".format(addr))
    return mem2


def symbol_addr(module, name):
    """The linked address of a global symbol."""
    addr = module.symbols.get(name)
    if addr is None:
        raise EvalAbort("unresolved global {!r}".format(name))
    return addr


def alloc_slots(flist, nidx, mem, values):
    """Allocate one freelist slot per initial value, from index ``nidx``.

    Returns ``(addrs, mem)``: the new addresses in order and the memory
    with them allocated.
    """
    addrs = []
    for value in values:
        addr = flist.addr_at(nidx)
        nidx += 1
        mem = mem.alloc(addr, value)
        if mem is None:
            raise SemanticsError("freelist slot already allocated")
        addrs.append(addr)
    return addrs, mem


def apply_op(op, values):
    """``op`` applied to one or two operands (``move`` copies one)."""
    if op == "move":
        return values[0]
    if len(values) == 1:
        result = UNOPS[op](values[0])
    else:
        result = BINOPS[op](values[0], values[1])
    if result is VUndef:
        raise EvalAbort("undefined result of {!r}".format(op))
    return result
