"""Modules, global environments and whole programs (Fig. 4).

* :class:`GlobalEnv` — ``ge``: the statically allocated globals a module
  declares, as a symbol table (name → address) plus initial values
  (address → value).
* :class:`ModuleDecl` — the triple ``(tl, ge, π)``: language, global
  environment, code.
* :class:`Program` — ``let Π in f1 ∥ … ∥ fn``: a set of modules and one
  entry name per thread.
* :func:`link_program` — client modules at a compiler stage, optionally
  on a machine model, plus an optional object: every program the
  checkers build.

Linking (``GE(Π)``, Fig. 7) takes the union of all global environments;
it is defined only when they are compatible, i.e. agree on common symbols
and never map different symbols to the same address.
"""

from repro.common.errors import SemanticsError
from repro.common.freelist import is_global
from repro.common.memory import Memory, closed


class GlobalEnv:
    """A module's global environment ``ge``.

    ``symbols`` maps global names to their (flat, word) addresses;
    ``init`` maps those addresses to initial values. Addresses must lie
    in the global region (below ``LOCAL_BASE``).
    """

    __slots__ = ("symbols", "init")

    def __init__(self, symbols=None, init=None):
        symbols = dict(symbols or {})
        init = dict(init or {})
        by_addr = {}
        for name, addr in symbols.items():
            if not is_global(addr):
                raise SemanticsError(
                    "global {!r} at non-global address {}".format(name, addr)
                )
            # Two symbols of the *same* module must not share an
            # address either — ``compatible()`` only catches the
            # cross-module case, so a self-colliding module would
            # otherwise link silently.
            clash = by_addr.get(addr)
            if clash is not None:
                raise SemanticsError(
                    "globals {!r} and {!r} share address {}".format(
                        clash, name, addr
                    )
                )
            by_addr[addr] = name
        self.symbols = symbols
        self.init = init

    def __eq__(self, other):
        return (
            isinstance(other, GlobalEnv)
            and self.symbols == other.symbols
            and self.init == other.init
        )

    def __repr__(self):
        return "GlobalEnv(symbols={!r})".format(self.symbols)

    def address_of(self, name):
        """The address of global ``name``, or ``None``."""
        return self.symbols.get(name)

    def memory(self):
        """The initial memory fragment this environment contributes."""
        return Memory(self.init)

    def domain(self):
        return frozenset(self.init)

    def compatible(self, other):
        """True iff the two environments can be linked."""
        for name, addr in self.symbols.items():
            if other.symbols.get(name, addr) != addr:
                return False
        # Distinct symbols must not collide on addresses.
        mine = {a: n for n, a in self.symbols.items()}
        for name, addr in other.symbols.items():
            if mine.get(addr, name) != name:
                return False
        for addr, val in self.init.items():
            if addr in other.init and other.init[addr] != val:
                return False
        return True

    def union(self, other):
        """The linked environment; raises when incompatible."""
        if not self.compatible(other):
            raise SemanticsError("incompatible global environments")
        symbols = dict(self.symbols)
        symbols.update(other.symbols)
        init = dict(self.init)
        init.update(other.init)
        return GlobalEnv(symbols, init)


class ModuleDecl:
    """A module declaration ``(tl, ge, π)``: language, globals, code."""

    __slots__ = ("lang", "ge", "code")

    def __init__(self, lang, ge, code):
        self.lang = lang
        self.ge = ge
        self.code = code

    def __repr__(self):
        return "ModuleDecl(lang={})".format(self.lang.name)


class Program:
    """A whole program ``let Π in f1 ∥ … ∥ fn``.

    ``modules`` is the module set Π; ``entries`` gives the entry function
    of each thread (thread ids are 1-based positions, matching the
    paper's ``t ∈ {1..n}``).
    """

    __slots__ = ("modules", "entries")

    def __init__(self, modules, entries):
        self.modules = tuple(modules)
        self.entries = tuple(entries)
        if not self.entries:
            raise SemanticsError("a program needs at least one thread")

    def __repr__(self):
        return "Program(entries={!r})".format(list(self.entries))

    def global_env(self):
        """``GE(Π)``: the union of all modules' global environments."""
        ge = GlobalEnv()
        for decl in self.modules:
            ge = ge.union(decl.ge)
        return ge

    def initial_memory(self):
        """The initial memory ``σ = GE(Π)``, checked ``closed`` (Load rule).

        Raises :class:`SemanticsError` when the linked globals contain a
        wild pointer — the Load rule's side condition.
        """
        mem = self.global_env().memory()
        if not closed(mem):
            raise SemanticsError("initial globals are not closed")
        return mem

    def shared_addresses(self):
        """The shared region ``S``: the domain of the linked globals."""
        return self.global_env().domain()


def link_program(stages, genvs, entries, machine=None, obj=None):
    """The clients at compiler ``stages`` (one per genv), each on the
    ``machine`` model when given (x86-SC or x86-TSO) and otherwise in
    its stage's language, linked with the object declaration ``obj``
    when there is one."""
    decls = [
        ModuleDecl(machine or stage.lang, ge, stage.module)
        for stage, ge in zip(stages, genvs)
    ]
    if obj is not None:
        decls.append(obj)
    return Program(decls, entries)
