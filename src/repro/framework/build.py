"""System builder: MiniC client sources + lock object → linked systems.

A :class:`ClientSystem` bundles everything the theorem checkers need:
the typechecked clients, their full compilation pipelines, the lock
specification/implementation, and program constructors for any stage
and machine model. It performs the linker duties of the Load rule:
consistent global addresses across modules, the object's permission
region threaded into every client as ``forbidden``.
"""

from repro.lang.module import link_program
from repro.langs.minic import compile_unit, link_units
from repro.langs.x86.tso import X86TSO
from repro.compiler.pipeline import compile_minic
from repro.tso.lockimpl import lock_impl_decl
from repro.tso.lockspec import DEFAULT_LOCK_ADDR, lock_spec_decl


class ClientSystem:
    """Compiled MiniC clients, optionally linked with the lock object."""

    def __init__(self, client_sources, entries, use_lock=False,
                 lock_addr=DEFAULT_LOCK_ADDR, optimize=False):
        self.entries = tuple(entries)
        self.use_lock = use_lock
        self.lock_addr = lock_addr
        self.optimize = optimize

        extra_symbols = {"L": lock_addr} if use_lock else None
        units = [compile_unit(src) for src in client_sources]
        modules, genvs, symbols = link_units(units, extra_symbols)
        if use_lock:
            modules = [
                m.with_forbidden({lock_addr}) for m in modules
            ]
            self.spec = lock_spec_decl(lock_addr)
            self.impl = lock_impl_decl(lock_addr)
        else:
            self.spec = self.impl = None
        self.client_modules = modules
        self.client_genvs = genvs
        self.symbols = symbols
        self.results = [
            compile_minic(m, optimize=optimize) for m in modules
        ]

    # ----- program constructors -------------------------------------------

    def source_program(self):
        """``P``: Clight clients + γ_o (Fig. 3 top)."""
        return link_program(
            [r.source for r in self.results], self.client_genvs,
            self.entries, obj=self.spec,
        )

    def stage_program(self, pass_name):
        """Clients at a named pipeline stage + γ_o."""
        return link_program(
            [r.stage(pass_name) for r in self.results], self.client_genvs,
            self.entries, obj=self.spec,
        )

    def sc_program(self):
        """``P_sc``: x86-SC clients + γ_o (Fig. 3 middle)."""
        return link_program(
            [r.target for r in self.results], self.client_genvs,
            self.entries, obj=self.spec,
        )

    def tso_program(self):
        """``P_rmm``: x86-TSO clients + π_o (Fig. 3 bottom)."""
        return link_program(
            [r.target for r in self.results], self.client_genvs,
            self.entries, X86TSO, self.impl,
        )

    # ----- shared state ----------------------------------------------------

    def initial_memory(self):
        return self.source_program().initial_memory()

    def shared(self):
        return self.source_program().shared_addresses()


def lock_counter_system(nthreads=2):
    """The canonical Fig. 10 workload: ``inc ∥ … ∥ inc``."""
    client = """
    extern void lock();
    extern void unlock();
    int x = 0;
    void inc() {
      int tmp;
      lock();
      tmp = x;
      x ++;
      unlock();
      print(tmp);
    }
    """
    return ClientSystem([client], ["inc"] * nthreads, use_lock=True)
