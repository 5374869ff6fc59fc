"""System builder: MiniC client sources + lock object → linked systems.

A :class:`ClientSystem` bundles everything the theorem checkers need:
the typechecked clients, their full compilation pipelines, the lock
specification/implementation, and program constructors for any stage
and machine model. It performs the linker duties of the Load rule:
consistent global addresses across modules, the object's permission
region threaded into every client as ``forbidden``.
"""

from repro.lang.module import ModuleDecl, Program
from repro.langs.cimp.semantics import CIMP
from repro.langs.minic import compile_unit, link_units
from repro.langs.x86.tso import X86TSO
from repro.compiler.pipeline import compile_minic
from repro.tso.lockimpl import lock_impl
from repro.tso.lockspec import DEFAULT_LOCK_ADDR, lock_spec


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
            self.spec_module, self.spec_ge = lock_spec(lock_addr)
            self.impl_module, self.impl_ge = lock_impl(lock_addr)
        else:
            self.spec_module = self.spec_ge = None
            self.impl_module = self.impl_ge = None
        self.client_modules = modules
        self.client_genvs = genvs
        self.symbols = symbols
        self.results = [
            compile_minic(m, optimize=optimize) for m in modules
        ]

    # ----- program constructors -------------------------------------------

    def _object_decl(self, use_impl=False, impl_lang=X86TSO):
        if not self.use_lock:
            return None
        if use_impl:
            return ModuleDecl(impl_lang, self.impl_ge, self.impl_module)
        return ModuleDecl(CIMP, self.spec_ge, self.spec_module)

    def _program(self, stages, client_lang=None, use_impl=False,
                 client_decls_lang=None):
        decls = []
        for stage, ge in zip(stages, self.client_genvs):
            lang = client_decls_lang or stage.lang
            decls.append(ModuleDecl(lang, ge, stage.module))
        obj = self._object_decl(use_impl)
        if obj is not None:
            decls.append(obj)
        return Program(decls, self.entries)

    def source_program(self):
        """``P``: Clight clients + γ_o (Fig. 3 top)."""
        return self._program([r.source for r in self.results])

    def stage_program(self, pass_name):
        """Clients at a named pipeline stage + γ_o."""
        return self._program(
            [r.stage(pass_name) for r in self.results]
        )

    def sc_program(self):
        """``P_sc``: x86-SC clients + γ_o (Fig. 3 middle)."""
        return self._program([r.target for r in self.results])

    def tso_program(self):
        """``P_rmm``: x86-TSO clients + π_o (Fig. 3 bottom)."""
        return self._program(
            [r.target for r in self.results],
            use_impl=True,
            client_decls_lang=X86TSO,
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
