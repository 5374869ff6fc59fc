"""The abstract module language interface (Fig. 4).

A language is a tuple ``(Module, Core, InitCore, step)``. We realize it
as the abstract base class :class:`ModuleLanguage`; every concrete
language (CImp, MiniC, each compiler IR, x86-SC, x86-TSO) subclasses it.
MiniC and the IRs from C#minor to Mach do so through one shared call
protocol, :class:`repro.langs.ir.calls.CallLanguage`, which defines
``step``, ``init_core``, ``after_external`` and ``is_final`` once for
all seven; x86-SC/TSO and CImp define their own.

The contract, shared by the global semantics, the simulation checker and
the well-definedness checker:

* **Cores are immutable and hashable.** They contain everything
  thread-local that is not memory: continuations, register files,
  freelist allocation indices, TSO store buffers.
* **``step`` is pure.** It returns every outcome of one transition from
  ``(core, mem)`` under freelist ``flist``; it never mutates its inputs.
  ``step`` is the only definition of a local step: exploration calls it
  through the step-outcome memo of :mod:`repro.lang.closure`, which
  relies on this purity to share one outcome list between every world
  that reaches the same ``(core, mem, flist)``.
* **Footprints are honest.** Every memory read appears in ``fp.rs`` and
  every write/allocation in ``fp.ws`` — the well-definedness checker
  (Def. 1) verifies this extensionally by perturbing memory outside the
  reported sets.
"""

from abc import ABC, abstractmethod


class ModuleLanguage(ABC):
    """Abstract base for module languages ``tl = (Module, Core, InitCore, step)``."""

    #: Human-readable language name (e.g. ``"Clight"``, ``"x86-SC"``).
    name = "?"

    @abstractmethod
    def init_core(self, module, entry, args=()):
        """``InitCore``: the initial core for calling ``entry`` with ``args``.

        Returns ``None`` when ``entry`` is not defined in ``module``.
        """

    @abstractmethod
    def step(self, module, core, mem, flist):
        """All outcomes of one local step: a list of Step/StepAbort.

        An empty list means the core is terminated (a final core); stuck
        non-final cores must report ``StepAbort`` explicitly.
        """

    def entry_names(self, module):
        """The entry names ``init_core`` accepts for ``module``.

        Used by :class:`repro.semantics.world.GlobalContext` to
        precompute its resolve table. The default reads the
        ``functions`` name map every in-tree module keeps.
        """
        return module.functions.keys()

    def after_external(self, core, retval):
        """Resume a core that emitted ``CallMsg`` with the callee's result.

        Languages that never make external calls may keep the default,
        which signals a protocol violation.
        """
        raise NotImplementedError(
            "{} cores cannot resume from external calls".format(self.name)
        )

    def is_final(self, module, core):
        """True iff ``core`` has terminated (no further steps)."""
        return core is None

