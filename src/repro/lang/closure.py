"""The step-outcome memo in front of the step interpreters.

Each language's ``step`` is the paper's module-local small-step
relation (Fig. 4), and the only definition of stepping there is.
Exploration calls it for the same thread-local configuration many
times over: every world that reaches the same ``(core, mem, flist)``
of a module asks for the same outcome list. ``step`` is pure (the
:class:`~repro.lang.interface.ModuleLanguage` contract), so this module
keeps one bounded memo per ``(language, module)`` and answers repeats
from it:

* :func:`stage` — the per-``(language, module)`` :class:`StagedModule`.
* :func:`step_outcomes` — the drop-in the exploration layers call
  instead of ``decl.lang.step``.
* :func:`prime` — stages every module of a context up front.

Counters: ``closure.modules_staged``, ``closure.memo_hits``,
``closure.memo_misses``.
"""

from repro import obs

#: Step-outcome memo bound per staged module; outcome lists are small,
#: so this caps worst-case growth around a few hundred MB before the
#: table self-clears (same policy as the intern tables).
MEMO_MAX = 1 << 20

#: Stage-cache bound: entries hold strong references to language and
#: module, so long test sessions staging thousands of throwaway
#: modules must not accumulate them forever.
CACHE_MAX = 512


def enabled():
    """Always True: the memo is the only stepping path.

    Kept because benchmark workers record it in their run config.
    """
    return True


class StagedModule:
    """One module's step-outcome memo.

    The memo is sound because ``lang.step`` is pure and total in
    ``(core, mem, flist)``; the returned lists are shared, so callers
    must not mutate them (none do — the engine, POR and the race
    predictor only read).
    """

    __slots__ = ("lang", "module", "memo")

    def __init__(self, lang, module):
        self.lang = lang
        self.module = module
        self.memo = {}

    def outcomes(self, core, mem, flist):
        memo = self.memo
        key = (core, mem, flist)
        outs = memo.get(key)
        if outs is None:
            outs = self.lang.step(self.module, core, mem, flist)
            if len(memo) >= MEMO_MAX:
                memo.clear()
            memo[key] = outs
            if obs.enabled:
                obs.inc("closure.memo_misses")
        elif obs.enabled:
            obs.inc("closure.memo_hits")
        return outs


#: The process-wide stage cache: ``(id(lang), id(module)) →
#: StagedModule``. Keying on the *language instance* too keeps x86-SC
#: and x86-TSO outcomes apart when they step the same module (the TSO
#: subclass overrides the memory hooks). Strong references inside
#: StagedModule keep the ids stable for the life of each entry.
_cache = {}


def stage(lang, module):
    """The memo for one module, created on first use."""
    key = (id(lang), id(module))
    staged = _cache.get(key)
    if staged is None:
        staged = StagedModule(lang, module)
        if len(_cache) >= CACHE_MAX:
            _cache.clear()
        _cache[key] = staged
        if obs.enabled:
            obs.inc("closure.modules_staged")
    return staged


def clear_cache():
    """Drop every memo (tests; never required for soundness)."""
    _cache.clear()


def step_outcomes(decl, core, mem, flist):
    """All outcomes of one local step of ``decl``'s language: the
    memoized ``decl.lang.step(decl.code, core, mem, flist)``."""
    return stage(decl.lang, decl.code).outcomes(core, mem, flist)


def prime(ctx):
    """Stage every module of ``ctx`` (a GlobalContext) up front."""
    for decl in ctx.modules:
        stage(decl.lang, decl.code)
