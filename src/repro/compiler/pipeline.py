"""The CASCompCert pipeline driver.

Chains the twelve verified passes of Fig. 11 over the IR chain
Clight → C#minor → Cminor → CminorSel → RTL → LTL → Linear → Mach →
x86, keeping every intermediate module so that translation validation
can check the footprint-preserving simulation across each adjacent
pair. ``IdTrans`` is the identity transformation the paper applies to
the CImp object module.
"""

from repro import obs
from repro.obs.nodecount import count_nodes
from repro.langs.ir import (
    CMINOR,
    CMINORSEL,
    CSHARPMINOR,
    LINEAR,
    LTL,
    MACH,
    RTL,
)
from repro.langs.minic.semantics import MINIC
from repro.langs.x86 import X86SC
from repro.compiler.constprop import constprop
from repro.compiler.cse import cse
from repro.compiler.cshmgen import cshmgen
from repro.compiler.deadcode import deadcode
from repro.compiler.cminorgen import cminorgen
from repro.compiler.selection import selection
from repro.compiler.rtlgen import rtlgen
from repro.compiler.tailcall import tailcall
from repro.compiler.renumber import renumber
from repro.compiler.allocation import allocation
from repro.compiler.tunneling import tunneling
from repro.compiler.linearize import linearize
from repro.compiler.cleanuplabels import cleanuplabels
from repro.compiler.stacking import stacking
from repro.compiler.asmgen import asmgen

#: Optional RTL optimization passes — the paper's future work
#: ("proving other optimization passes would be similar"): inserted
#: after Renumber when compiling with ``optimize=True``.
EXTRA_PASSES = (
    ("ConstProp", constprop, RTL),
    ("CSE", cse, RTL),
    ("Deadcode", deadcode, RTL),
)

#: The pass table: (name, transformation, output language). The output
#: language of pass i is the input language of pass i+1.
PASSES = (
    ("Cshmgen", cshmgen, CSHARPMINOR),
    ("Cminorgen", cminorgen, CMINOR),
    ("Selection", selection, CMINORSEL),
    ("RTLgen", rtlgen, RTL),
    ("Tailcall", tailcall, RTL),
    ("Renumber", renumber, RTL),
    ("Allocation", allocation, LTL),
    ("Tunneling", tunneling, LTL),
    ("Linearize", linearize, LINEAR),
    ("CleanupLabels", cleanuplabels, LINEAR),
    ("Stacking", stacking, MACH),
    ("Asmgen", asmgen, X86SC),
)


class Stage:
    """One point of the pipeline: pass name, language, module."""

    __slots__ = ("name", "lang", "module")

    def __init__(self, name, lang, module):
        self.name = name
        self.lang = lang
        self.module = module

    def __repr__(self):
        return "Stage({}, {})".format(self.name, self.lang.name)


class CompilationResult:
    """All pipeline stages of one module, source first, x86 last."""

    def __init__(self, stages):
        self.stages = list(stages)

    @property
    def source(self):
        return self.stages[0]

    @property
    def target(self):
        return self.stages[-1]

    def adjacent_pairs(self):
        """(pass name, source stage, target stage) for each pass."""
        return [
            (self.stages[i + 1].name, self.stages[i], self.stages[i + 1])
            for i in range(len(self.stages) - 1)
        ]

    def stage(self, name):
        for st in self.stages:
            if st.name == name:
                return st
        raise KeyError(name)


def _passes(optimize):
    """The ``(name, transformation, language)`` entries
    :func:`compile_minic` runs, in order: the extension passes go after
    Renumber when ``optimize``. It reads the module-level tables at
    call time."""
    passes = []
    for entry in PASSES:
        passes.append(entry)
        if optimize and entry[0] == "Renumber":
            passes.extend(EXTRA_PASSES)
    return passes


def stage_names(optimize=False):
    """The names of the stages :func:`compile_minic` builds, in order,
    without compiling anything: ``source``, then one per pass."""
    return ("source",) + tuple(name for name, _f, _l in _passes(optimize))


def source_stage(module):
    """The source stage of a typechecked, linked MiniC module."""
    return Stage("source", MINIC, module)


def compile_minic(module, upto=None, optimize=False):
    """Run the pipeline on a typechecked, linked MiniC module.

    ``upto`` optionally names the last pass to run; ``optimize=True``
    inserts the extension optimization passes (ConstProp, CSE,
    Deadcode) after Renumber. Returns a :class:`CompilationResult`
    whose first stage is the source.
    """
    passes = _passes(optimize)
    stages = [source_stage(module)]
    current = module
    track = obs.enabled
    with obs.span("compile", optimize=optimize, passes=len(passes)):
        for name, transf, lang in passes:
            if track:
                with obs.span("compile.pass", pass_name=name) as sp:
                    nodes_in = count_nodes(current)
                    current = transf(current)
                    nodes_out = count_nodes(current)
                    sp.set(
                        lang=lang.name,
                        nodes_in=nodes_in,
                        nodes_out=nodes_out,
                    )
                obs.inc("compile.passes")
                obs.observe("compile.nodes_out", nodes_out)
            else:
                current = transf(current)
            stages.append(Stage(name, lang, current))
            if upto is not None and name == upto:
                break
    return CompilationResult(stages)


def id_trans(module):
    """``IdTrans``: the identity transformation for object modules."""
    return module
