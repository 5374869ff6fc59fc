"""The abstract concurrent language of the paper (Fig. 4).

This package is language-*independent*: it defines the interface every
module language implements (:mod:`repro.lang.interface`), the messages
and step outcomes exchanged with the global semantics
(:mod:`repro.lang.messages`, :mod:`repro.lang.steps`), module/program
structure and linking (:mod:`repro.lang.module`), and the dynamic
well-definedness checker of Def. 1 (:mod:`repro.lang.wd`).
"""

from repro.lang.interface import ModuleLanguage
from repro.lang.messages import (
    ENT_ATOM,
    EXT_ATOM,
    TAU,
    CallMsg,
    EventMsg,
    Message,
    RetMsg,
    is_observable,
    is_silent,
)
from repro.lang.module import GlobalEnv, ModuleDecl, Program
from repro.lang.steps import Step, StepAbort, has_abort, successful

__all__ = [
    "ModuleLanguage",
    "TAU",
    "ENT_ATOM",
    "EXT_ATOM",
    "Message",
    "EventMsg",
    "RetMsg",
    "CallMsg",
    "is_silent",
    "is_observable",
    "GlobalEnv",
    "ModuleDecl",
    "Program",
    "Step",
    "StepAbort",
    "successful",
    "has_abort",
]
