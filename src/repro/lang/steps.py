"""Results of module-local steps.

The labelled transition of Fig. 4 is

    ``F ⊢ (κ, σ) --ι/δ--> (κ', σ')  ∪  abort``

A language's ``step`` function returns a *list* of outcomes — the
nondeterminism of the local semantics (e.g. TSO buffer flushes) is the
length of that list. Each outcome is either a :class:`Step` (message,
footprint, successor core, successor memory) or :class:`StepAbort`
(undefined behaviour: wild access, failed ``assert``, stuck state).
"""

from repro.common.astbase import Record


class Step(Record):
    """A successful local transition ``--ι/δ--> (κ', σ')``."""

    _fields = __slots__ = ("msg", "fp", "core", "mem")

    def __init__(self, msg, fp, core, mem):
        object.__setattr__(self, "msg", msg)
        object.__setattr__(self, "fp", fp)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "mem", mem)

    def __repr__(self):
        return "Step(msg={!r}, fp={!r})".format(self.msg, self.fp)


class StepAbort:
    """The ``abort`` outcome: the module reached undefined behaviour.

    An abort reports no footprint. ``reason`` is diagnostic only and
    excluded from equality, so all aborts compare equal in explored
    state graphs regardless of the message text.
    """

    __slots__ = ("reason",)

    def __init__(self, reason=""):
        object.__setattr__(self, "reason", reason)

    def __setattr__(self, name, value):
        raise AttributeError("StepAbort is immutable")

    def __eq__(self, other):
        return isinstance(other, StepAbort)

    def __hash__(self):
        return hash("StepAbort")

    def __repr__(self):
        return "StepAbort({!r})".format(self.reason)


def successful(outcomes):
    """The :class:`Step` outcomes among a step result list."""
    return [o for o in outcomes if isinstance(o, Step)]


def has_abort(outcomes):
    """True iff any outcome is an abort."""
    return any(isinstance(o, StepAbort) for o in outcomes)
