"""Messages labelling module-local steps (Fig. 4).

``ι ::= τ | e | ret | EntAtom | ExtAtom`` — we additionally carry the
cross-module ``call`` message of the interaction semantics (the paper's
Coq development supports external calls "in the same way as in
Compositional CompCert"; the paper elides them for presentation, we do
not). Messages define the protocol between a module's local semantics
and the global whole-program semantics:

* :data:`TAU` — a silent internal step;
* :class:`EventMsg` — an externally observable event (e.g. ``print``);
* :class:`RetMsg` — termination of the current activation, with the
  return value (at the bottom activation this terminates the thread);
* :data:`ENT_ATOM` / :data:`EXT_ATOM` — entry/exit of an atomic block;
* :class:`CallMsg` — a call to a function not defined in this module,
  to be resolved against the other linked modules.

All messages are immutable and hashable
(:class:`~repro.common.astbase.Record` values); the field-less ones are
singletons.
"""

from repro.common.astbase import Record


class Message(Record):
    """Abstract base of step messages."""

    __slots__ = ()


class _Singleton(Message):
    """A message without fields: one instance per class, equal only to
    itself, its hash fixed by its class name (so it is the same in every
    run under one hash seed)."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return self._name


class _Tau(_Singleton):
    """The silent message ``τ``, exported as ``TAU``."""

    __slots__ = ()
    _name = "TAU"


class _EntAtom(_Singleton):
    """Entry into an atomic block, exported as ``ENT_ATOM``."""

    __slots__ = ()
    _name = "EntAtom"


class _ExtAtom(_Singleton):
    """Exit from an atomic block, exported as ``EXT_ATOM``."""

    __slots__ = ()
    _name = "ExtAtom"


TAU = _Tau()
ENT_ATOM = _EntAtom()
EXT_ATOM = _ExtAtom()


class EventMsg(Message):
    """An externally observable event ``e``: a kind tag plus a value.

    Events are what event traces (behaviours) are made of; refinement
    and equivalence compare sequences of these.
    """

    _fields = __slots__ = ("kind", "value")

    def __init__(self, kind, value=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __repr__(self):
        return "EventMsg({!r}, {!r})".format(self.kind, self.value)


class RetMsg(Message):
    """Termination of the current activation, carrying the return value."""

    _fields = __slots__ = ("value",)

    def __init__(self, value=None):
        object.__setattr__(self, "value", value)

    def __repr__(self):
        return "RetMsg({!r})".format(self.value)


class CallMsg(Message):
    """A cross-module call: function name and argument values.

    The emitting core must already be in a "waiting" state; the global
    semantics resumes it through ``after_external`` once the callee
    returns.
    """

    _fields = __slots__ = ("fname", "args")

    def __init__(self, fname, args=()):
        object.__setattr__(self, "fname", fname)
        object.__setattr__(self, "args", tuple(args))

    def __repr__(self):
        return "CallMsg({!r}, {!r})".format(self.fname, self.args)


class SpawnMsg(Message):
    """Thread creation: start a new thread running ``fname``.

    The paper's future-work extension (Sec. 8): "the spawn step in the
    operational semantics needs to assign a new F to each newly created
    thread; in simulations spawns should be handled in a similar way as
    context switches" — which is exactly what the global semantics and
    the simulation checker do with this message.
    """

    _fields = __slots__ = ("fname",)

    def __init__(self, fname):
        object.__setattr__(self, "fname", fname)

    def __repr__(self):
        return "SpawnMsg({!r})".format(self.fname)


def is_silent(msg):
    """True iff ``msg`` is ``τ``."""
    return msg is TAU or isinstance(msg, _Tau)


def is_observable(msg):
    """True iff the message contributes to the event trace."""
    return isinstance(msg, EventMsg)
