"""The immutable-value base (:class:`repro.common.astbase.Record`).

Exploration soundness rests on state equality: a slot left out of
``_fields`` would silently merge distinct states. One test checks
that rule for every class on the base; the others push the frames,
cores, edge labels and step outcomes of real explored graphs (source,
RTL and x86-TSO) through the transport and the immutability guard.
"""

import pytest

# Every language's cores, frames and syntax, and the world's Frame and
# Behaviour, must be loaded before the walk over Record's subclasses.
import repro.langs.cimp  # noqa: F401
import repro.langs.ir  # noqa: F401
import repro.langs.minic.semantics  # noqa: F401
import repro.langs.x86.sc  # noqa: F401
import repro.semantics  # noqa: F401
from repro.common import serialize
from repro.common.astbase import Record
from repro.framework.build import lock_counter_system
from repro.lang.messages import TAU, EventMsg
from repro.lang.steps import Step, StepAbort
from repro.langs.minic import ast
from repro.semantics import GlobalContext, PreemptiveSemantics, explore
from repro.semantics.engine import thread_expansion


def _record_classes():
    seen = []
    todo = [Record]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _public_slots(cls):
    names = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(n for n in slots if not n.startswith("_"))
    return names


def test_the_base_covers_the_runtime_values():
    names = {cls.__name__ for cls in _record_classes()}
    for expected in ("MFrame", "MiniCCore", "CshmCore", "CmFrame",
                     "RTLCore", "LTLFrame", "LinCore", "MachFrame",
                     "X86Core", "CImpCore", "Frame", "Step", "Behaviour",
                     "EventMsg", "RetMsg", "CallMsg", "SpawnMsg", "Node",
                     "Function", "Seq"):
        assert expected in names, expected


@pytest.mark.parametrize(
    "cls", _record_classes(), ids=lambda cls: cls.__qualname__
)
def test_every_public_slot_is_a_field(cls):
    missing = [n for n in _public_slots(cls) if n not in cls._fields]
    assert not missing, "{} slots outside _fields: {}".format(
        cls.__qualname__, missing
    )


def test_equality_needs_the_same_class_and_fields():
    a = EventMsg("print", 1)
    assert a == EventMsg("print", 1)
    assert hash(a) == hash(EventMsg("print", 1))
    assert a != EventMsg("print", 2)
    assert a != ("print", 1)
    assert TAU == TAU and TAU != EventMsg("print", None)
    # Same field values, different classes.
    assert ast.TInt() != ast.TVoid()


# ----- explored graphs ----------------------------------------------------


def _program(level):
    system = lock_counter_system(2)
    if level == "rtl":
        return system.stage_program("RTLgen")
    return getattr(system, level + "_program")()


def _graph_objects(level):
    """Frames, cores, edge labels and step outcomes of one explored
    graph, one object per identity."""
    ctx = GlobalContext(_program(level))
    graph = explore(ctx, PreemptiveSemantics())
    assert not graph.truncated
    objs = {}

    def add(obj):
        if obj is not None and not isinstance(obj, str):
            objs.setdefault(id(obj), obj)

    for world in graph.states:
        for stack in world.threads:
            for frame in stack:
                add(frame)
                add(frame.core)
                for inner in getattr(frame.core, "frames", ()):
                    add(inner)
        outcomes, _results = thread_expansion(ctx, world)
        for outcome in outcomes or ():
            add(outcome)
            if isinstance(outcome, Step):
                add(outcome.msg)
    for edges in graph.edges.values():
        for label, _dst in edges:
            add(label)
    return list(objs.values())


@pytest.fixture(params=["source", "rtl", "tso"], scope="module")
def graph_objects(request):
    return _graph_objects(request.param)


def test_graph_objects_cover_every_kind(graph_objects):
    kinds = {type(obj).__name__ for obj in graph_objects}
    assert "Frame" in kinds and "Step" in kinds and "EventMsg" in kinds
    assert any(name.endswith("Core") for name in kinds)


def test_graph_objects_roundtrip_with_equal_hash(graph_objects):
    for obj in graph_objects:
        back = serialize.roundtrip(obj)
        assert type(back) is type(obj)
        assert back == obj, obj
        assert hash(back) == hash(obj), obj


def test_graph_objects_are_immutable(graph_objects):
    for obj in graph_objects:
        assert isinstance(obj, (Record, StepAbort)), obj
        name = (getattr(obj, "_fields", ()) or ("fp",))[0]
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
