"""Reference exploration loops: world-keyed, straight from the semantics.

These are the straightforward forms of the two loops in
:mod:`repro.semantics.explore` that the keyed loops replaced: every
candidate edge builds its successor ``World`` through
``semantics.successors`` (or :meth:`AmpleReducer.decide`) and dedups it
through ``graph.ids``. They build a :class:`WorldGraph`, which keeps
the worlds themselves, and are kept only as the oracle of
``test_keyspace.py``; nothing in ``src/`` imports them.
"""

from collections import deque

from repro.semantics.engine import GAbort
from repro.semantics.explore import ABORT_DST, Behaviour, ExplorationLimit
from repro.semantics.por import AmpleReducer


class WorldGraph:
    """A :class:`~repro.semantics.explore.StateGraph` look-alike that
    keeps a world list (``states``) and its index (``ids``)."""

    def __init__(self):
        self.states = []
        self.ids = {}
        self.edges = {}
        self.initial = []
        self.done = set()
        self.stuck = set()
        self.truncated = set()
        self.halted = False
        self.halted_sid = None

    def state_count(self):
        return len(self.states)

    def add(self, world):
        """Append a world known to be absent; returns its id."""
        sid = self.ids[world] = len(self.states)
        self.states.append(world)
        return sid

    def intern(self, world):
        sid = self.ids.get(world)
        if sid is None:
            sid = self.add(world)
        return sid


def _bound(graph, sid, max_states, strict):
    """Whether a new world still fits; records the cut otherwise."""
    if len(graph.states) < max_states:
        return True
    if strict:
        raise ExplorationLimit("state bound {} exceeded".format(max_states))
    graph.truncated.add(sid)
    return False


def explore_full(ctx, semantics, max_states, strict=False, observer=None):
    graph = WorldGraph()
    queue = deque()
    for world in semantics.initial_worlds(ctx):
        sid = graph.intern(world)
        graph.initial.append(sid)
        queue.append(sid)
    while queue:
        sid = queue.popleft()
        world = graph.states[sid]
        if world.is_done():
            graph.done.add(sid)
            graph.edges[sid] = []
            continue
        if observer is not None and observer(world, None):
            graph.halted = True
            graph.halted_sid = sid
            break
        outs = semantics.successors(ctx, world)
        if not outs:
            graph.stuck.add(sid)
            graph.edges[sid] = []
            continue
        edges = []
        for out in outs:
            if isinstance(out, GAbort):
                edges.append((Behaviour.ABORT, ABORT_DST))
                continue
            dst = graph.ids.get(out.world)
            if dst is None:
                if not _bound(graph, sid, max_states, strict):
                    continue
                dst = graph.add(out.world)
                queue.append(dst)
            edges.append((out.label, dst))
        graph.edges[sid] = edges
    return graph


def explore_reduced(ctx, semantics, max_states, strict=False,
                    observer=None):
    graph = WorldGraph()
    reducer = AmpleReducer()
    for world in semantics.initial_worlds(ctx):
        graph.initial.append(graph.intern(world))
    on_stack = set()
    stack = []
    for root in graph.initial:
        if graph.halted:
            break
        if root in graph.edges:
            continue
        stack.append([root, None])
        while stack:
            entry = stack[-1]
            sid, it = entry
            if it is not None:
                dst = next(it, None)
                if dst is None:
                    on_stack.discard(sid)
                    stack.pop()
                elif dst not in graph.edges:
                    stack.append([dst, None])
                continue
            if sid in graph.edges:
                stack.pop()
                continue
            world = graph.states[sid]
            if world.is_done():
                graph.done.add(sid)
                graph.edges[sid] = []
                stack.pop()
                continue
            on_stack.add(sid)
            outs, results, ample = reducer.decide(ctx, world)
            if observer is not None and observer(world, outs):
                graph.halted = True
                graph.halted_sid = sid
                break
            edges = []
            if ample:
                for res in results:
                    dst = graph.ids.get(res.world)
                    if dst is None:
                        if not _bound(graph, sid, max_states, strict):
                            continue
                        dst = graph.add(res.world)
                    elif dst in on_stack:
                        ample = False
                        break
                    edges.append((None, dst))
            if not ample:
                edges = []
                full = semantics.successors(
                    ctx, world, thread_results=results
                )
                if not full:
                    graph.stuck.add(sid)
                    graph.edges[sid] = []
                    on_stack.discard(sid)
                    stack.pop()
                    continue
                for out in full:
                    if isinstance(out, GAbort):
                        edges.append((Behaviour.ABORT, ABORT_DST))
                        continue
                    dst = graph.ids.get(out.world)
                    if dst is None:
                        if not _bound(graph, sid, max_states, strict):
                            continue
                        dst = graph.add(out.world)
                    edges.append((out.label, dst))
            graph.edges[sid] = edges
            entry[1] = iter(
                [d for _, d in edges if d != ABORT_DST]
            )
    return graph
