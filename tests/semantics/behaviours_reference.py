"""Reference behaviour extraction: tuple-keyed BFS, dict-based Tarjan.

This is the straightforward form of
:func:`repro.semantics.explore.behaviours` that the int-packed
implementation replaced: BFS nodes are ``(sid, trace-tuple)`` pairs in a
set of tuples, and the silent-divergence analysis runs Tarjan's SCC
algorithm over dicts and sets. It is kept only as the oracle of
``test_behaviours_differential.py``; nothing in ``src/`` imports it.
"""

from collections import deque

from repro.lang.messages import EventMsg
from repro.semantics.engine import SW
from repro.semantics.explore import ABORT_DST, Behaviour


def _is_silent_label(label):
    return label is None or label == SW


def divergent_states(graph):
    """States lying on (or silently reaching) a silent cycle that
    contains a thread step, as a set of sids."""
    n = graph.state_count()
    silent = {
        sid: [
            d
            for (lbl, d) in graph.edges.get(sid, [])
            if d != ABORT_DST and _is_silent_label(lbl)
        ]
        for sid in range(n)
    }
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    counter = [0]
    sccs = []

    def strongconnect(v):
        work = [(v, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = counter[0]
                lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            for i in range(pi, len(silent[node])):
                w = silent[node][i]
                if w not in index:
                    work[-1] = (node, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

    for v in range(n):
        if v not in index:
            strongconnect(v)

    div_core = set()
    for comp in sccs:
        comp_set = set(comp)
        internal_cycle = len(comp) > 1 or any(
            d == comp[0] for d in silent[comp[0]]
        )
        if not internal_cycle:
            continue
        has_progress = any(
            lbl is None and d in comp_set
            for sid in comp
            for (lbl, d) in graph.edges.get(sid, [])
            if d != ABORT_DST and _is_silent_label(lbl)
        )
        if has_progress:
            div_core |= comp_set

    rev = {sid: [] for sid in range(n)}
    for sid in range(n):
        for d in silent[sid]:
            rev[d].append(sid)
    div = set(div_core)
    queue = deque(div_core)
    while queue:
        node = queue.popleft()
        for pred in rev[node]:
            if pred not in div:
                div.add(pred)
                queue.append(pred)
    return div


def behaviours(graph, max_events, max_nodes):
    """``(behaviour set, pending)``: ``pending`` is the number of
    queued nodes reported ``cut`` when the ``max_nodes`` bound is hit,
    else ``None``."""
    div_states = divergent_states(graph)
    result = set()
    visited = set()
    queue = deque()
    pending = None
    for sid in graph.initial:
        queue.append((sid, ()))
        visited.add((sid, ()))

    while queue:
        if len(visited) > max_nodes:
            pending = len(queue)
            for sid, trace in queue:
                result.add(Behaviour(trace, Behaviour.CUT))
            break
        sid, trace = queue.popleft()
        if sid in graph.done:
            result.add(Behaviour(trace, Behaviour.DONE))
            continue
        if sid in graph.stuck:
            result.add(Behaviour(trace, Behaviour.ABORT))
            continue
        if sid in graph.truncated:
            result.add(Behaviour(trace, Behaviour.CUT))
        if sid in div_states:
            result.add(Behaviour(trace, Behaviour.SILENT_DIV))
        for label, dst in graph.edges.get(sid, []):
            if dst == ABORT_DST:
                result.add(Behaviour(trace, Behaviour.ABORT))
                continue
            if isinstance(label, EventMsg):
                if len(trace) >= max_events:
                    result.add(Behaviour(trace, Behaviour.CUT))
                    continue
                nxt = (dst, trace + (label,))
            else:
                nxt = (dst, trace)
            if nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
    return frozenset(result), pending
