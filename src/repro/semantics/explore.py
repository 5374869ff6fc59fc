"""Bounded exploration of global state spaces, and event-trace behaviours.

The paper's whole-program properties (refinement ``⊑``, equivalence
``≈``, DRF) quantify over all executions. For the finite-state programs
of our suite we *compute* the execution space:

1. :func:`explore` builds the reachable world graph under a given global
   semantics (preemptive or non-preemptive), with edges labelled by
   events / silent / switch;
2. :func:`behaviours` extracts the set of observable behaviours: event
   traces ending in ``done`` (all threads terminated), ``abort``
   (undefined behaviour reached), ``silent_div`` (an infinite silent
   execution that keeps making thread steps exists), or ``cut`` (the
   exploration or trace-length bound was hit — comparisons treat any
   ``cut`` as inconclusive rather than silently passing).

With ``reduce=True``, preemptive exploration applies the
footprint-directed partial-order reduction of
:mod:`repro.semantics.por`: worlds whose current thread's next steps
are private silent steps expand only that thread, with the DFS cycle
proviso forcing full expansions on cycles so divergence detection and
behaviour extraction stay exact. ``explore`` keeps ``reduce=False`` as
its default so existing graph consumers always see the full graph; the
whole-program property entry points (:func:`program_behaviours`,
``drf``/``npdrf``) default to the ``REPRO_POR`` environment setting.

Both loops are *keyed* (:mod:`repro.semantics.keyspace`): a world's
identity is one packed int built from per-thread stack ids and atomic
bits, a memory id and ``cur``, and each thread move is computed once
per ``(cur, stack, bit, memory)`` in a per-run move memo. A candidate
edge costs an XOR and one int dict probe. The loops handle keys only:
whether a state is done, its current thread, atomic bit and live
threads are all read from the key, and a ``World`` is decoded only to
fill a memo entry on a miss or to expand a slow (spawn) entry. The
graph keeps the keys and the run's key space, and decodes a world only
when a caller reads ``StateGraph.states``. The graphs are
exactly those of the semantics' ``successors`` (state order, edges,
done/stuck/truncated), which ``tests/semantics/test_keyspace.py`` and
the golden digests of ``tests/semantics/test_graph_golden.py`` pin.

Pure scheduler livelock (a cycle of switch edges with no thread
progress) exists in every multi-threaded world under both semantics; it
is not reported as divergence, so that ``silent_div`` marks *program*
divergence (e.g. a spin loop that can spin forever).
"""

import sys
from collections import deque

from repro import obs
from repro.common import intern
from repro.common.astbase import Record
from repro.common.memory import STATS as MEM_STATS
from repro.lang import closure as _closure
from repro.lang.messages import EventMsg
from repro.obs import status as _status
from repro.semantics.engine import SW
from repro.semantics.keyspace import KeySpace
from repro.semantics.por import AmpleReducer, default_reduce

#: States expanded between heartbeat clock checks. The heartbeat's own
#: time gate decides whether to write; the stride just keeps the
#: monotonic-clock read off the per-state path (one int decrement and
#: compare per state when a writer is active, nothing when not).
_HB_STRIDE = 64


class ExplorationLimit(Exception):
    """Raised when a bound is exceeded and strict=True.

    ``bound`` names which: ``"states"`` (exploration's ``max_states``)
    or ``"nodes"`` (:func:`behaviours`' enumeration cap).
    """

    def __init__(self, message, bound="states"):
        super().__init__(message)
        self.bound = bound


class Behaviour(Record):
    """One observable behaviour: an event trace plus how it ends."""

    _fields = __slots__ = ("events", "end")

    DONE = "done"
    ABORT = "abort"
    SILENT_DIV = "silent_div"
    CUT = "cut"

    def __init__(self, events, end):
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "end", end)

    def __repr__(self):
        evs = ",".join(
            "{}:{!r}".format(e.kind, e.value) for e in self.events
        )
        return "Behaviour([{}], {})".format(evs, self.end)


class StateGraph:
    """The explored world graph.

    ``keys``: each state's packed key in ``keyspace`` (a
    :class:`~repro.semantics.keyspace.KeySpace`; ids are indices);
    ``edges[sid]``: list of ``(label, dst)`` with ``dst = -1`` for
    abort; ``done``: ids of fully-terminated worlds; ``stuck``: ids of
    non-terminated worlds with no successors (a semantics bug surfaced
    loudly); ``truncated``: ids whose successors were cut off by the
    state bound; ``halted``: an observer stopped the exploration early
    (the graph is a prefix, not the full reachable set), with
    ``halted_sid`` the id of the world the observer halted at — the
    witness-capture machinery's entry point into the graph
    (:mod:`repro.semantics.witness`).

    The graph keeps no ``World``: ``states`` decodes the keys on first
    access, so only callers that read it pay for the worlds.
    """

    def __init__(self, keyspace):
        self.keyspace = keyspace
        self.keys = []
        self.edges = {}
        self.initial = []
        self.done = set()
        self.stuck = set()
        self.truncated = set()
        self.halted = False
        self.halted_sid = None
        self._states = None
        self._kid = None

    @property
    def states(self):
        """The world of each state, decoded from ``keys`` on first
        access (after the exploration)."""
        if self._states is None:
            decode = self.keyspace.decode
            self._states = [decode(k) for k in self.keys]
        return self._states

    def sid_of(self, world):
        """The id of ``world``, or ``None`` when it is not a state."""
        if self._kid is None:
            self._kid = {k: sid for sid, k in enumerate(self.keys)}
        return self._kid.get(self.keyspace.key(world))

    def state_count(self):
        return len(self.keys)


ABORT_DST = -1


def explore(ctx, semantics, max_states=50000, strict=False, reduce=False,
            observer=None, jobs=None):
    """Build the reachable :class:`StateGraph` under ``semantics``.

    ``reduce=True`` enables partial-order reduction when the semantics
    supports it (currently the preemptive one); otherwise the full
    graph is built. ``observer``, if given, is called as
    ``observer(ks, k, live, outcomes)`` for every expanded
    non-terminated world: ``ks`` is the run's
    :class:`~repro.semantics.keyspace.KeySpace`, ``k`` the world's key
    (``ks.decode(k)`` builds the world), ``live`` its live thread
    positions, and ``outcomes`` the current thread's raw local outcome
    list when the expansion already computed it (the reduced path),
    else ``None``. A truthy return halts the exploration
    (``graph.halted``, with the halting world's id in
    ``graph.halted_sid``) — the hook the on-the-fly race detector uses
    to stop at the first witness without retaining the rest of the
    state space.

    Both loops append each expanded world's edges in successor-list
    order, which is what makes the halted graph *replayable*: a path of
    edge indices through ``graph.edges`` is a schedule the plain
    semantics re-executes deterministically (under reduction, ample
    edges are a prefix of the full successor list — see
    :meth:`repro.semantics.por.AmpleReducer.decide`), so witness
    capture (:mod:`repro.semantics.witness`) needs no per-step hook on
    this hot path.

    ``jobs > 1`` dispatches to the process-parallel explorer
    (:mod:`repro.semantics.parallel`), which produces an identical
    graph; local ``observer`` closures cannot cross the process
    boundary, so the combination is rejected — fused race detection
    has its own parallel entry point
    (:func:`repro.semantics.race.find_race` with ``jobs``).
    """
    if jobs is not None and jobs > 1:
        from repro.semantics import parallel

        if parallel.available():
            if observer is not None:
                raise ValueError(
                    "parallel exploration cannot run a local observer "
                    "closure; use find_race(jobs=...) for fused race "
                    "detection"
                )
            return parallel.parallel_explore(
                ctx, semantics, max_states=max_states, strict=strict,
                reduce=reduce, jobs=jobs,
            )
    use_por = bool(reduce) and getattr(semantics, "supports_por", False)
    # Hoisted observability flag: the loops below are the system's
    # hottest path, so the disabled cost is one truthiness test per
    # expanded state.
    track = obs.enabled
    hb = _status.writer
    if hb is not None:
        hb.update(
            phase="explore",
            semantics=type(semantics).__name__,
            por=use_por,
            budget=max_states,
        )
    _closure.prime(ctx)
    with obs.span(
        "explore",
        semantics=type(semantics).__name__,
        max_states=max_states,
        por=use_por,
    ) as sp:
        if track:
            tot0 = intern.totals()
            stats0 = intern.stats()
            reused0 = MEM_STATS.nodes_reused
        if use_por:
            graph, hwm, reducer = _explore_reduced(
                ctx, semantics, max_states, strict, observer
            )
        else:
            reducer = None
            graph, hwm = _explore_full(
                ctx, semantics, max_states, strict, observer
            )

        if graph.truncated:
            # strict=True raises before getting here, so this is the
            # silent-truncation case: make it diagnosable.
            obs.inc("explore.truncated_states", len(graph.truncated))
            obs.warn(
                "exploration truncated at {} states ({} frontier "
                "state(s) cut); behaviours may include 'cut'".format(
                    max_states, len(graph.truncated)
                ),
                max_states=max_states,
                truncated=len(graph.truncated),
            )
        if track:
            # Per-run deltas of the hot-path machinery's plain counters
            # (the counters themselves never touch the obs layer).
            tot1 = intern.totals()
            obs.inc("intern.hits", tot1.hits - tot0.hits)
            obs.inc("intern.misses", tot1.misses - tot0.misses)
            obs.inc("intern.clears", tot1.clears - tot0.clears)
            _record_intern_table_metrics(stats0, intern.stats())
            obs.inc(
                "memory.nodes_reused", MEM_STATS.nodes_reused - reused0
            )
            _record_explore_metrics(graph, hwm, sp)
            if reducer is not None:
                obs.inc("por.ample_worlds", reducer.ample_worlds)
                obs.inc("por.full_expansions", reducer.full_expansions)
                obs.inc(
                    "por.proviso_expansions", reducer.proviso_expansions
                )
                obs.inc("por.sleep_hits", reducer.sleep_hits)
                obs.inc("por.steps_avoided", reducer.steps_avoided)
                sp.set(
                    ample_worlds=reducer.ample_worlds,
                    full_expansions=reducer.full_expansions,
                    steps_avoided=reducer.steps_avoided,
                )
    if hb is not None:
        # Forced final beat: even sub-second runs leave a status file
        # whose state count matches the finished graph.
        if reducer is not None:
            hb.update(por_counters=reducer.snapshot())
        hb.force(states=graph.state_count(), frontier=0)
    return graph


def _keyed_roots(ctx, semantics, ks):
    """A graph holding the initial worlds: ``(graph, kid)``, with
    ``kid`` the id of each key, for the loops to extend."""
    graph = StateGraph(ks)
    keys = graph.keys
    kid = {}
    for world in semantics.initial_worlds(ctx):
        k = ks.key(world)
        sid = kid.get(k)
        if sid is None:
            sid = kid[k] = len(keys)
            keys.append(k)
        graph.initial.append(sid)
    return graph, kid


def _explore_full(ctx, semantics, max_states, strict, observer):
    """The classical BFS over every interleaving (no reduction), keyed.

    Dedup is one int dict probe per candidate edge (``kid``: key →
    sid). A state is handled by its key alone: its live threads and
    current thread are read from the key, and the key space decodes a
    world only to fill a memo entry or expand a slow one.
    """
    ks = KeySpace(ctx, semantics)
    graph, kid = _keyed_roots(ctx, semantics, ks)
    keys = graph.keys
    queue = deque(range(len(keys)))
    frontier_hwm = len(queue)

    # Locals hoisted out of the loop: every line below runs once per
    # dequeued state or per candidate edge.
    all_edges = graph.edges
    entry_of = ks.entry
    expand = ks.expand
    live_of = ks.live
    cur_mask = (1 << ks.cur_bits) - 1
    track = obs.enabled
    hb = _status.writer
    # -1 sentinel decrements forever without hitting 0 when no writer
    # is configured: the disabled cost is one int op per state.
    hb_left = _HB_STRIDE if hb is not None else -1
    while queue:
        if track and len(queue) > frontier_hwm:
            frontier_hwm = len(queue)
        hb_left -= 1
        if hb_left == 0:
            hb_left = _HB_STRIDE
            hb.beat(states=len(keys), frontier=len(queue))
        sid = queue.popleft()
        k = keys[sid]
        live = live_of(k)
        if not live:
            graph.done.add(sid)
            all_edges[sid] = []
            continue
        if observer is not None and observer(ks, k, live, None):
            graph.halted = True
            graph.halted_sid = sid
            break
        cur = k & cur_mask
        outs = expand(k, cur, live, entry_of(k, cur))
        if not outs:
            graph.stuck.add(sid)
            all_edges[sid] = []
            continue
        edges = []
        for label, _, nk in outs:
            if nk is None:
                edges.append((Behaviour.ABORT, ABORT_DST))
                continue
            dst = kid.get(nk)
            if dst is None:
                if len(keys) >= max_states:
                    if strict:
                        raise ExplorationLimit(
                            "state bound {} exceeded".format(max_states)
                        )
                    graph.truncated.add(sid)
                    continue
                dst = kid[nk] = len(keys)
                keys.append(nk)
                queue.append(dst)
            edges.append((label, dst))
        all_edges[sid] = edges
    return graph, frontier_hwm


_NO_SLEEP = frozenset()


def _explore_reduced(ctx, semantics, max_states, strict, observer):
    """DFS with footprint-directed ample sets and the cycle proviso.

    DFS (not BFS) because the standard proviso implementation needs the
    current search stack: a reduced expansion whose successor closes a
    cycle back into the stack is redone fully, which breaks the
    "ignoring problem" (a thread spinning through private states would
    otherwise never yield to the others) and keeps ``silent_div``
    detection and behaviour extraction exact on the reduced graph.

    Keyed like :func:`_explore_full`: the atomic bit and the ample
    bookkeeping's live threads are read from the key too. The ample
    decision (:meth:`~repro.semantics.por.AmpleReducer.decide`) is
    taken once per move-memo entry
    (:class:`~repro.semantics.keyspace.KeySpace`).
    """
    reducer = AmpleReducer()
    ks = KeySpace(ctx, semantics, reducer)
    graph, kid = _keyed_roots(ctx, semantics, ks)
    keys = graph.keys
    all_edges = graph.edges
    entry_of = ks.entry
    expand = ks.expand
    live_of = ks.live
    cur_mask = (1 << ks.cur_bits) - 1
    low_bits = ks.low_bits
    slot_bits = ks.slot_bits

    on_stack = set()
    # Stack entries: [sid, successor-iterator | None, sleep set the
    # expansion inherits from its DFS parent].
    stack = []
    stack_hwm = 0
    halted = False
    hb = _status.writer
    hb_left = _HB_STRIDE if hb is not None else -1

    for root in graph.initial:
        if halted:
            break
        if root in all_edges:
            continue
        stack.append([root, None, _NO_SLEEP])
        while stack:
            hb_left -= 1
            if hb_left == 0:
                hb_left = _HB_STRIDE
                if hb.due():
                    # The POR counter dict is only built when a write
                    # is actually due.
                    hb.update(por_counters=reducer.snapshot())
                    hb.beat(states=len(keys), frontier=len(stack))
            entry = stack[-1]
            sid = entry[0]
            it = entry[1]
            if it is not None:
                dst = next(it, None)
                if dst is None:
                    on_stack.discard(sid)
                    stack.pop()
                elif dst not in all_edges:
                    stack.append([dst, None, entry[2]])
                    if len(stack) > stack_hwm:
                        stack_hwm = len(stack)
                continue
            if sid in all_edges:
                # Reached again through a sibling before being visited.
                stack.pop()
                continue
            k = keys[sid]
            live = live_of(k)
            if not live:
                graph.done.add(sid)
                all_edges[sid] = []
                stack.pop()
                continue
            on_stack.add(sid)
            cur = k & cur_mask
            # The ample decision steps the thread before the observer
            # runs, except inside an atomic block (the current thread's
            # atomic bit, the low bit of its field, is set), where it
            # does not step and the observer sees no outcomes.
            if k >> (low_bits + cur * slot_bits) & 1:
                mentry = None
                seen = None
            else:
                mentry = entry_of(k, cur)
                seen = mentry[0]
            if observer is not None and observer(ks, k, live, seen):
                graph.halted = True
                graph.halted_sid = sid
                halted = True
                break
            if mentry is None:
                mentry = entry_of(k, cur)
            edges = []
            children = []
            child_sleep = _NO_SLEEP
            ample = mentry[1]
            if ample:
                for mv in mentry[2]:
                    nk = k ^ mv[2]
                    dst = kid.get(nk)
                    if dst is None:
                        if len(keys) >= max_states:
                            if strict:
                                raise ExplorationLimit(
                                    "state bound {} exceeded".format(
                                        max_states
                                    )
                                )
                            graph.truncated.add(sid)
                            continue
                        dst = kid[nk] = len(keys)
                        keys.append(nk)
                    elif dst in on_stack:
                        # Cycle proviso (C3): this reduction would close
                        # a cycle of reduced states — expand fully.
                        ample = False
                        reducer.proviso_expansions += 1
                        break
                    edges.append((None, dst))
                    children.append(dst)
                if ample:
                    pruned = len(live) - 1
                    if pruned > 0:
                        reducer.ample_worlds += 1
                        reducer.steps_avoided += pruned
                        child_sleep = frozenset(
                            t for t in live if t != cur
                        )
                        # Threads whose switch was already pruned at the
                        # DFS parent stay asleep through this expansion.
                        reducer.sleep_hits += len(
                            child_sleep & entry[2]
                        )
                    else:
                        reducer.full_expansions += 1
            if not ample:
                reducer.full_expansions += 1
                edges = []
                children = []
                outs = expand(k, cur, live, mentry)
                if not outs:
                    graph.stuck.add(sid)
                    all_edges[sid] = []
                    on_stack.discard(sid)
                    stack.pop()
                    continue
                for label, _, nk in outs:
                    if nk is None:
                        edges.append((Behaviour.ABORT, ABORT_DST))
                        continue
                    dst = kid.get(nk)
                    if dst is None:
                        if len(keys) >= max_states:
                            if strict:
                                raise ExplorationLimit(
                                    "state bound {} exceeded".format(
                                        max_states
                                    )
                                )
                            graph.truncated.add(sid)
                            continue
                        dst = kid[nk] = len(keys)
                        keys.append(nk)
                    edges.append((label, dst))
                    children.append(dst)
            all_edges[sid] = edges
            entry[1] = iter(children)
            entry[2] = child_sleep
    return graph, stack_hwm, reducer


def _record_intern_table_metrics(stats0, stats1):
    """Per-table intern counters as per-run deltas, plus occupancy
    gauges (tables created mid-run simply have a zero baseline); the
    suite benchmark reads the frame table's rows."""
    for name, s1 in stats1.items():
        s0 = stats0.get(
            name, {"hits": 0, "misses": 0, "clears": 0}
        )
        prefix = "intern.table.{}.".format(name)
        obs.inc(prefix + "hits", s1["hits"] - s0["hits"])
        obs.inc(prefix + "misses", s1["misses"] - s0["misses"])
        obs.inc(prefix + "clears", s1["clears"] - s0["clears"])
        obs.set_gauge(prefix + "size", s1["size"])
        obs.gauge_max(prefix + "peak_size", s1["peak_size"])


def key_bytes(graph):
    """The summed ``sys.getsizeof`` of the graph's state keys: what
    the explored state set itself costs (its edges and the key space's
    tables excluded)."""
    return sum(map(sys.getsizeof, graph.keys))


def _record_explore_metrics(graph, frontier_hwm, sp):
    """Post-hoc accounting over the finished graph (enabled path only).

    Edge-kind counts and dedup hits are derived from the graph instead
    of being counted inside the loop, keeping the hot path untouched.
    """
    n_states = graph.state_count()
    n_event = n_silent = n_switch = n_abort = 0
    n_edges = 0
    for edges in graph.edges.values():
        for label, dst in edges:
            if dst == ABORT_DST:
                n_abort += 1
                continue
            n_edges += 1
            if label == SW:
                n_switch += 1
            elif isinstance(label, EventMsg):
                n_event += 1
            else:
                n_silent += 1
    # Every non-abort edge targets a state; all but the edges that
    # discovered one hit the key dedup table.
    dedup_hits = n_edges - (n_states - len(graph.initial))
    obs.inc("explore.states_visited", n_states)
    obs.inc("explore.edges.event", n_event)
    obs.inc("explore.edges.silent", n_silent)
    obs.inc("explore.edges.switch", n_switch)
    obs.inc("explore.edges.abort", n_abort)
    obs.inc("explore.dedup_hits", max(dedup_hits, 0))
    obs.inc("explore.done_states", len(graph.done))
    obs.inc("explore.stuck_states", len(graph.stuck))
    obs.gauge_max("explore.frontier_hwm", frontier_hwm)
    obs.set_gauge("explore.key_bytes", key_bytes(graph))
    obs.observe("explore.states_per_run", n_states)
    sp.set(
        states=n_states,
        edges=n_edges,
        frontier_hwm=frontier_hwm,
        truncated=len(graph.truncated),
    )


def _progress_divergent_states(graph):
    """States that can diverge: silently reach a silent cycle that
    contains a thread step.

    Runs Tarjan's SCC algorithm on the silent-edge subgraph (τ and
    switch edges), over lists and bytearrays indexed by sid. An SCC
    diverges when one of its τ edges (real thread progress, not a
    switch) stays inside it. Tarjan completes every SCC a component
    can reach before the component itself, so whether it silently
    reaches a divergent SCC is known when it is popped. Returns a
    bytearray holding 1 at each state that can diverge.
    """
    n = graph.state_count()
    edges_get = graph.edges.get
    silent = [
        [d for lbl, d in edges_get(sid, ()) if lbl is None or lbl == SW]
        for sid in range(n)
    ]
    index = [-1] * n
    low = [0] * n
    owner = [-1] * n
    on_stack = bytearray(n)
    div = bytearray(n)
    stack = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        # Iterative DFS: the path, and each path node's edge iterator.
        path = [root]
        iters = [iter(silent[root])]
        while path:
            node = path[-1]
            for w in iters[-1]:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    path.append(w)
                    iters.append(iter(silent[w]))
                    break
                if on_stack[w] and index[w] < low[node]:
                    low[node] = index[w]
            else:
                path.pop()
                iters.pop()
                if low[node] == index[node]:
                    w = stack.pop()
                    on_stack[w] = 0
                    owner[w] = node
                    comp = [w]
                    while w != node:
                        w = stack.pop()
                        on_stack[w] = 0
                        owner[w] = node
                        comp.append(w)
                    if any(
                        lbl is None and owner[d] == node
                        for s in comp
                        for lbl, d in edges_get(s, ())
                    ) or any(div[d] for s in comp for d in silent[s]):
                        for s in comp:
                            div[s] = 1
                if path:
                    parent = path[-1]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
    return div


#: :func:`behaviours`' default enumeration bound, in (state, trace)
#: nodes.
MAX_BEHAVIOUR_NODES = 200000


def behaviours(graph, max_events=10, max_nodes=None, strict=False,
               termination_sensitive=True):
    """The behaviour set of an explored graph.

    Enumerates event traces by BFS over ``(state, trace)`` pairs with
    deduplication; finite because the graph is finite and traces are
    capped at ``max_events`` (longer traces surface as ``cut``).

    ``termination_sensitive=False`` skips the divergence analysis
    (:func:`_progress_divergent_states`) and reports no ``silent_div``
    behaviour: the set is exactly the default one without its
    ``silent_div`` members, all that ``⊑′`` and ``safe()`` read.

    When the ``max_nodes`` enumeration bound is hit, the default
    (``strict=False``) degrades gracefully — every still-pending trace
    is reported as ``Behaviour.CUT``, which comparisons already treat
    as inconclusive — matching :func:`explore`'s truncation policy
    instead of crashing report pipelines mid-run. ``strict=True``
    raises :class:`ExplorationLimit`. ``max_nodes=None`` means
    :data:`MAX_BEHAVIOUR_NODES`.
    """
    if max_nodes is None:
        max_nodes = MAX_BEHAVIOUR_NODES
    with obs.span("behaviours", max_events=max_events) as sp:
        result = _behaviours(
            graph, max_events, max_nodes, strict, termination_sensitive
        )
        if obs.enabled:
            obs.inc("behaviours.traces", len(result))
            sp.set(traces=len(result))
    return result


#: Behaviour ends by code: a found behaviour is ``trace_id * 4 + code``.
_ENDS = (Behaviour.DONE, Behaviour.ABORT, Behaviour.SILENT_DIV,
         Behaviour.CUT)
_DONE, _ABORT, _DIV, _CUT = range(4)

#: Per-state flag bits of ``_behaviours`` (``_F_DIV`` is the 1 that
#: ``_progress_divergent_states`` stores).
_F_DIV, _F_TRUNC, _F_STUCK, _F_DONE = 1, 2, 4, 8


def _behaviours(graph, max_events, max_nodes, strict,
                termination_sensitive):
    """BFS over ``(sid, trace)`` nodes, each packed into one int.

    A trace is a node of a trie, ``{(trace_id, event): trace_id}``,
    with ``traces[trace_id]`` its event tuple; id 0 is the empty trace.
    Equal traces get one id, so the node ``trace_id * n + sid`` names
    the pair exactly, and a found behaviour is the int
    ``trace_id * 4 + end code``.
    """
    n = graph.state_count()
    if termination_sensitive:
        flags = _progress_divergent_states(graph)
    else:
        flags = bytearray(n)
    for sid in graph.truncated:
        flags[sid] |= _F_TRUNC
    for sid in graph.stuck:
        flags[sid] |= _F_STUCK
    for sid in graph.done:
        flags[sid] |= _F_DONE
    edges_get = graph.edges.get
    traces = [()]
    trie = {}
    found = set()
    visited = set()
    queue = deque()
    for sid in graph.initial:
        queue.append(sid)
        visited.add(sid)
    popleft = queue.popleft
    append = queue.append

    while queue:
        if len(visited) > max_nodes:
            if strict:
                raise ExplorationLimit(
                    "behaviour enumeration bound of {} nodes "
                    "exceeded".format(max_nodes),
                    bound="nodes",
                )
            # Graceful degradation: pending traces are inconclusive.
            obs.warn(
                "behaviour enumeration truncated at {} nodes; {} "
                "pending trace(s) reported as 'cut'".format(
                    max_nodes, len(queue)
                ),
                max_nodes=max_nodes,
                pending=len(queue),
            )
            if obs.enabled:
                obs.inc("behaviours.truncated_nodes", len(queue))
            for node in queue:
                found.add(node // n * 4 + _CUT)
            break
        node = popleft()
        tid = node // n
        sid = node - tid * n
        f = flags[sid]
        if f:
            if f & _F_DONE:
                found.add(tid * 4 + _DONE)
                continue
            if f & _F_STUCK:
                found.add(tid * 4 + _ABORT)
                continue
            if f & _F_TRUNC:
                found.add(tid * 4 + _CUT)
            if f & _F_DIV:
                found.add(tid * 4 + _DIV)
        base = node - sid
        for label, dst in edges_get(sid, ()):
            if dst == ABORT_DST:
                found.add(tid * 4 + _ABORT)
                continue
            if isinstance(label, EventMsg):
                key = (tid, label)
                child = trie.get(key)
                if child is None:
                    trace = traces[tid]
                    if len(trace) >= max_events:
                        found.add(tid * 4 + _CUT)
                        continue
                    child = trie[key] = len(traces)
                    traces.append(trace + (label,))
                nxt = child * n + dst
            else:
                nxt = base + dst
            if nxt not in visited:
                visited.add(nxt)
                append(nxt)
    return frozenset(
        Behaviour(traces[code >> 2], _ENDS[code & 3]) for code in found
    )


def program_behaviours(ctx, semantics, max_states=50000, max_events=10,
                       reduce=None, jobs=None, strict=False,
                       termination_sensitive=True):
    """Explore and extract behaviours in one call.

    ``reduce=None`` defers to the ``REPRO_POR`` environment default
    (on unless disabled) — sound because the cross-validation suite
    pins POR-on and POR-off to identical behaviour sets; pass
    ``reduce=False`` to force the full graph. ``jobs`` shards the
    exploration across worker processes (the behaviour set is
    unchanged — see :mod:`repro.semantics.parallel`). ``strict=True``
    raises :class:`ExplorationLimit` when either the state bound or the
    behaviour enumeration bound is hit, instead of reporting ``cut``
    behaviours (a trace longer than ``max_events`` is still ``cut``).
    ``termination_sensitive=False`` drops ``silent_div`` and skips the
    divergence analysis, as in :func:`behaviours`.
    """
    if reduce is None:
        reduce = default_reduce()
    graph = explore(
        ctx, semantics, max_states, strict=strict, reduce=reduce,
        jobs=jobs,
    )
    return behaviours(
        graph, max_events, strict=strict,
        termination_sensitive=termination_sensitive,
    )
