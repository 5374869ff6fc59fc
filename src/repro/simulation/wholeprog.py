"""Whole-program simulation relations, constructed explicitly.

The compose module checks Lems. 6–7 by comparing *behaviour sets*; this
module mechanizes the intermediate object the paper actually builds:
the whole-program downward simulation ``P ≼ P̄`` (and its flip). Given
the explored state graphs of two programs, it computes the largest weak
simulation relation by greatest-fixpoint refinement:

    ``s R t``  iff  for every step ``s --a--> s'`` there is a matching
    weak step ``t ==a==> t'`` (silent/switch steps absorbed) with
    ``s' R t'``, and if ``s`` is terminal (done/abort) then ``t`` can
    weakly reach the same terminal.

``P ≼ P̄`` holds when every initial world of ``P`` is related to some
initial world of ``P̄``. The Flip lemma (step ④ of Fig. 2) is then the
statement that with deterministic target modules the simulation also
holds in the opposite direction — checked by running the same
construction with the programs swapped.

Both checkers report a :class:`~repro.semantics.refinement.Verdict`
whose detail names the size ``|R|`` of each relation built; like every
whole-program checker, one whose exploration hits its state bound is
inconclusive instead of raising. The flip checker explores each
program once for both directions.

(As a weak simulation without a well-founded index, the construction is
termination-insensitive; the behaviour-set checks in ``compose`` cover
the divergence-sensitive side.)
"""

from collections import deque

from repro.lang.messages import EventMsg
from repro.semantics.explore import ABORT_DST, explore
from repro.semantics.refinement import Verdict, checker
from repro.semantics.world import GlobalContext

#: Synthetic terminal node ids used inside the product construction.
_DONE = "done"
_ABORT = "abort"


class _Automaton:
    """An explored graph reduced to: silent closure + event edges +
    weakly reachable terminals."""

    def __init__(self, graph):
        self.graph = graph
        n = graph.state_count()
        self.silent_succ = {
            sid: [
                d
                for (lbl, d) in graph.edges.get(sid, [])
                if d != ABORT_DST and not isinstance(lbl, EventMsg)
            ]
            for sid in range(n)
        }
        self._closure = {}
        self._weak_events = {}
        self._weak_terminals = {}

    def closure(self, sid):
        """States weakly (silently) reachable from ``sid``, incl. it."""
        cached = self._closure.get(sid)
        if cached is not None:
            return cached
        seen = {sid}
        queue = deque([sid])
        while queue:
            cur = queue.popleft()
            for nxt in self.silent_succ[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        frozen = frozenset(seen)
        self._closure[sid] = frozen
        return frozen

    def strong_events(self, sid):
        """Direct event edges from ``sid``: list of (event, dst)."""
        return [
            (lbl, d)
            for (lbl, d) in self.graph.edges.get(sid, [])
            if isinstance(lbl, EventMsg) and d != ABORT_DST
        ]

    def weak_events(self, sid):
        """``sid ==e==> t``: event edges reachable through silence,
        with silent closure applied after the event too."""
        cached = self._weak_events.get(sid)
        if cached is not None:
            return cached
        result = {}
        for mid in self.closure(sid):
            for event, dst in self.strong_events(mid):
                result.setdefault(event, set()).update(
                    self.closure(dst)
                )
        self._weak_events[sid] = result
        return result

    def weak_terminals(self, sid):
        """Terminal markers weakly reachable from ``sid``."""
        cached = self._weak_terminals.get(sid)
        if cached is not None:
            return cached
        result = set()
        for mid in self.closure(sid):
            if mid in self.graph.done:
                result.add(_DONE)
            if mid in self.graph.stuck:
                result.add(_ABORT)
            for (lbl, d) in self.graph.edges.get(mid, []):
                if d == ABORT_DST:
                    result.add(_ABORT)
        self._weak_terminals[sid] = result
        return result

    def is_terminal(self, sid):
        if sid in self.graph.done:
            return _DONE
        if sid in self.graph.stuck:
            return _ABORT
        return None


def _largest_simulation(src_auto, tgt_auto):
    """Greatest fixpoint of the weak-simulation refinement operator.

    Starts from all pairs consistent on weakly-reachable terminals and
    event alphabets, then removes pairs until stable. Returns the set
    of surviving pairs.
    """
    n_src = src_auto.graph.state_count()
    n_tgt = tgt_auto.graph.state_count()
    relation = set()
    for s in range(n_src):
        s_terms = src_auto.weak_terminals(s)
        s_events = set(src_auto.weak_events(s))
        for t in range(n_tgt):
            if not s_terms <= tgt_auto.weak_terminals(t):
                continue
            if not s_events <= set(tgt_auto.weak_events(t)):
                continue
            relation.add((s, t))

    changed = True
    while changed:
        changed = False
        for (s, t) in list(relation):
            if (s, t) not in relation:
                continue
            ok = _pair_ok(src_auto, tgt_auto, s, t, relation)
            if not ok:
                relation.discard((s, t))
                changed = True
    return relation


def _pair_ok(src_auto, tgt_auto, s, t, relation):
    # Terminal obligations.
    term = src_auto.is_terminal(s)
    if term is not None and term not in tgt_auto.weak_terminals(t):
        return False
    # Silent source steps: the *same* target state must stay related
    # (weak simulation — the target may answer with zero steps), or
    # some silent target successor must be.
    for s2 in src_auto.silent_succ[s]:
        if (s2, t) in relation:
            continue
        if any(
            (s2, t2) in relation for t2 in tgt_auto.closure(t)
        ):
            continue
        return False
    # Event steps.
    tgt_weak = tgt_auto.weak_events(t)
    for event, s2 in src_auto.strong_events(s):
        answers = tgt_weak.get(event, ())
        if not any((s2, t2) in relation for t2 in answers):
            return False
    # Abort edges of the source must be answerable.
    if _ABORT in {
        _ABORT
        for (lbl, d) in src_auto.graph.edges.get(s, [])
        if d == ABORT_DST
    }:
        if _ABORT not in tgt_auto.weak_terminals(t):
            return False
    return True


def _simulation(src_graph, tgt_graph):
    """``src ≼ tgt`` on explored graphs: ``(holds, detail)``, the
    detail naming the size ``|R|`` of the largest simulation."""
    relation = _largest_simulation(
        _Automaton(src_graph), _Automaton(tgt_graph)
    )
    for s0 in src_graph.initial:
        if not any((s0, t0) in relation for t0 in tgt_graph.initial):
            return False, "initial world {} unmatched, |R|={}".format(
                s0, len(relation)
            )
    return True, "simulation built, |R|={}".format(len(relation))


def _explore(program, semantics, max_states):
    return explore(
        GlobalContext(program), semantics, max_states, strict=True
    )


@checker("WholeProgramSimulation")
def check_whole_program_simulation(src_program, tgt_program, semantics,
                                   max_states=200000):
    """Construct ``src ≼ tgt`` on explored graphs under ``semantics``.

    Note the direction: this is the *downward* simulation with the
    roles as in the paper's ``P ≼ P̄`` — every source move answered by
    the target. For the flip, call with the arguments swapped.
    """
    return Verdict(*_simulation(
        _explore(src_program, semantics, max_states),
        _explore(tgt_program, semantics, max_states),
    ))


@checker("SimulationAndFlip")
def check_simulation_and_flip(src_program, tgt_program, semantics,
                              max_states=200000):
    """Steps ⑤ and ④ together: ``src ≼ tgt`` and the flipped
    ``tgt ≼ src`` (valid because our target modules are deterministic),
    both on one exploration of each program."""
    src_graph = _explore(src_program, semantics, max_states)
    tgt_graph = _explore(tgt_program, semantics, max_states)
    down, down_detail = _simulation(src_graph, tgt_graph)
    if not down:
        return Verdict(False, "source ⋠ target: " + down_detail)
    up, up_detail = _simulation(tgt_graph, src_graph)
    if not up:
        return Verdict(False, "flip failed: " + up_detail)
    return Verdict(True, "source ≼ target: {}; flipped: {}".format(
        down_detail, up_detail
    ))
