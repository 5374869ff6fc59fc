"""The keyed exploration loops against the semantics they replace.

:mod:`repro.semantics.keyspace` memoises each thread move by ``(cur,
stack, bit, memory)`` and derives successor keys by XOR, so these tests
hold it to the reference definitions:

* decoding the keyed expansion of every reached world reproduces
  ``semantics.successors`` exactly — labels, footprints, worlds, order —
  with one memo per run, so entries filled at one world are checked at
  every other world that reuses them;
* the keyed loops build the same graph as the world-keyed reference
  loops in :mod:`tests.semantics.explore_reference` under small state
  bounds, raise ``ExplorationLimit`` at the same point with
  ``strict=True``, and halt at the same world for an observer;
* narrowing the key fields until an id no longer fits raises instead
  of aliasing two worlds;
* a key decodes to its world, and the loops decode a world only to
  fill a memo entry or expand a slow one — never per new key, dedup
  hit or observer call.
"""

import importlib

import pytest

from repro.common.errors import SemanticsError
from repro.langs.cimp.semantics import CImpCore
from repro.semantics import (
    ExplorationLimit,
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    explore,
)
from repro.semantics import keyspace
from repro.semantics.engine import GAbort
from repro.semantics.keyspace import KeySpace
from repro.semantics.world import World

from tests.helpers import cimp_program, example_programs, minic_program
from tests.semantics import explore_reference as reference
from tests.semantics.test_graph_golden import graph_digest

# The package re-exports ``explore`` the function under the module's
# name, so the module itself comes from importlib.
explore_mod = importlib.import_module("repro.semantics.explore")

_EXAMPLES = example_programs()


class _Seeded(PreemptiveSemantics):
    """The preemptive semantics started from hand-made worlds."""

    def __init__(self, worlds):
        super().__init__()
        self._worlds = worlds

    def initial_worlds(self, ctx):
        return list(self._worlds)


def _aborting():
    # t1 stores to an address no module allocated.
    return cimp_program(
        "t1(){ [D] := 1; print(1); } t2(){ print(2); }", ["t1", "t2"],
        symbols={"D": 999}, init={},
    )


def _unresolved():
    return minic_program(
        ["extern void mystery(); int x = 0;"
         "void t1() { mystery(); } void t2() { x = 1; print(x); }"],
        ["t1", "t2"],
    )[0]


def _stuck_worlds(nthreads):
    """Initial worlds whose thread 0 has a finished core still on its
    stack: its local step has no outcomes, so alone it is stuck and with
    company it can only be switched away from."""
    entries = ["t1", "t2"][:nthreads]
    prog = cimp_program("t1(){ print(1); } t2(){ print(2); }", entries)
    ctx = GlobalContext(prog)
    world = ctx.load()[0]
    frame = world.threads[0][-1].with_core(CImpCore(done=True))
    return ctx, [world.replace_top(frame)]


def _both_bits():
    """Two initial worlds equal but for the current thread's atomic bit:
    one memo key each, since inside a block no switch may follow."""
    prog = cimp_program("t1(){ print(1); } t2(){ print(2); }", ["t1", "t2"])
    ctx = GlobalContext(prog)
    world = ctx.load()[0]
    return ctx, [world, World(world.threads, 0, (1, 0), world.mem)]


def _programs():
    """``name -> (ctx factory, semantics factory)`` for every case."""
    cases = {}
    extra = {"aborting": _aborting(), "unresolved": _unresolved()}
    for name, prog in sorted(list(_EXAMPLES.items()) + list(extra.items())):
        for sem in (PreemptiveSemantics, NonPreemptiveSemantics):
            cases["{}/{}".format(name, sem.name)] = (
                lambda prog=prog: GlobalContext(prog), sem
            )
    for n in (1, 2):
        cases["stuck-{}/preemptive".format(n)] = (
            lambda n=n: _stuck_worlds(n)[0],
            lambda n=n: _Seeded(_stuck_worlds(n)[1]),
        )
    cases["both-bits/preemptive"] = (
        lambda: _both_bits()[0], lambda: _Seeded(_both_bits()[1]),
    )
    return cases


_CASES = _programs()


def _reached(ctx, sem, max_states=6000):
    return reference.explore_full(ctx, sem, max_states).states


def decode(ks, world):
    """``world``'s keyed expansion with every successor decoded, as
    ``(label, fp, world | GAbort, key)`` tuples."""
    k = ks.key(world)
    cur = world.cur
    live = ks.live(k)
    assert live == world.live_threads()
    return [
        (label, fp, fp if nk is None else ks.decode(nk), nk)
        for label, fp, nk in ks.expand(k, cur, live, ks.entry(k, cur))
    ]


def _same_outcome(got, want):
    label, fp, world, key = got
    if isinstance(want, GAbort):
        assert key is None and isinstance(world, GAbort)
        assert world.reason == want.reason
        return
    assert label == want.label
    assert fp is want.fp or fp == want.fp
    assert world == want.world
    assert world.threads == want.world.threads


@pytest.mark.parametrize("name", sorted(_CASES))
def test_decoded_expansion_is_the_successor_list(name):
    make_ctx, make_sem = _CASES[name]
    ctx, sem = make_ctx(), make_sem()
    ks = KeySpace(ctx, sem)
    worlds = _reached(ctx, sem)
    for world in worlds:
        want = sem.successors(ctx, world)
        got = decode(ks, world)
        assert len(got) == len(want), world
        for g, w in zip(got, want):
            _same_outcome(g, w)
            if g[3] is not None:
                # The XOR-derived key is the from-scratch key.
                assert g[3] == ks.key(w.world)
    # One memo served the whole run.
    assert len(ks.memo) <= len(worlds)


def test_decoded_worlds_cover_every_shape():
    """The differential cases above reach every kind of expansion."""
    seen = set()
    for name, (make_ctx, make_sem) in _CASES.items():
        ctx, sem = make_ctx(), make_sem()
        for world in _reached(ctx, sem, 2000):
            outs = sem.successors(ctx, world)
            if not outs and not world.is_done():
                seen.add("stuck")
            if any(isinstance(o, GAbort) for o in outs):
                seen.add("abort")
            if any(
                not isinstance(o, GAbort)
                and len(o.world.threads) != len(world.threads)
                for o in outs
            ):
                seen.add("spawn")
            if not world.threads[world.cur] and not world.is_done():
                seen.add("terminated-current")
            if world.bits[world.cur]:
                seen.add("atomic")
    assert seen == {
        "stuck", "abort", "spawn", "terminated-current", "atomic",
    }


#: (program, mode) pairs for the loop-level comparisons.
_LOOP_PROGRAMS = (
    "lock-counter-source", "cimp-spawn", "racy.c", "counter.c",
    "cimp-spin",
)
_MODES = {
    "full": (PreemptiveSemantics, False),
    "por": (PreemptiveSemantics, True),
    "np": (NonPreemptiveSemantics, False),
}


def _ctx_for(name):
    if name == "aborting":
        return GlobalContext(_aborting())
    return GlobalContext(_EXAMPLES[name])


def _reference(ctx, sem, reduce, max_states, **kw):
    run = reference.explore_reduced if reduce else reference.explore_full
    return run(ctx, sem, max_states, **kw)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", _LOOP_PROGRAMS + ("aborting",))
@pytest.mark.parametrize("max_states", [1, 2, 3, 5, 8, 13, 40, 150])
def test_small_bounds_truncate_like_the_reference(name, mode, max_states):
    make_sem, reduce = _MODES[mode]
    got = explore(
        _ctx_for(name), make_sem(), max_states=max_states, reduce=reduce
    )
    want = _reference(_ctx_for(name), make_sem(), reduce, max_states)
    assert got.truncated == want.truncated
    assert graph_digest(got) == graph_digest(want)


class _Recorder:
    """An observer logging the worlds it sees; halts on call
    ``halt_at``. Calling it is the reference loops' world observer;
    :meth:`keyed` is the keyed loops' observer, which records the world
    its key decodes to."""

    def __init__(self, halt_at=None):
        self.halt_at = halt_at
        self.seen = []

    def __call__(self, world, outcomes):
        self.seen.append(
            (world, None if outcomes is None else len(outcomes))
        )
        return len(self.seen) == self.halt_at

    def keyed(self, ks, k, live, outcomes):
        world = ks.decode(k)
        assert live == world.live_threads()
        return self(world, outcomes)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", _LOOP_PROGRAMS)
@pytest.mark.parametrize("max_states", [2, 5, 9])
def test_strict_limit_raises_at_the_same_point(name, mode, max_states):
    make_sem, reduce = _MODES[mode]
    runs = []
    for keyed in (True, False):
        rec = _Recorder()
        with pytest.raises(ExplorationLimit):
            if keyed:
                explore(
                    _ctx_for(name), make_sem(), max_states=max_states,
                    strict=True, reduce=reduce, observer=rec.keyed,
                )
            else:
                _reference(
                    _ctx_for(name), make_sem(), reduce, max_states,
                    strict=True, observer=rec,
                )
        runs.append(rec.seen)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", _LOOP_PROGRAMS)
@pytest.mark.parametrize("halt_at", [1, 4, 25])
def test_observer_halt_matches_the_reference(name, mode, halt_at):
    make_sem, reduce = _MODES[mode]
    keyed_rec, ref_rec = _Recorder(halt_at), _Recorder(halt_at)
    got = explore(
        _ctx_for(name), make_sem(), max_states=10000, reduce=reduce,
        observer=keyed_rec.keyed,
    )
    want = _reference(
        _ctx_for(name), make_sem(), reduce, 10000, observer=ref_rec
    )
    assert keyed_rec.seen == ref_rec.seen
    assert got.halted == want.halted
    assert got.halted_sid == want.halted_sid
    assert graph_digest(got) == graph_digest(want)


@pytest.mark.parametrize("reduce", [False, True])
def test_semantics_errors_surface_like_the_reference(reduce):
    # A world whose thread is marked inside an atomic block while about
    # to enter one: both loops raise the engine's "nested atomic block".
    prog = cimp_program(
        "t1(){ < [C] := 1; > print(1); } t2(){ print(2); }", ["t1", "t2"]
    )
    ctx = GlobalContext(prog)
    world = ctx.load()[0]
    nested = World(world.threads, 0, (1, 0), world.mem)
    for run in (explore, reference.explore_full):
        if run is not explore and reduce:
            run = reference.explore_reduced
        kwargs = {"reduce": reduce} if run is explore else {}
        with pytest.raises(SemanticsError, match="nested atomic"):
            run(ctx, _Seeded([nested]), max_states=50, **kwargs)


class _Capture(KeySpace):
    """A KeySpace that remembers the last instance (for id counts) and
    counts its ``decode`` calls, memo fills and slow expansions."""

    last = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decodes = 0
        self.fills = 0
        self.slow = 0
        _Capture.last = self

    def decode(self, k):
        self.decodes += 1
        return super().decode(k)

    def _fill(self, world, k):
        self.fills += 1
        return super()._fill(world, k)

    def expand(self, k, cur, live, entry):
        if entry[4]:
            self.slow += 1
        return super().expand(k, cur, live, entry)


def explore_capturing(monkeypatch, *args, **kwargs):
    """``explore(*args, **kwargs)`` and the key space its loop used."""
    monkeypatch.setattr(explore_mod, "KeySpace", _Capture)
    graph = explore(*args, **kwargs)
    assert graph.keyspace is _Capture.last
    return graph, _Capture.last


def _key_space_sizes(monkeypatch, ctx_factory, sem, reduce=False):
    graph, ks = explore_capturing(
        monkeypatch, ctx_factory(), sem, max_states=100000, reduce=reduce
    )
    return graph_digest(graph), len(ks.stacks), len(ks.mems)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("name", _LOOP_PROGRAMS + ("aborting",))
@pytest.mark.parametrize("max_states", [5, 100000])
def test_worlds_are_decoded_only_for_memo_fills_and_slow_entries(
    monkeypatch, name, mode, max_states
):
    # The loops and the observer contract handle keys: a decode per
    # new key, dedup hit or observer call would be a loop bug.
    make_sem, reduce = _MODES[mode]
    calls = []
    graph, ks = explore_capturing(
        monkeypatch, _ctx_for(name), make_sem(), max_states=max_states,
        reduce=reduce,
        observer=lambda ks, k, live, outcomes: calls.append(k),
    )
    assert calls
    assert ks.fills == len(ks.memo)
    assert ks.decodes == ks.fills + ks.slow
    # Every expanded state was observed or done, and fewer worlds were
    # decoded than there are states wherever the memo is shared.
    assert len(calls) + len(graph.done) == len(graph.edges)
    if max_states > 5 and name == "lock-counter-source":
        assert ks.decodes < graph.state_count()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_decode_inverts_key(name):
    make_ctx, make_sem = _CASES[name]
    ctx, sem = make_ctx(), make_sem()
    ks = KeySpace(ctx, sem)
    for world in _reached(ctx, sem, 2000):
        back = ks.decode(ks.key(world))
        assert back == world
        assert back.threads == world.threads and back.bits == world.bits
        assert hash(back) == hash(world)


@pytest.mark.parametrize(
    "name", ["lock-counter-source", "cimp-spawn", "peterson-sc"]
)
def test_narrow_fields_fit_exactly_or_raise(monkeypatch, name):
    make = lambda: GlobalContext(_EXAMPLES[name])  # noqa: E731
    digest, n_stacks, n_mems = _key_space_sizes(
        monkeypatch, make, PreemptiveSemantics()
    )
    # Stack ids run 1..n_stacks, memory ids 0..n_mems-1.
    stack_bits = n_stacks.bit_length()
    mem_bits = max((n_mems - 1).bit_length(), 1)
    nthreads = max(len(w.threads) for w in explore(
        make(), PreemptiveSemantics(), max_states=100000
    ).states)
    cur_bits = max((nthreads - 1).bit_length(), 1)
    monkeypatch.setattr(keyspace, "STACK_BITS", stack_bits)
    monkeypatch.setattr(keyspace, "MEM_BITS", mem_bits)
    monkeypatch.setattr(keyspace, "CUR_BITS", cur_bits)
    # Just wide enough: the same graph, so no two worlds aliased.
    assert _key_space_sizes(
        monkeypatch, make, PreemptiveSemantics()
    )[0] == digest
    # One bit too narrow for the largest id: refused, never wrapped.
    monkeypatch.setattr(keyspace, "STACK_BITS", stack_bits - 1)
    with pytest.raises(OverflowError):
        explore(make(), PreemptiveSemantics(), max_states=100000)
    monkeypatch.setattr(keyspace, "STACK_BITS", stack_bits)
    if n_mems > 2:
        monkeypatch.setattr(keyspace, "MEM_BITS", mem_bits - 1)
        with pytest.raises(OverflowError):
            explore(make(), PreemptiveSemantics(), max_states=100000)


def test_too_many_threads_for_the_cur_field_raise(monkeypatch):
    prog = _EXAMPLES["cimp-spawn"]  # grows to three threads
    monkeypatch.setattr(keyspace, "CUR_BITS", 1)
    with pytest.raises(OverflowError):
        explore(GlobalContext(prog), PreemptiveSemantics(),
                max_states=1000)
    monkeypatch.setattr(keyspace, "CUR_BITS", 2)
    want = explore(GlobalContext(prog), PreemptiveSemantics(),
                   max_states=1000)
    assert graph_digest(want) == graph_digest(
        reference.explore_full(GlobalContext(prog), PreemptiveSemantics(),
                               1000)
    )


def test_keys_of_different_thread_counts_differ():
    # A 1-thread pool and a 2-thread pool whose second thread would sit
    # in field 1: stack id 0 is never issued, so the keys differ.
    prog = _EXAMPLES["cimp-spawn"]
    ctx = GlobalContext(prog)
    ks = KeySpace(ctx, PreemptiveSemantics())
    graph = reference.explore_full(ctx, PreemptiveSemantics(), 1000)
    keys = {}
    for world in graph.states:
        k = ks.key(world)
        assert keys.setdefault(k, world) == world
    assert {len(w.threads) for w in graph.states} == {1, 2, 3}
