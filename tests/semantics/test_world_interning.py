"""Hash-consed worlds/frames, the resolve table, and exploration
determinism under the interned representation.

Interning is an optimization layered under the structural semantics:
these tests check the canonical constructors return pointer-equal
objects for equal states, that directly-constructed (un-interned)
objects remain fully interoperable, that the incrementally maintained
world hash always equals the from-scratch one, that forced hash
collisions in the int-keyed world table change nothing, and that
whole-suite behaviour sets are unaffected.
"""

import hashlib

import pytest

from repro.common.errors import SemanticsError
from repro.common.freelist import FreeList
from repro.common.memory import Memory
from repro.common.serialize import ChannelDecoder, ChannelEncoder
from repro.common.values import VInt
from repro.framework.build import lock_counter_system
from repro.lang.module import GlobalEnv, ModuleDecl, Program
from repro.langs.cimp import CIMP, parse_module as parse_cimp
from repro.semantics import (
    GlobalContext,
    NonPreemptiveSemantics,
    PreemptiveSemantics,
    behaviours,
    explore,
)
from repro.semantics import world as world_mod
from repro.semantics.world import Frame, World, reset_intern_tables

from tests.helpers import CELL, cimp_program, events_of, example_programs


def _frame_parts():
    prog = cimp_program("f(){ print(1); }", ["f"])
    ctx = GlobalContext(prog)
    mod_idx, core = ctx.resolve("f")
    return ctx, mod_idx, core


class TestHashConsing:
    def test_frame_make_is_canonical(self):
        _, mod_idx, core = _frame_parts()
        flist = FreeList.for_thread(0)
        f1 = Frame.make(mod_idx, flist, core)
        f2 = Frame.make(mod_idx, FreeList.for_thread(0), core)
        assert f1 is f2

    def test_world_make_is_canonical(self):
        _, mod_idx, core = _frame_parts()
        frame = Frame.make(mod_idx, FreeList.for_thread(0), core)
        mem = Memory({CELL: VInt(0)})
        w1 = World.make(((frame,),), 0, (0,), mem)
        w2 = World.make(((frame,),), 0, (0,), Memory({CELL: VInt(0)}))
        assert w1 is w2

    def test_direct_construction_interoperates(self):
        # Un-interned objects are structurally equal to interned ones
        # and hash identically — interning is invisible to semantics.
        _, mod_idx, core = _frame_parts()
        flist = FreeList.for_thread(0)
        interned = Frame.make(mod_idx, flist, core)
        direct = Frame(mod_idx, flist, core)
        assert direct == interned and interned == direct
        assert hash(direct) == hash(interned)

        mem = Memory({CELL: VInt(0)})
        w_interned = World.make(((interned,),), 0, (0,), mem)
        w_direct = World(((direct,),), 0, (0,), mem)
        assert w_direct == w_interned
        assert hash(w_direct) == hash(w_interned)
        assert len({w_direct, w_interned}) == 1

    def test_successor_dedup_is_pointer_equal(self):
        # Two different interleavings converging on the same abstract
        # state must produce the same World object.
        prog = cimp_program(
            "t1(){ print(1); } t2(){ print(2); }", ["t1", "t2"]
        )
        graph = explore(GlobalContext(prog), PreemptiveSemantics())
        seen = {}
        for w in graph.states:
            key = (w.threads, w.cur, w.bits, w.mem)
            assert key not in seen
            seen[key] = w


class TestReplaceTopGuard:
    def test_replace_top_on_terminated_thread_raises(self):
        _, mod_idx, core = _frame_parts()
        frame = Frame.make(mod_idx, FreeList.for_thread(0), core)
        # Thread 0 terminated (empty stack), thread 1 live, cur = 0.
        world = World.make(((), (frame,)), 0, (0, 0), Memory())
        with pytest.raises(SemanticsError):
            world.replace_top(frame)

    def test_replace_top_on_live_thread_still_works(self):
        _, mod_idx, core = _frame_parts()
        frame = Frame.make(mod_idx, FreeList.for_thread(0), core)
        world = World.make(((frame,),), 0, (0,), Memory())
        out = world.replace_top(frame)
        assert out == world


class TestResolveTable:
    def test_table_resolution_matches_probing(self):
        prog = cimp_program(
            "f(){ print(1); } g(){ print(2); }", ["f"]
        )
        ctx = GlobalContext(prog)
        assert ctx._resolve_table is not None
        for name in ("f", "g"):
            mod_idx, core = ctx.resolve(name)
            assert mod_idx == 0
            assert core is not None
        assert ctx.resolve("missing") is None

    def test_resolve_memoizes_initial_core(self):
        prog = cimp_program("f(){ print(1); }", ["f"])
        ctx = GlobalContext(prog)
        assert ctx.resolve("f") == ctx.resolve("f")
        assert ctx.resolve("f")[1] is ctx.resolve("f")[1]

    def test_ambiguous_entry_raises(self):
        symbols = {"C": CELL}
        init = {CELL: VInt(0)}
        mod = parse_cimp("dup(){ print(1); }", symbols=symbols)
        ge = GlobalEnv(symbols, init)
        prog = Program(
            [ModuleDecl(CIMP, ge, mod), ModuleDecl(CIMP, ge, mod)],
            ["dup"],
        )
        ctx = GlobalContext(prog)
        with pytest.raises(ValueError):
            ctx.resolve("dup")

    def test_probing_fallback_when_entries_unknown(self):
        # A language that cannot enumerate entries forces the lazy
        # probing path; resolution results must be identical.
        prog = cimp_program("f(){ print(1); }", ["f"])
        ctx = GlobalContext(prog)
        ctx._resolve_table = None
        ctx._core_cache.clear()
        mod_idx, core = ctx.resolve("f")
        assert mod_idx == 0 and core is not None
        assert ctx.resolve("missing") is None


class TestExplorationDeterminism:
    def test_behaviour_sets_stable_across_runs(self):
        # Fresh contexts, warm or cold intern tables: the behaviour
        # set, the state count, and race-free verdicts never move.
        prog = cimp_program(
            "t1(){ print(1); print(2); } t2(){ [C] := 1; print(3); }",
            ["t1", "t2"],
        )
        results = []
        for _ in range(2):
            for sem in (PreemptiveSemantics(), NonPreemptiveSemantics()):
                graph = explore(GlobalContext(prog), sem)
                behs = frozenset(events_of(behaviours(graph)))
                results.append((type(sem).__name__,
                                graph.state_count(), behs))
        assert results[0] == results[2]
        assert results[1] == results[3]


def _fingerprint(behs):
    digest = hashlib.sha256()
    for line in sorted(repr(b) for b in behs):
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


@pytest.fixture
def cold_tables():
    reset_intern_tables()
    yield
    reset_intern_tables()


#: Full exploration of the n-thread lock counter, POR off: (worlds,
#: behaviour fingerprint), the answers the benchmarks pin.
_LOCK_COUNTER = {
    2: (796, "a6ab29594cb0b2fa"),
    3: (20868, "50e1ab6d869c3910"),
}


class TestForcedCollisions:
    @pytest.mark.parametrize("nthreads", sorted(_LOCK_COUNTER))
    def test_constant_thread_codes_keep_the_graph(
        self, monkeypatch, cold_tables, nthreads
    ):
        # Every thread stack codes to 0, so worlds that differ only in
        # their threads share one hash: most table probes land on a
        # different world and must be refused by the component check.
        monkeypatch.setattr(
            world_mod, "_thread_code", lambda tid, frames: 0
        )
        misses0 = world_mod._WORLDS.misses
        graph = explore(
            GlobalContext(lock_counter_system(nthreads).source_program()),
            PreemptiveSemantics(),
            max_states=100000,
            reduce=False,
        )
        behs = behaviours(graph, max_events=12, max_nodes=8_000_000)
        assert (
            graph.state_count(), _fingerprint(behs)
        ) == _LOCK_COUNTER[nthreads]
        # Collisions really happened: worlds were built, not interned.
        table = world_mod._WORLDS.table
        assert world_mod._WORLDS.misses - misses0 > 2 * len(table)
        assert len({hash(w) for w in graph.states}) == len(table)


_PROGRAMS = example_programs()
_MODES = {
    "preemptive": (PreemptiveSemantics, False),
    "preemptive-por": (PreemptiveSemantics, True),
    "nonpreemptive": (NonPreemptiveSemantics, False),
}


def _assert_hash_from_scratch(worlds):
    for w in worlds:
        fresh = World(w.threads, w.cur, w.bits, w.mem)
        assert hash(w) == hash(fresh)
        assert w._tx == fresh._tx
        assert w == fresh


class TestIncrementalHash:
    @pytest.mark.parametrize("mode", sorted(_MODES))
    @pytest.mark.parametrize("name", sorted(_PROGRAMS))
    def test_reached_worlds_hash_as_if_built_from_scratch(
        self, cold_tables, name, mode
    ):
        sem, reduce = _MODES[mode]
        graph = explore(
            GlobalContext(_PROGRAMS[name]), sem(), max_states=20000,
            reduce=reduce,
        )
        assert graph.state_count() > 1
        _assert_hash_from_scratch(graph.states)

    @pytest.mark.parametrize(
        "name", ["lock-counter-source", "lock-counter-tso", "cimp-spawn"]
    )
    def test_channel_round_trip_keeps_the_hash(self, cold_tables, name):
        graph = explore(
            GlobalContext(_PROGRAMS[name]), PreemptiveSemantics(),
            max_states=20000,
        )
        sent = list(graph.states)
        enc = ChannelEncoder()
        dec = ChannelDecoder()
        for start in range(0, len(sent), 64):
            batch = sent[start:start + 64]
            epoch, data = enc.encode_worlds(batch)
            # Decode against empty tables, so every world is rebuilt.
            reset_intern_tables()
            back = dec.decode(epoch, data)
            assert back == batch
            assert [hash(w) for w in back] == [hash(w) for w in batch]
            _assert_hash_from_scratch(back)
