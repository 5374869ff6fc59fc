"""Global worlds: thread pools, activation stacks, atomic bits (Fig. 7).

A world ``W = (T, t, 𝕕, σ)`` consists of the thread pool, the current
thread id, the per-thread atomic bits, and the memory. As in the paper's
Coq development (and Compositional CompCert), each thread is a *stack* of
module activations ``(tl, F, κ)``: cross-module calls push a new
activation with its own freelist; returns pop it.

Worlds are immutable and hashable — the exploration algorithms use them
as graph nodes. Module declarations are referenced by index into the
:class:`GlobalContext`, which carries the (immutable, but unhashable)
program structure out-of-band.

Hot-path machinery: frames cache their hash lazily and worlds compute
theirs once, at construction, incrementally. A world keeps ``_tx``, the
XOR of one code per thread (``hash((tid, frames))``); a successor that
changes one thread's stack rehashes only that stack, the way
:class:`~repro.common.memory.Memory` keeps its Zobrist hash, and the
world hash mixes ``_tx`` with ``(cur, bits, mem)`` (the memory's hash
is cached in the memory). Both are *hash-consed* through bounded intern
tables — the canonical constructors (:meth:`Frame.make`, every
``World``-producing method) return pointer-equal objects for equal
states, so equal stacks and memories share one object and dict probes
on them short-circuit on identity. The world table is keyed by the
world's int hash, and a hit is accepted only after comparing all four
components; on a hash collision the new world is returned un-interned.
Direct ``Frame(...)``/``World(...)`` construction stays valid (tests use
it): interning is an optimization, structural ``__eq__`` is the truth.

The exploration loops do not dedup by ``World`` at all: they key each
world by a packed int of per-thread stack ids, atomic bits, a memory id
and ``cur`` (:mod:`repro.semantics.keyspace`), and build a world only
for a key seen for the first time — through :meth:`World._with_move`
(a memoised thread move: stack, bit, memory and ``_tx`` delta) or
:meth:`World.with_current` (a switch), both interned as above.
"""

from repro import obs
from repro.common.errors import SemanticsError
from repro.common.freelist import MAX_DEPTH, FreeList
from repro.common.intern import InternTable
from repro.lang.interface import resolve_entry

_FRAMES = InternTable("frame")
_WORLDS = InternTable("world")


def _intern_frame(mod_idx, flist, core):
    """The canonical frame for these components.

    Keyed on the component tuple (not a throwaway ``Frame``), so a hit
    costs one dict probe and no allocation.
    """
    key = (mod_idx, flist, core)
    table = _FRAMES.table
    frame = table.get(key)
    if frame is not None:
        _FRAMES.hits += 1
        return frame
    _FRAMES.misses += 1
    if len(table) >= _FRAMES.max_size:
        # Inlined mirror of InternTable.intern's bookkeeping: the
        # capacity eviction and the occupancy peak must stay visible
        # to the census (obs/heap) even on this hand-inlined path.
        _FRAMES.clears += 1
        table.clear()
    frame = Frame(mod_idx, flist, core)
    table[key] = frame
    if len(table) > _FRAMES.peak_size:
        _FRAMES.peak_size = len(table)
    return frame


def _thread_code(tid, frames):
    """The code thread ``tid`` with stack ``frames`` XORs into ``_tx``."""
    return hash((tid, frames))


def _threads_code(threads):
    """``_tx`` of a whole thread pool, computed from scratch."""
    tx = 0
    for tid, frames in enumerate(threads):
        tx ^= _thread_code(tid, frames)
    return tx


def _new_world(threads, cur, bits, mem, tx, h):
    """A world from its components, ``_tx`` and hash (not interned)."""
    world = object.__new__(World)
    object.__setattr__(world, "threads", threads)
    object.__setattr__(world, "cur", cur)
    object.__setattr__(world, "bits", bits)
    object.__setattr__(world, "mem", mem)
    object.__setattr__(world, "_tx", tx)
    object.__setattr__(world, "_hash", h)
    return world


def _intern_world(threads, cur, bits, mem, tx):
    """The canonical world for these components, ``tx`` their ``_tx``.

    The table is keyed by the world hash. A hit counts only when all
    four components match (``is`` first, then ``==``); a different
    world under the same hash is a collision, and the new world is
    returned without being interned.
    """
    h = hash((tx, cur, bits, mem))
    table = _WORLDS.table
    world = table.get(h)
    if world is not None:
        if (
            world.cur == cur
            and (world.bits is bits or world.bits == bits)
            and (world.mem is mem or world.mem == mem)
            and (world.threads is threads or world.threads == threads)
        ):
            _WORLDS.hits += 1
            return world
        _WORLDS.misses += 1
        return _new_world(threads, cur, bits, mem, tx, h)
    _WORLDS.misses += 1
    if len(table) >= _WORLDS.max_size:
        _WORLDS.clears += 1
        table.clear()
    world = _new_world(threads, cur, bits, mem, tx, h)
    table[h] = world
    if len(table) > _WORLDS.peak_size:
        _WORLDS.peak_size = len(table)
    return world

def reset_intern_tables():
    """Empty the frame/world intern tables.

    Interning is an optimization (structural ``__eq__`` is the truth),
    so this is always safe, also between keyed explorations: their
    stack and memory ids are per run and keyed by structural equality
    (:mod:`repro.semantics.keyspace`), so no id outlives a clear or
    depends on which object was canonical. The parallel explorer calls
    it at the start of every run, so the run's canonical worlds are its
    own: worlds an earlier run decoded off the wire carry memories
    rebuilt around private base dicts, and inheriting them would cost
    memory-delta opportunities (the encoder's base cache matches by
    ``id``). The benchmark harness calls it to start each task cold.
    """
    _FRAMES.table.clear()
    _WORLDS.table.clear()


#: Marks a function name defined by more than one module: linking is
#: still fine, but resolving that name is an error (as in
#: :func:`repro.lang.interface.resolve_entry`).
_AMBIGUOUS = object()

#: Negative-cache marker for the probing fallback of ``resolve``.
_UNRESOLVED = object()


class Frame:
    """One module activation ``(tl, F, κ)`` on a thread's stack.

    ``mod_idx`` indexes the module in the :class:`GlobalContext`;
    ``flist`` is the activation's freelist; ``core`` its core state.
    """

    __slots__ = ("mod_idx", "flist", "core", "_hash")

    def __init__(self, mod_idx, flist, core):
        object.__setattr__(self, "mod_idx", mod_idx)
        object.__setattr__(self, "flist", flist)
        object.__setattr__(self, "core", core)

    @classmethod
    def make(cls, mod_idx, flist, core):
        """The canonical (interned) frame for these components."""
        return _intern_frame(mod_idx, flist, core)

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Frame)
            and self.mod_idx == other.mod_idx
            and self.flist == other.flist
            and self.core == other.core
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.mod_idx, self.flist, self.core))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "Frame(mod={}, core={!r})".format(self.mod_idx, self.core)

    def with_core(self, core):
        if core is self.core:
            return self
        return _intern_frame(self.mod_idx, self.flist, core)


class World:
    """An immutable global configuration.

    ``threads`` maps (0-based) thread position to a tuple of frames —
    the activation stack, innermost activation *last*; an empty tuple is
    a terminated thread. ``cur`` is the running thread's position;
    ``bits`` the per-thread atomic bits (the preemptive semantics only
    ever sets the current thread's bit, matching the single ``d`` of
    Fig. 7; the non-preemptive semantics uses the full map ``𝕕``).
    """

    __slots__ = ("threads", "cur", "bits", "mem", "_tx", "_hash")

    def __new__(cls, threads, cur, bits, mem):
        """A world built from scratch, not interned."""
        threads = tuple(threads)
        bits = tuple(bits)
        tx = _threads_code(threads)
        return _new_world(
            threads, cur, bits, mem, tx, hash((tx, cur, bits, mem))
        )

    @classmethod
    def make(cls, threads, cur, bits, mem):
        """The canonical (interned) world for these components."""
        threads = tuple(threads)
        return _intern_world(
            threads, cur, tuple(bits), mem, _threads_code(threads)
        )

    def __setattr__(self, name, value):
        raise AttributeError("World is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, World)
            and self.threads == other.threads
            and self.cur == other.cur
            and self.bits == other.bits
            and self.mem == other.mem
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "World(cur={}, bits={}, live={})".format(
            self.cur, self.bits, sorted(self.live_threads())
        )

    def live_threads(self):
        """Positions of threads that have not terminated."""
        return [i for i, frames in enumerate(self.threads) if frames]

    def is_done(self):
        """All threads terminated."""
        return not any(self.threads)

    def top_frame(self, tid=None):
        """The innermost activation of thread ``tid`` (default: current)."""
        tid = self.cur if tid is None else tid
        frames = self.threads[tid]
        if not frames:
            return None
        return frames[-1]

    def replace_top(self, frame, mem=None, bit=None, cur=None):
        """A world with the current thread's top frame replaced.

        Replacing the top of a *terminated* thread is a semantics bug
        (it would silently resurrect the thread), surfaced loudly like
        stuck states are.
        """
        frames = self.threads[self.cur]
        if not frames:
            raise SemanticsError(
                "replace_top on terminated thread {}".format(self.cur)
            )
        return self._update(
            self.cur,
            frames[:-1] + (frame,),
            mem,
            bit,
            cur,
        )

    def push_frame(self, frame, mem=None):
        """A world with a new activation pushed on the current thread."""
        return self._update(
            self.cur, self.threads[self.cur] + (frame,), mem, None, None
        )

    def pop_frame(self, mem=None):
        """A world with the current thread's top activation popped."""
        return self._update(
            self.cur, self.threads[self.cur][:-1], mem, None, None
        )

    def with_current(self, cur):
        """A world scheduled on thread ``cur``."""
        if cur == self.cur:
            return self
        return _intern_world(
            self.threads, cur, self.bits, self.mem, self._tx
        )

    def add_thread(self, frame):
        """A world with a freshly spawned thread appended."""
        threads = self.threads
        stack = (frame,)
        return _intern_world(
            threads + (stack,),
            self.cur,
            self.bits + (0,),
            self.mem,
            self._tx ^ _thread_code(len(threads), stack),
        )

    def _with_move(self, frames, bit, mem, txd):
        """The world after a memoised move of the current thread.

        Its stack becomes ``frames``, its atomic bit ``bit`` (``None``:
        unchanged) and the memory ``mem``; ``txd`` is the move's
        ``_tx`` delta, so no thread code is recomputed. Equal to the
        ``_update`` the engine made when the move was first computed.
        """
        cur = self.cur
        threads = self.threads
        bits = self.bits
        if bit is not None:
            bits = bits[:cur] + (bit,) + bits[cur + 1:]
        return _intern_world(
            threads[:cur] + (frames,) + threads[cur + 1:],
            cur,
            bits,
            mem,
            self._tx ^ txd,
        )

    def _update(self, tid, frames, mem, bit, cur):
        threads = list(self.threads)
        tx = (
            self._tx
            ^ _thread_code(tid, threads[tid])
            ^ _thread_code(tid, frames)
        )
        threads[tid] = frames
        bits = self.bits
        if bit is not None:
            bits = list(self.bits)
            bits[tid] = bit
            bits = tuple(bits)
        return _intern_world(
            tuple(threads),
            self.cur if cur is None else cur,
            bits,
            self.mem if mem is None else mem,
            tx,
        )


class GlobalContext:
    """The immutable program structure shared by all worlds.

    Holds the module declarations (so worlds can reference them by
    index) and resolves entry names for thread creation and for
    cross-module calls.

    ``__init__`` precomputes a ``{fname: (mod_idx, decl)}`` resolve
    table from the modules' entry listings, so the engine's cross-module
    call/spawn path is one dict lookup plus one ``init_core`` instead of
    probing every module and re-scanning ``modules`` for the index. When
    a language cannot enumerate its entries
    (:meth:`~repro.lang.interface.ModuleLanguage.entry_names` returns
    ``None``), resolution falls back to probing, memoized per name.

    A context carries no stepping caches: step outcomes are memoized per
    ``(language, module)`` in :mod:`repro.lang.closure`, and thread
    moves per exploration run in :mod:`repro.semantics.keyspace`.
    """

    def __init__(self, program):
        self.program = program
        self.modules = program.modules
        self._resolve_table = self._build_resolve_table()
        self._resolve_cache = {}
        # (fname, args) -> (mod_idx, core) | _UNRESOLVED. Cores are
        # immutable, so the canonical initial core can be shared by
        # every call site; sharing also makes the interned callee
        # frames pointer-equal.
        self._core_cache = {}

    def _build_resolve_table(self):
        table = {}
        for idx, decl in enumerate(self.modules):
            entry_names = getattr(decl.lang, "entry_names", None)
            names = entry_names(decl.code) if entry_names else None
            if names is None:
                return None
            for fname in names:
                table[fname] = (
                    _AMBIGUOUS if fname in table else (idx, decl)
                )
        return table

    def module(self, idx):
        return self.modules[idx]

    def entry_names(self):
        """Sorted resolvable entry names, or ``None`` when unknown.

        ``None`` means some module's language has no entry listing
        (resolution falls back to probing), so callers — e.g. the
        CLI's ``--threads`` validation — cannot enumerate candidates
        up front. Ambiguous names (defined in several modules) are
        excluded: resolving them raises.
        """
        table = self._resolve_table
        if table is None:
            return None
        return sorted(
            fname
            for fname, entry in table.items()
            if entry is not _AMBIGUOUS
        )

    def resolve(self, fname, args=()):
        """Find ``(mod_idx, core)`` for a function, or ``None``."""
        cached = self._core_cache.get((fname, args))
        if cached is not None:
            if obs.enabled:
                obs.inc("resolve.cache_hits")
            return None if cached is _UNRESOLVED else cached
        resolved = self._resolve_uncached(fname, args)
        try:
            self._core_cache[(fname, args)] = (
                _UNRESOLVED if resolved is None else resolved
            )
        except TypeError:
            # Unhashable args: skip memoization, resolution still works.
            pass
        return resolved

    def _resolve_uncached(self, fname, args):
        table = self._resolve_table
        if table is not None:
            entry = table.get(fname)
            if entry is None:
                return None
            if entry is _AMBIGUOUS:
                raise ValueError(
                    "entry {!r} defined in multiple modules".format(fname)
                )
            mod_idx, decl = entry
            core = decl.lang.init_core(decl.code, fname, args)
            if core is None:
                return None
            return mod_idx, core
        # Probing fallback for languages without entry listings.
        hit = self._resolve_cache.get(fname)
        if hit is not None:
            if obs.enabled:
                obs.inc("resolve.cache_hits")
            if hit is _UNRESOLVED:
                return None
            mod_idx, decl = hit
            core = decl.lang.init_core(decl.code, fname, args)
            if core is None:
                return None
            return mod_idx, core
        found = resolve_entry(self.modules, fname, args)
        if found is None:
            self._resolve_cache[fname] = _UNRESOLVED
            return None
        decl, core = found
        mod_idx = self.modules.index(decl)
        self._resolve_cache[fname] = (mod_idx, decl)
        return mod_idx, core

    def load(self):
        """The Load rule: all initial worlds (one per initial thread).

        Builds the linked initial memory, gives each thread a fresh
        bottom activation with a disjoint freelist, and returns one
        world per choice of initial thread (``t ∈ dom(T)``).
        """
        mem = self.program.initial_memory()
        threads = []
        for pos, entry in enumerate(self.program.entries):
            resolved = self.resolve(entry)
            if resolved is None:
                raise SemanticsError(
                    "entry {!r} not defined by any module".format(entry)
                )
            mod_idx, core = resolved
            flist = FreeList.for_thread(pos)
            threads.append((Frame.make(mod_idx, flist, core),))
        bits = (0,) * len(threads)
        return [
            World.make(threads, cur, bits, mem)
            for cur in range(len(threads))
        ]

    def next_flist(self, world):
        """A fresh freelist for a pushed activation of the current thread.

        Depth-indexed so freelists of nested activations are disjoint
        from each other and from every other thread's.
        """
        depth = len(world.threads[world.cur])
        if depth >= MAX_DEPTH:
            raise SemanticsError("call depth exceeded")
        return FreeList.for_thread(world.cur, depth)

    def spawn_flist(self, world):
        """The freelist of a newly spawned thread.

        New threads take the next thread position, so their address
        space is disjoint from every existing activation's (threads
        are never removed from the pool, only emptied).
        """
        return FreeList.for_thread(len(world.threads))
