"""Packed-int world keys and the move memo behind both exploration loops.

Deduplicating a successor used to mean building, hashing and interning
a whole :class:`~repro.semantics.world.World` per candidate edge. Yet a
world ``(T, t, 𝕕, σ)`` is a handful of per-thread states plus one shared
memory, and an exploration meets few of each (the 3-thread lock counter
has 20,868 worlds but 79 thread stacks and 105 memories). Each
exploration run therefore owns a :class:`KeySpace`:

* **Ids.** Every thread stack and every memory the run meets gets an
  exact small-int id (dicts keyed by the structural value, so equal
  stacks or memories share an id whatever path built them). Stack id 0
  is reserved for "no thread": the key of a pool with ``n`` threads has
  a non-zero field at position ``n - 1`` and zero fields above, so keys
  of different thread counts never alias.
* **Keys.** A world's key is one int. From the low bits up:

  - ``cur`` in :data:`CUR_BITS` bits;
  - the memory id in :data:`MEM_BITS` bits;
  - one field per thread position ``t``, :data:`STACK_BITS` + 1 bits
    wide, holding ``stack id << 1 | atomic bit``.

  The key names the world exactly, so dedup is one int dict probe. An
  id that does not fit its field raises :class:`OverflowError`; it never
  wraps into a neighbouring field. Each id also indexes a reverse list
  of the stacks and memories, so :meth:`KeySpace.decode` rebuilds the
  world of any key. An explored graph therefore keeps one int per
  state and its key space, not the worlds.
* **Move memo.** A thread step depends only on ``(cur, stack, bit,
  memory)`` — never on the other threads — except a spawn, whose new
  thread's position and freelist depend on the pool size. The memo is
  keyed by ``key & mask[cur]``, which keeps exactly those fields. An
  entry holds the raw local outcomes (for the race observer), the POR
  ample flag, whether Switch edges follow, and one move per global
  step: its label, footprint, key XOR delta, whether the thread is
  still alive after it and, non-preemptively, the label of the
  switches bundled with a sync point. A successor's key is then
  ``k ^ delta`` and a Switch edge's ``k ^ cur ^ t``.
* **Worlds.** The loops and the race observer
  (:mod:`repro.semantics.race`) handle keys only: ``cur``, the atomic
  bit and the live threads (:meth:`KeySpace.live`) are read from the
  key's fields. A ``World`` is decoded from the key only where an
  interpreter needs one: to fill a memo entry on a miss, and to expand
  a world matching a slow entry.

Entries are filled by the engine's own expansion
(:func:`~repro.semantics.engine.thread_expansion`): the language's
step interpreter behind the step-outcome memo of
:mod:`repro.lang.closure`, then the engine's message processing. The
memo therefore adds no second definition of stepping; the interpreters
stay the only one. A move that changes the thread count (a
spawn) marks its entry *slow*: worlds matching it are expanded with the
semantics' ``successors`` and their successors' keys computed from
scratch. ``semantics.successors`` stays the reference definition, and
``tests/semantics/test_keyspace.py`` holds every decoded expansion
equal to it.
"""

from repro.semantics.engine import SW, GAbort, SyncPoint, thread_expansion
from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.world import World

#: Width of the ``cur`` field: at most ``2 ** CUR_BITS`` threads.
CUR_BITS = 8
#: Width of the memory-id field.
MEM_BITS = 24
#: Width of a stack id; each thread field is one bit wider (the atomic
#: bit sits below the id).
STACK_BITS = 24


class KeySpace:
    """One exploration run's ids, key layout and move memo.

    The semantics selects which scheduling rule the expansion adds on
    top of the thread moves: free Switch edges after the moves when the
    current thread is outside an atomic block (preemptive), or switches
    bundled with each sync point (non-preemptive). ``reducer`` (an
    :class:`~repro.semantics.por.AmpleReducer`) turns on the ample
    decision stored in each entry: the reducer's own ``decide``, taken
    once per entry.
    """

    __slots__ = (
        "ctx", "semantics", "preemptive", "reducer", "stacks", "mems",
        "stack_list", "mem_list", "memo", "masks", "cur_bits", "mem_bits",
        "stack_bits", "low_bits", "slot_bits",
    )

    def __init__(self, ctx, semantics, reducer=None):
        self.ctx = ctx
        self.semantics = semantics
        self.preemptive = not isinstance(semantics, NonPreemptiveSemantics)
        self.reducer = reducer
        self.stacks = {}
        self.mems = {}
        # Reverse of ``stacks`` / ``mems``: the stack or memory of each
        # id (stack id 0, "no thread", has none).
        self.stack_list = [None]
        self.mem_list = []
        self.memo = {}
        self.masks = []
        # Read per run, so a test can narrow the fields.
        self.cur_bits = CUR_BITS
        self.mem_bits = MEM_BITS
        self.stack_bits = STACK_BITS
        self.low_bits = CUR_BITS + MEM_BITS
        self.slot_bits = STACK_BITS + 1

    # -- ids and keys ------------------------------------------------

    def stack_id(self, frames):
        sid = self.stacks.get(frames)
        if sid is None:
            sid = len(self.stacks) + 1
            if sid >> self.stack_bits:
                raise OverflowError(
                    "more than {} thread stacks in one exploration".format(
                        (1 << self.stack_bits) - 1
                    )
                )
            self.stacks[frames] = sid
            self.stack_list.append(frames)
        return sid

    def mem_id(self, mem):
        mid = self.mems.get(mem)
        if mid is None:
            mid = len(self.mems)
            if mid >> self.mem_bits:
                raise OverflowError(
                    "more than {} memories in one exploration".format(
                        1 << self.mem_bits
                    )
                )
            self.mems[mem] = mid
            self.mem_list.append(mem)
        return mid

    def shift(self, tid):
        """Bit offset of thread ``tid``'s field."""
        return self.low_bits + tid * self.slot_bits

    def key(self, world):
        """``world``'s key, computed from scratch."""
        threads = world.threads
        n = len(threads)
        if n > 1 << self.cur_bits:
            raise OverflowError(
                "{} threads exceed the {}-bit thread field".format(
                    n, self.cur_bits
                )
            )
        masks = self.masks
        while len(masks) < n:
            t = len(masks)
            masks.append(
                (1 << self.low_bits) - 1
                | ((1 << self.slot_bits) - 1) << self.shift(t)
            )
        k = world.cur | self.mem_id(world.mem) << self.cur_bits
        for t, frames in enumerate(threads):
            k |= (
                self.stack_id(frames) << 1 | world.bits[t]
            ) << self.shift(t)
        return k

    def fields(self, k):
        """Key ``k`` read back: ``(cur, memory id, thread fields)``,
        each thread field being ``stack id << 1 | atomic bit``."""
        cur = k & ((1 << self.cur_bits) - 1)
        mid = k >> self.cur_bits & ((1 << self.mem_bits) - 1)
        slot_bits = self.slot_bits
        slot_mask = (1 << slot_bits) - 1
        fields = []
        k >>= self.low_bits
        while k:
            fields.append(k & slot_mask)
            k >>= slot_bits
        return cur, mid, fields

    def live(self, k):
        """The positions of key ``k``'s live threads: those whose stack
        is not empty. No live thread means the world is done."""
        # Its own loop, not ``fields``: it runs once per expanded state.
        stacks = self.stack_list
        slot_bits = self.slot_bits
        slot_mask = (1 << slot_bits) - 1
        live = []
        t = 0
        k >>= self.low_bits
        while k:
            if stacks[(k & slot_mask) >> 1]:
                live.append(t)
            k >>= slot_bits
            t += 1
        return live

    def decode(self, k):
        """The world of key ``k``, built from scratch."""
        cur, mid, fields = self.fields(k)
        stacks = self.stack_list
        return World(
            [stacks[f >> 1] for f in fields], cur, [f & 1 for f in fields],
            self.mem_list[mid],
        )

    # -- the move memo -----------------------------------------------

    def entry(self, k, cur):
        """The memo entry of key ``k`` (current thread ``cur``), filling
        it from the decoded world on a miss: ``(outcomes, ample, moves,
        switches, slow)``."""
        mkey = k & self.masks[cur]
        entry = self.memo.get(mkey)
        if entry is None:
            entry = self.memo[mkey] = self._fill(self.decode(k), k)
        return entry

    def _fill(self, world, k):
        cur = world.cur
        shift = self.shift(cur)
        field = k >> shift & ((1 << self.slot_bits) - 1)
        bit = field & 1
        mid = k >> self.cur_bits & ((1 << self.mem_bits) - 1)
        reducer = self.reducer
        ample = False
        if reducer is not None and bit == 0:
            outs, results, ample = reducer.decide(self.ctx, world)
        else:
            outs, results = thread_expansion(self.ctx, world)
        results = results or ()
        n = len(world.threads)
        preemptive = self.preemptive
        # One move per global step: (label, fp, key delta, whether the
        # thread is still alive, bundled-switch label or None). An
        # abort is (None, GAbort, None, False, None).
        moves = []
        for res in results:
            if isinstance(res, GAbort):
                moves.append((None, res, None, False, None))
                continue
            nworld = res.world
            if len(nworld.threads) != n:
                return (outs, False, (), False, True)
            stack = nworld.threads[cur]
            nfield = self.stack_id(stack) << 1 | nworld.bits[cur]
            delta = (field ^ nfield) << shift ^ (
                mid ^ self.mem_id(nworld.mem)
            ) << self.cur_bits
            swlabel = None
            if not preemptive and isinstance(res, SyncPoint):
                swlabel = res.label if res.label else SW
            moves.append((res.label, res.fp, delta, bool(stack), swlabel))
        return (outs, ample, tuple(moves), preemptive and bit == 0, False)

    # -- expansion ---------------------------------------------------

    def expand(self, k, cur, live, entry):
        """The full successor list of key ``k`` (current thread ``cur``,
        live threads ``live``) as ``(label, fp, key)`` items, in
        ``semantics.successors`` order.

        ``key`` is ``None`` for an abort (``fp`` then holds the
        :class:`~repro.semantics.engine.GAbort`). A slow ``entry``
        expands the decoded world with ``semantics.successors``.
        """
        if entry[4]:
            out = []
            for res in self.semantics.successors(self.ctx, self.decode(k)):
                if isinstance(res, GAbort):
                    out.append((None, res, None))
                else:
                    out.append((res.label, res.fp, self.key(res.world)))
            return out
        others = None
        out = []
        append = out.append
        for label, fp, delta, alive, swlabel in entry[2]:
            if delta is None:
                append((None, fp, None))
                continue
            nk = k ^ delta
            if swlabel is None:
                append((label, fp, nk))
                continue
            # A non-preemptive sync point: the step staying on this
            # thread (while it lives, or when it ends the program),
            # then the step bundled with a switch to each other live
            # thread.
            if others is None:
                others = [t for t in live if t != cur]
            if alive or not others:
                append((label, fp, nk))
            nk ^= cur
            for t in others:
                append((swlabel, fp, nk ^ t))
        if entry[3]:
            k ^= cur
            for t in live:
                if t != cur:
                    append((SW, None, k ^ t))
        return out
