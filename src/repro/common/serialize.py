"""Cross-process serialization of worlds and runtime state.

The parallel explorer (:mod:`repro.semantics.parallel`) partitions the
frontier across worker processes and ships cross-shard successor worlds
as pickled batches. Plain pickling fails on this codebase on purpose:
every runtime-state class blocks ``__setattr__`` (worlds are graph-node
keys and must stay immutable), so the default slot-state restore path
raises ``<class> is immutable`` on load. This module registers
``copyreg`` reducers that rebuild each class through its blessed
constructor instead:

* :class:`~repro.semantics.world.World` / ``Frame`` go through their
  ``make`` classmethods, so decoded worlds re-enter the receiver's
  intern tables and regain pointer-equality fast paths;
* :class:`~repro.common.memory.Memory` rebuilds from its contents (the
  Zobrist hash is recomputed or folded locally, never trusted from the
  wire) and :class:`~repro.common.footprint.Footprint` re-interns
  through its hash-consing ``__new__``;
* value/message singletons (``VUndef``, ``TAU``, ``EntAtom``,
  ``ExtAtom``) decode to the receiver's singletons;
* language cores and their frames restore via ``object.__setattr__``
  with cached ``_hash`` slots dropped (they all recompute lazily), so a
  decoded core can never carry a stale hash. Worlds never take this
  path: ``World.make`` recomputes ``_tx`` and the hash from the decoded
  components.

Since schema version 2 the transport is *stateful per channel*. A
directed channel (one sender, one receiver, FIFO delivery — exactly
what a ``multiprocessing.Queue`` pair gives the parallel explorer) owns
three layers of shared state, each of which turns repeated payload into
near-zero wire bytes:

* **A persistent pickle memo.** One long-lived :class:`ChannelEncoder`
  keeps one ``Pickler`` whose memo survives across ``encode`` calls,
  and the matching :class:`ChannelDecoder` keeps the mirror-image
  ``Unpickler``; hash-consed frames, cores and static code containers
  cross the channel *once*, then travel as one-opcode memo references.
  The memo tables on both ends grow in lock-step (pickle's ``MEMOIZE``
  indexes count from each end's table length), which is why a channel
  is strictly point-to-point: feeding one decoder streams from two
  encoders would silently resolve memo indexes to the wrong objects.
* **A memory base cache.** ``Memory`` is already a delta structure (a
  shared base dict plus a small overlay — see
  :mod:`repro.common.memory`); the wire format mirrors it. The first
  time a base dict crosses a channel the encoder registers it under a
  small integer token and ships the full contents
  (``full_sends``/``base_registrations``); every later memory sharing
  that base ships ``(token, overlay_items)`` only (``delta_hits``).
  The decoder recomputes the base's Zobrist hash locally when it
  arrives and *folds* overlays in incrementally
  (:meth:`~repro.common.memory.Memory.rebase`) — hashes never cross
  the wire.
* **Packed world records.** Even with a shared memo, a steady-state
  world costs ~55 wire bytes: pickle references into a long-lived memo
  are 5-byte ``LONG_BINGET`` opcodes, and a world needs several (its
  stack tuples, bits, memory, restore callable) plus tuple/reduce
  framing. :meth:`ChannelEncoder.encode_worlds` drops below that floor
  by not pickling world *structure* at all: each channel keeps
  equality-keyed component tables (threads tuple, bits tuple, memory),
  and a batch of worlds ships as one byte string of varint table
  indexes — 4-8 bytes per steady-state world — plus a ``novel`` list
  holding only the components the receiver has not seen (those still
  go through the persistent pickler, so a novel memory delta-encodes
  against the base cache as above). The novel list is untagged: the
  encoder assigns a component index ``len(table)`` exactly when it is
  novel, so the decoder rebuilds the assignment positionally — an
  index equal to the current table size consumes the next novel item.
* **A channel epoch.** Channel state cannot grow forever; when the
  encoder is over budget (:meth:`ChannelEncoder.over_budget`, bounded
  by :data:`CHANNEL_BYTES_LIMIT` / :data:`CHANNEL_BASES_LIMIT` /
  :data:`CHANNEL_SENT_LIMIT`) the sender calls
  :meth:`~ChannelEncoder.reset`, which drops the memo, the base cache
  and the send memo and bumps the **epoch**. Every message carries the
  epoch out-of-band; the decoder resets itself on the first message of
  a newer epoch (and a ``reset`` control message lets the receiver
  drop its state promptly) and rejects messages from an older epoch
  (:class:`SerializationError`), so a torn reset can corrupt nothing.

A third cost saver needs no per-channel state at all: the **static
segment**. The parallel explorer forks its workers, so modules,
functions and the initial worlds/cores are *pointer-identical* in
every process. :func:`install_static_table` (called before forking)
pins them into an indexed table; the reducers encode any table member
as its index and the receiver resolves the index to its own inherited
object — static code never crosses the wire at all.

Batches travel in a versioned envelope, mirroring the witness
artifact's schema discipline (:data:`repro.semantics.witness
.WITNESS_SCHEMA_VERSION`): a version tag guards layout changes (v2 is
the stateful channel format; v1 full-dump batches are rejected) and a
*hash-seed probe* guards transport between interpreters with different
string-hash seeds — world identity is hash-partitioned, so decoding
into a differently-seeded interpreter would silently scramble shard
ownership. The parallel explorer forks its workers (seed inherited),
making the probe a tripwire, not a tax; batches are transport-only and
must never be persisted.
"""

import copyreg
import io
import pickle
import time

from repro.common import footprint as _footprint
from repro.common import freelist as _freelist
from repro.common import immutables as _immutables
from repro.common import memory as _memory
from repro.common import values as _values
from repro.lang import messages as _messages
from repro.lang import steps as _steps

#: Version tag of the batch envelope (bump on layout changes).
#: v2: stateful channel format — persistent memos, memory deltas
#: against registered bases, static-segment references.
SERIAL_SCHEMA_VERSION = 2

#: Detects decoding under a different string-hash seed (see module
#: docstring): equal across fork, different across unrelated
#: interpreter launches unless ``PYTHONHASHSEED`` is pinned.
_SEED_PROBE = hash("repro.common.serialize:seed-probe")

#: Encoded bytes after which a sender resets its channel epoch.
CHANNEL_BYTES_LIMIT = 64 << 20
#: Registered memory bases after which a sender resets its channel.
CHANNEL_BASES_LIMIT = 8192
#: Send-memo entries after which a sender resets its channel.
CHANNEL_SENT_LIMIT = 1 << 18


class SerializationError(Exception):
    """A batch could not be encoded or decoded."""


# ----- the static segment ---------------------------------------------------

#: The pre-shared static segment: objects pointer-identical in every
#: process of one parallel run (fork-inherited modules, functions,
#: initial worlds/cores). Encoded as table indexes, resolved to the
#: receiver's own inherited objects. Installed by the coordinator
#: *before* forking; empty outside a parallel run.
_STATIC_OBJS = []
_STATIC_IDS = {}


def install_static_table(objs):
    """Pin ``objs`` as the static segment; returns the table size.

    Must run before the workers fork (both ends resolve indexes
    against their own copy of this table) and before any channel
    encodes its first message.
    """
    global _STATIC_OBJS, _STATIC_IDS
    _STATIC_OBJS = list(objs)
    _STATIC_IDS = {id(obj): i for i, obj in enumerate(_STATIC_OBJS)}
    return len(_STATIC_OBJS)


def clear_static_table():
    """Drop the static segment (end of a parallel run)."""
    global _STATIC_OBJS, _STATIC_IDS
    _STATIC_OBJS = []
    _STATIC_IDS = {}


def collect_static_objects(ctx, initial_worlds=()):
    """The fork-inherited objects worth pinning for one exploration:
    every module's code container and functions, plus the initial
    worlds with their frames, cores, freelists and shared memory.

    Containers only — their internals (AST nodes, instruction lists)
    ride along for free: a static ref short-circuits the whole
    subtree.
    """
    objs = []
    seen = set()

    def add(obj):
        if obj is None:
            return
        key = id(obj)
        if key not in seen:
            seen.add(key)
            objs.append(obj)

    for decl in getattr(ctx, "modules", None) or ():
        code = getattr(decl, "code", None)
        add(code)
        functions = getattr(code, "functions", None)
        if isinstance(functions, dict):
            for fn in functions.values():
                add(fn)
    for world in initial_worlds:
        add(world)
        add(world.mem)
        for stack in world.threads:
            for frame in stack:
                add(frame)
                add(frame.core)
                add(frame.flist)
    return objs


def _static_ref(idx):
    try:
        return _STATIC_OBJS[idx]
    except IndexError:
        raise SerializationError(
            "static segment reference #{} outside the installed table "
            "({} object(s)): sender and receiver do not share a "
            "fork-inherited static segment".format(
                idx, len(_STATIC_OBJS)
            )
        ) from None


# ----- reducers -------------------------------------------------------------


def _restore_slots(cls, items):
    """Rebuild a setattr-blocking slots instance from ``(name, value)``
    pairs, bypassing the immutability guard the way the constructors do."""
    obj = object.__new__(cls)
    for name, value in items:
        object.__setattr__(obj, name, value)
    return obj


def _all_slots(cls):
    names = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        names.extend(slots)
    return names


#: Cache slots that must not cross the wire. The classes registered
#: through :func:`register_slots` recompute them lazily; ``World``,
#: ``Frame``, ``Memory`` and ``Footprint`` have their own reducers and
#: are rebuilt through their constructors (a world computes ``_tx`` and
#: its hash eagerly there), so no cached slot is ever decoded.
_CACHE_SLOTS = frozenset({"_hash", "_locs", "_merged"})


def register_slots(cls):
    """Register a generic reducer: all slots except cached ones.

    Only sound for classes whose cached slots are recomputed lazily via
    the ``try/except AttributeError`` pattern (every language core and
    language-level frame — see e.g. ``CImpCore.__hash__``); never for
    ``World``, whose hash is set at construction. Static-segment members
    reduce to their table index instead (one dict lookup, paid only on
    an object's first encode per channel epoch — pickle's memo handles
    repeats).
    """
    slots = tuple(n for n in _all_slots(cls) if n not in _CACHE_SLOTS)

    def _reduce(obj, _cls=cls, _slots=slots):
        idx = _STATIC_IDS.get(id(obj))
        if idx is not None:
            return _static_ref, (idx,)
        items = []
        for name in _slots:
            try:
                items.append((name, getattr(obj, name)))
            except AttributeError:
                pass
        return _restore_slots, (_cls, tuple(items))

    copyreg.pickle(cls, _reduce)


def register_constructor(cls, fields):
    """Register a reducer that calls ``cls(*fields)`` on decode."""

    def _reduce(obj, _cls=cls, _fields=tuple(fields)):
        idx = _STATIC_IDS.get(id(obj))
        if idx is not None:
            return _static_ref, (idx,)
        return _cls, tuple(getattr(obj, f) for f in _fields)

    copyreg.pickle(cls, _reduce)


def register_singleton(cls):
    """Register a reducer for a ``__new__``-singleton class."""
    copyreg.pickle(cls, lambda obj, _cls=cls: (_cls, ()))


def _restore_world(threads, cur, bits, mem):
    from repro.semantics.world import World

    return World.make(threads, cur, bits, mem)


def _restore_frame(mod_idx, flist, core):
    from repro.semantics.world import Frame

    return Frame.make(mod_idx, flist, core)


def _reduce_world(w):
    idx = _STATIC_IDS.get(id(w))
    if idx is not None:
        return _static_ref, (idx,)
    return _restore_world, (w.threads, w.cur, w.bits, w.mem)


def _reduce_frame(f):
    idx = _STATIC_IDS.get(id(f))
    if idx is not None:
        return _static_ref, (idx,)
    return _restore_frame, (f.mod_idx, f.flist, f.core)


def _restore_memory(items):
    return _memory.Memory(dict(items))


def _reduce_memory(m):
    """Delta-encode against the active channel's base cache.

    Outside a channel encode (``_CURRENT_ENCODER`` is None, e.g. plain
    ``copy.deepcopy``) memories dump in full.
    """
    idx = _STATIC_IDS.get(id(m))
    if idx is not None:
        return _static_ref, (idx,)
    enc = _CURRENT_ENCODER
    if enc is None:
        return _restore_memory, (tuple(m.items()),)
    base, over = m.delta_parts()
    token = enc._bases.get(id(base))
    if token is None:
        token = len(enc._base_keep)
        enc._bases[id(base)] = token
        enc._base_keep.append(base)
        enc.base_registrations += 1
        enc.full_sends += 1
        return (
            _restore_memory_base,
            (token, tuple(base.items()), tuple(over.items())),
        )
    enc.delta_hits += 1
    return _restore_memory_delta, (token, tuple(over.items()))


def _restore_memory_base(token, base_items, over_items):
    dec = _CURRENT_DECODER
    if dec is None:
        raise SerializationError(
            "memory base registration outside a channel decode"
        )
    return dec.define_base(token, base_items, over_items)


def _restore_memory_delta(token, over_items):
    dec = _CURRENT_DECODER
    if dec is None:
        raise SerializationError(
            "memory delta outside a channel decode"
        )
    return dec.apply_delta(token, over_items)


def _registered():
    """Install every reducer once (idempotent; keyed on World)."""
    from repro.semantics import world as _world

    if _world.World in copyreg.dispatch_table:
        return

    copyreg.pickle(_world.World, _reduce_world)
    copyreg.pickle(_world.Frame, _reduce_frame)
    copyreg.pickle(_memory.Memory, _reduce_memory)
    copyreg.pickle(
        _footprint.Footprint,
        lambda fp: (_footprint.Footprint, (tuple(fp.rs), tuple(fp.ws))),
    )
    register_constructor(_freelist.FreeList, ("base",))
    copyreg.pickle(
        _immutables.ImmutableMap,
        lambda m: (_immutables.ImmutableMap, (dict(m.items()),)),
    )
    register_constructor(_values.VInt, ("n",))
    register_constructor(_values.VPtr, ("addr",))
    register_singleton(_values._VUndef)
    register_singleton(_messages._Tau)
    register_singleton(_messages._EntAtom)
    register_singleton(_messages._ExtAtom)
    register_constructor(_messages.EventMsg, ("kind", "value"))
    register_constructor(_messages.RetMsg, ("value",))
    register_constructor(_messages.CallMsg, ("fname", "args"))
    register_constructor(_messages.SpawnMsg, ("fname",))
    register_constructor(_steps.Step, ("msg", "fp", "core", "mem"))
    register_constructor(_steps.StepAbort, ("fp", "reason"))

    # Language cores, frames and static code containers: the generic
    # slot reducer (cached hashes dropped, recomputed lazily on the
    # receiving side). AST nodes need none of this — their shared base
    # defines ``__reduce__`` (see repro.common.astbase.Node).
    from repro.langs.cimp import ast as _cimp_ast
    from repro.langs.cimp.semantics import CImpCore
    from repro.langs.ir.base import IRModule
    from repro.langs.ir.cminor import CmCore, CmFrame
    from repro.langs.ir.csharpminor import CshmCore, CshmFrame
    from repro.langs.ir.linear import LinCore, LinearFunction, LinFrame
    from repro.langs.ir.ltl import LTLCore, LTLFrame, LTLFunction
    from repro.langs.ir.mach import MachCore, MachFrame, MachFunction
    from repro.langs.ir.rtl import RTLCore, RTLFrame, RTLFunction
    from repro.langs.minic import ast as _minic_ast
    from repro.langs.minic.semantics import MFrame, MiniCCore
    from repro.langs.x86.ast import X86Function
    from repro.langs.x86.sc import X86Core

    for cls in (
        CImpCore,
        _cimp_ast.Function,
        _cimp_ast.CImpModule,
        IRModule,
        CmCore,
        CmFrame,
        CshmCore,
        CshmFrame,
        LinCore,
        LinFrame,
        LinearFunction,
        LTLCore,
        LTLFrame,
        LTLFunction,
        MachCore,
        MachFrame,
        MachFunction,
        RTLCore,
        RTLFrame,
        RTLFunction,
        _minic_ast.MiniCModule,
        MFrame,
        MiniCCore,
        X86Function,
        X86Core,
    ):
        register_slots(cls)

    # CImp AST nodes have their own immutable base (not astbase.Node);
    # every concrete node is a lazily-hashed slots class, so the
    # generic reducer applies uniformly.
    for obj in vars(_cimp_ast).values():
        if (
            isinstance(obj, type)
            and issubclass(obj, _cimp_ast._Node)
            and obj is not _cimp_ast._Node
        ):
            register_slots(obj)


# ----- channels -------------------------------------------------------------

#: Payload marker of a packed world batch (``encode_worlds``). Channels
#: are a private transport between the parallel explorer's processes,
#: so the marker can never collide with application payloads.
_WORLDS_TAG = "repro/worlds"


def _pack_uint(out, n):
    """Append ``n`` as an unsigned LEB128 varint to bytearray ``out``."""
    while n >= 0x80:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _read_uint(data, pos):
    """Read one LEB128 varint; returns ``(value, next_pos)``."""
    value = 0
    shift = 0
    while True:
        try:
            byte = data[pos]
        except IndexError:
            raise SerializationError(
                "truncated packed world record"
            ) from None
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


#: The channel whose encode/decode is currently on the stack. Workers
#: are single-threaded (the queue feeder threads only move bytes), so
#: a module global is safe and keeps the Memory reducer — called once
#: per distinct memory — free of any indirection.
_CURRENT_ENCODER = None
_CURRENT_DECODER = None


class _ChunkReader:
    """File-like over swappable byte chunks, so one persistent
    ``Unpickler`` can read many discrete messages."""

    __slots__ = ("_buf",)

    def __init__(self):
        self._buf = io.BytesIO()

    def set(self, data):
        self._buf = io.BytesIO(data)

    def read(self, n=-1):
        return self._buf.read(n)

    def readline(self):
        return self._buf.readline()


class ChannelEncoder:
    """The sender half of one directed transport channel.

    Owns the persistent pickler memo, the memory base cache and the
    send memo (``sent`` — the parallel explorer's per-destination
    dedup set, dropped together with the rest of the channel state on
    :meth:`reset` so its memory is bounded too). ``encode`` returns
    ``(epoch, bytes)``; the epoch must travel out-of-band with the
    message so the receiver can re-sync (see the module docstring).
    """

    def __init__(self):
        _registered()
        self.epoch = 0
        self.resets = 0
        self.delta_hits = 0
        self.full_sends = 0
        self.base_registrations = 0
        self.sent = set()
        self._buf = io.BytesIO()
        self._fresh()

    def _fresh(self):
        self.sent.clear()
        self._bases = {}
        self._base_keep = []
        # Packed-record component tables (equality-keyed: a component
        # that re-crosses as a distinct-but-equal object still hits).
        self._threads_tab = {}
        self._bits_tab = {}
        self._mem_tab = {}
        self._epoch_bytes = 0
        self._pickler = pickle.Pickler(
            self._buf, protocol=pickle.HIGHEST_PROTOCOL
        )

    def reset(self):
        """Drop all channel state and open the next epoch.

        The caller owns the protocol: on a worker-to-worker channel a
        ``reset`` control message must precede the next data message
        (FIFO makes that sufficient); on a channel whose receiver only
        ever decodes (worker-to-coordinator records) the epoch carried
        by the next message triggers the implicit reset.
        """
        self.epoch += 1
        self.resets += 1
        self._fresh()

    def over_budget(self):
        """True when the channel state warrants a reset."""
        return (
            self._epoch_bytes >= CHANNEL_BYTES_LIMIT
            or len(self._base_keep) >= CHANNEL_BASES_LIMIT
            or len(self._mem_tab) >= CHANNEL_SENT_LIMIT
            or len(self.sent) >= CHANNEL_SENT_LIMIT
        )

    def encode(self, payload):
        """Pickle ``payload`` into a versioned message: ``(epoch,
        bytes)``.

        Hash-consed state repeated across this channel's messages
        serializes once per epoch (the persistent memo); memories
        delta-encode against the base cache. When observability is on,
        every encode lands in the wire-cost metrics:
        ``serialize.encode.calls`` / ``.bytes`` counters and a
        ``serialize.encode.seconds`` histogram.
        """
        global _CURRENT_ENCODER
        from repro import obs

        track = obs.enabled
        if track:
            t0 = time.monotonic()
        buf = self._buf
        envelope = (SERIAL_SCHEMA_VERSION, _SEED_PROBE, payload)
        try:
            buf.seek(0)
            buf.truncate()
            _CURRENT_ENCODER = self
            try:
                self._pickler.dump(envelope)
            finally:
                _CURRENT_ENCODER = None
            data = buf.getvalue()
        except Exception as exc:
            # The memo may be half-written: poison this epoch so the
            # receiver can never see a stream continuing it.
            self.reset()
            raise SerializationError(
                "cannot encode batch: {}".format(exc)
            ) from exc
        self._epoch_bytes += len(data)
        if track:
            obs.inc("serialize.encode.calls")
            obs.inc("serialize.encode.bytes", len(data))
            obs.observe(
                "serialize.encode.seconds", time.monotonic() - t0
            )
        return self.epoch, data

    def encode_worlds(self, worlds):
        """Encode a batch of worlds as packed records: ``(epoch,
        bytes)``.

        Steady-state worlds — every component already in this
        channel's tables — cost 4-8 wire bytes each (varint indexes);
        only novel components are pickled, once per epoch. The
        receiver's :meth:`ChannelDecoder.decode` returns the list of
        (re-interned) worlds.
        """
        novel = []
        packed = bytearray()
        tt = self._threads_tab
        bt = self._bits_tab
        mt = self._mem_tab
        _pack_uint(packed, len(worlds))
        for w in worlds:
            ti = tt.get(w.threads)
            if ti is None:
                ti = len(tt)
                tt[w.threads] = ti
                novel.append(w.threads)
            bi = bt.get(w.bits)
            if bi is None:
                bi = len(bt)
                bt[w.bits] = bi
                novel.append(w.bits)
            mi = mt.get(w.mem)
            if mi is None:
                mi = len(mt)
                mt[w.mem] = mi
                novel.append(w.mem)
            _pack_uint(packed, ti)
            _pack_uint(packed, w.cur)
            _pack_uint(packed, bi)
            _pack_uint(packed, mi)
        return self.encode((_WORLDS_TAG, novel, bytes(packed)))


class ChannelDecoder:
    """The receiver half of one directed transport channel.

    Mirrors exactly one :class:`ChannelEncoder`: the persistent
    unpickler memo and the decoded base cache only stay consistent
    with the sender's if every message of the current epoch is decoded
    here, in order. The epoch protocol enforces that: a newer epoch on
    an incoming message (or an explicit :meth:`reset_to`) drops all
    state, an older epoch raises.
    """

    def __init__(self):
        _registered()
        self.epoch = 0
        self.resets = 0
        self._fresh()

    def _fresh(self):
        self._bases = {}
        # Packed-record component tables, mirroring the encoder's
        # (index -> component; the encoder assigns indexes densely).
        self._threads_list = []
        self._bits_list = []
        self._mem_list = []
        self._reader = _ChunkReader()
        self._unpickler = pickle.Unpickler(self._reader)

    def reset_to(self, epoch):
        """Adopt the sender's new epoch, dropping all channel state.

        Also the guard against mixed-up channels: an epoch older than
        the current one means a message from before a reset survived —
        decoding it against the fresh memo would silently resolve memo
        indexes to wrong objects, so it is refused loudly.
        """
        if epoch < self.epoch:
            raise SerializationError(
                "stale channel epoch {} (current {}): message from "
                "before a channel reset".format(epoch, self.epoch)
            )
        if epoch > self.epoch:
            self.epoch = epoch
            self.resets += 1
            self._fresh()

    # -- the receive path, used by the memory reducers ---------------

    def define_base(self, token, base_items, over_items):
        """A full memory send: rebuild the base locally (recomputing
        its Zobrist hash — never trusted from the wire), cache it
        under ``token``, and apply the overlay."""
        base = _memory.Memory(dict(base_items))
        self._bases[token] = base
        if not over_items:
            return base
        return self._rebase(base, over_items)

    def apply_delta(self, token, over_items):
        """A delta send against a previously-registered base."""
        base = self._bases.get(token)
        if base is None:
            raise SerializationError(
                "memory delta references unknown base #{} (channel "
                "out of sync: was a reset message lost?)".format(token)
            )
        if not over_items:
            return base
        return self._rebase(base, over_items)

    @staticmethod
    def _rebase(base, over_items):
        base_dict, _ = base.delta_parts()
        return _memory.Memory.rebase(
            base_dict, len(base), hash(base), over_items
        )

    def decode(self, epoch, data):
        """Decode one message, checking epoch, version and seed probe."""
        from repro import obs

        global _CURRENT_DECODER
        self.reset_to(epoch)
        track = obs.enabled
        if track:
            t0 = time.monotonic()
        self._reader.set(data)
        _CURRENT_DECODER = self
        try:
            version, probe, payload = self._unpickler.load()
        except SerializationError:
            raise
        except Exception as exc:
            raise SerializationError(
                "cannot decode batch: {}".format(exc)
            ) from exc
        finally:
            _CURRENT_DECODER = None
            self._reader.set(b"")
        if track:
            obs.inc("serialize.decode.calls")
            obs.inc("serialize.decode.bytes", len(data))
            obs.observe(
                "serialize.decode.seconds", time.monotonic() - t0
            )
        if version != SERIAL_SCHEMA_VERSION:
            raise SerializationError(
                "unsupported batch schema version {!r} (expected {})".format(
                    version, SERIAL_SCHEMA_VERSION
                )
            )
        if probe != _SEED_PROBE:
            raise SerializationError(
                "hash-seed mismatch: batch was encoded under a different "
                "string-hash seed (batches are transport-only; use forked "
                "workers or pin PYTHONHASHSEED)"
            )
        if (
            type(payload) is tuple
            and len(payload) == 3
            and payload[0] == _WORLDS_TAG
        ):
            return self._expand_worlds(payload[1], payload[2])
        return payload

    def _expand_worlds(self, novel, packed):
        """Rebuild a packed world batch against the component tables.

        Replays the encoder's assignment discipline: a varint index
        equal to the current table size consumes the next item of the
        ``novel`` list into that table; anything beyond it means the
        channel ends are out of sync.
        """
        from repro.semantics.world import World

        tl = self._threads_list
        bl = self._bits_list
        ml = self._mem_list
        it = iter(novel)

        def resolve(idx, table):
            if idx == len(table):
                try:
                    table.append(next(it))
                except StopIteration:
                    raise SerializationError(
                        "packed world record exhausted its novel "
                        "components (channel out of sync)"
                    ) from None
            elif idx > len(table):
                raise SerializationError(
                    "packed world record references component #{} "
                    "beyond the channel table ({} entries): channel "
                    "out of sync".format(idx, len(table))
                )
            return table[idx]

        count, pos = _read_uint(packed, 0)
        out = []
        for _ in range(count):
            ti, pos = _read_uint(packed, pos)
            cur, pos = _read_uint(packed, pos)
            bi, pos = _read_uint(packed, pos)
            mi, pos = _read_uint(packed, pos)
            out.append(
                World.make(
                    resolve(ti, tl),
                    cur,
                    resolve(bi, bl),
                    resolve(mi, ml),
                )
            )
        return out


# ----- the one-shot batch envelope ------------------------------------------


def encode_batch(payload):
    """Pickle ``payload`` into one self-contained versioned batch.

    A throwaway channel: memories still delta-encode *within* the
    batch (two worlds sharing a base ship it once), but no state
    survives the call. The paired :func:`decode_batch` is the only
    valid decoder.
    """
    _epoch, data = ChannelEncoder().encode(payload)
    return data


def decode_batch(data):
    """Decode a one-shot batch, checking the version tag and the seed
    probe."""
    return ChannelDecoder().decode(0, data)


def roundtrip(value):
    """Encode then decode one value (the test hook)."""
    return decode_batch(encode_batch(value))


# ----- the persistent document envelope -------------------------------------

#: Version tag of persistent JSON *document* envelopes (fuzz campaign
#: checkpoints and similar on-disk state). Distinct from
#: :data:`SERIAL_SCHEMA_VERSION` on purpose: batches are transport-only
#: pickles guarded by a hash-seed probe, while documents must be
#: durable across interpreter launches — JSON-only payloads, no seed
#: dependence, no pickle.
DOC_SCHEMA_VERSION = 1


def wrap_document(kind, payload):
    """Wrap a JSON-safe ``payload`` in the versioned document envelope.

    ``kind`` self-describes the artifact (``repro inspect`` sniffs it),
    mirroring the witness artifact's schema discipline. The caller owns
    the atomic write (:func:`repro.obs.status.write_atomic`).
    """
    return {
        "type": str(kind),
        "version": DOC_SCHEMA_VERSION,
        "payload": payload,
    }


def unwrap_document(doc, kind):
    """The payload of a document envelope, after type/version checks.

    Raises :class:`SerializationError` on a foreign or future artifact
    — a resumed campaign must refuse a checkpoint it cannot faithfully
    interpret rather than silently re-running (or skipping) work.
    """
    if not isinstance(doc, dict) or doc.get("type") != kind:
        raise SerializationError(
            "not a {!r} document (type={!r})".format(
                kind, doc.get("type") if isinstance(doc, dict) else None
            )
        )
    version = doc.get("version")
    if version != DOC_SCHEMA_VERSION:
        raise SerializationError(
            "unsupported {} document version {!r} (expected {})".format(
                kind, version, DOC_SCHEMA_VERSION
            )
        )
    return doc.get("payload")
