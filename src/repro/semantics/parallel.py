"""Process-parallel frontier-sharded exploration.

The sequential explorer (:mod:`repro.semantics.explore`) is a single
Python process; on the suite's larger workloads the expansion loop is
the cost center of every whole-program property. This module runs the
same reachability computation across ``jobs`` forked worker processes
with a *hash-partitioned frontier*, in the style of classic distributed
model checking (Stern–Dill): every world is **owned** by the worker
whose shard index matches its (incremental, hash-consed) hash —
``hash(world) % jobs`` — so no two workers ever expand the same
full-expansion state, and the dedup table is sharded for free.

* Workers expand the worlds they own with the *identical* successor
  machinery the sequential explorer uses, streaming ``(world, kind,
  edges)`` records back to the coordinator and batching cross-shard
  successors to their owners over **stateful channels**
  (:mod:`repro.common.serialize` — versioned envelope, hash-seed
  probe). Each worker keeps one long-lived
  :class:`~repro.common.serialize.ChannelEncoder` per destination
  shard (plus one for its record stream to the coordinator) and one
  :class:`~repro.common.serialize.ChannelDecoder` per source, so
  hash-consed frames, cores and code containers cross each channel
  once, memories delta-encode against per-channel base caches, and
  the static fork-inherited segment (modules, functions, initial
  worlds — pinned by the coordinator before forking) never crosses at
  all. Channel state is bounded by an epoch protocol: an over-budget
  sender resets its channel and sends a ``reset`` control message
  (FIFO queues order it before the next batch); every data message
  carries its epoch, the receiver re-syncs forward and rejects stale
  epochs. The per-destination ``sent`` memo (which worlds already
  crossed) lives on the encoder and is dropped by the same resets, so
  nothing about a channel grows without bound.
* The coordinator merges the per-shard records into one
  :class:`~repro.semantics.explore.StateGraph` by a **deterministic
  canonical BFS** from the initial worlds in recorded successor-list
  order. Without reduction this replays exactly the traversal
  ``_explore_full`` performs, so the merged graph is *identical* —
  same state numbering, edge lists, ``done``/``stuck`` sets — and
  behaviour sets, race verdicts and state fingerprints match the
  sequential explorer's by construction, not just extensionally.
* **POR composes** (design: worker-local region DFS). Ample decisions
  are per-world (:meth:`repro.semantics.por.AmpleReducer.decide` needs
  no cross-shard state); a worker descends ample successors *locally*
  in a DFS with the on-stack cycle proviso and only hash-routes
  full-expansion successors. Soundness of the proviso: for a merged
  all-ample cycle, every worker that recorded one of its states must
  have recorded (and locally descended) all of them — the merge
  prefers ``full`` records over ``ample`` — so the standard
  single-DFS back-edge argument applies within that worker, a
  contradiction. Regions reachable from several shards are expanded
  at most once per worker (≤ ``jobs`` duplicates), which is the price
  of coordination-free ample decisions.
* **Fused race detection composes.** Each worker runs its own
  :class:`~repro.semantics.race._RaceChecker` (observer closures
  cannot cross the process boundary); the first witness reaching the
  coordinator broadcasts a halt to all workers, and witness capture
  (:mod:`repro.semantics.witness`) re-walks the merged graph under
  the full semantics exactly as in the sequential path. The race
  *verdict* is deterministic; which witness is reported first is not
  (the sequential explorer's witness choice is a schedule artifact
  too).

Differences from the sequential explorer, by design:

* ``max_states`` bounds the number of *expansions* through a shared
  counter instead of the discovered-state count. Without reduction
  the truncation condition is the same (truncate iff the reachable
  set exceeds the bound); under POR, duplicate region expansions can
  consume budget faster. A world cut by the bound is recorded as
  truncated *itself* (the sequential explorer marks the parent), so
  ``cut`` behaviours still appear at the boundary.
* **Observability composes across the fork.** Each worker resets the
  inherited obs state (the parent's sinks must not be written from
  two processes), then re-enables a *private* registry when the
  parent collects metrics and a *per-worker* trace file
  (``<trace>.w<wid>``, every record stamped with a ``wid`` attr) when
  the parent traces to a path — concurrent workers can never
  interleave JSONL lines into one file. Workers meter their own
  phases (``parallel.worker.{expand,encode,decode,idle,wall}_seconds``
  histograms), wire costs (``parallel.wire.*`` bytes, batch-size and
  per-world-size histograms, send-memo hit rate) and everything the
  shared engine instrumentation records, and ship their **entire**
  metrics snapshot to the coordinator in the ``bye`` message; the
  coordinator folds the dumps in generically
  (:meth:`~repro.obs.metrics.MetricsRegistry.merge` — counters add,
  gauges max, histograms merge), so a new worker-side metric needs no
  coordinator change. Coordinator-side costs surface as the
  ``parallel.merge`` span and the ``parallel.merge_seconds`` /
  ``parallel.idle_seconds`` gauges (durations are gauges, not
  integer-minded counters).

Workers are **forked**, never spawned: the string-hash seed is
inherited, which is what makes ``hash(world) % jobs`` agree across
processes (the serialize envelope's seed probe double-checks this).
Platforms without ``fork`` fall back to the sequential explorer.

Termination uses cumulative message counters (a Mattern-style
four-counter scheme): a worker going idle reports how many batches it
has sent to each peer and received in total; the coordinator halts
when every worker's latest report is idle and, for every shard, the
batches sent to it (by the coordinator's seeding plus all peers)
equal the batches it has received.
"""

import multiprocessing
import os
import time
import traceback
from collections import deque
from queue import Empty

from repro import obs
from repro.obs import heap as _heap
from repro.obs import status as _status
from repro.common.serialize import (
    ENV_STATELESS,
    ChannelDecoder,
    ChannelEncoder,
    clear_static_table,
    collect_static_objects,
    install_static_table,
)
from repro.semantics.engine import GAbort
from repro.semantics.explore import (
    ABORT_DST,
    Behaviour,
    ExplorationLimit,
    StateGraph,
)
from repro.semantics.nonpreemptive import NonPreemptiveSemantics
from repro.semantics.por import AmpleReducer
from repro.semantics.race import RaceWitness, _RaceChecker
from repro.semantics.world import reset_intern_tables

#: Environment variable the CLI's ``--jobs`` defaults from.
ENV_JOBS = "REPRO_JOBS"

#: Cross-shard worlds per batch message.
_BATCH_WORLDS = 128

#: Expansion records per flush to the coordinator.
_REC_BATCH = 256

#: Coordinator receive timeout (liveness check cadence), seconds.
#: With a heartbeat active the coordinator shortens this to the beat
#: interval so shard merges stay fresh.
_GET_TIMEOUT = 15.0

#: After a halt broadcast: how long a worker may go without either
#: sending its bye or advancing the shared state counter before the
#: coordinator declares it wedged and terminates it. Generous — the
#: only post-halt work is flushing records — but finite: a worker
#: stuck on a torn queue message must fail the run loudly, not hang
#: it forever.
_HALT_GRACE = 30.0

#: How long an exiting worker keeps draining its own inbox after its
#: bye, so peers' queue feeder threads can finish in-flight writes
#: (see ``_drain_inbox``).
_EXIT_DRAIN = 1.0

#: Worker-loop iterations between heartbeat clock checks (mirrors
#: ``explore._HB_STRIDE``).
_HB_STRIDE = 64

# Record kinds. Ranked so the merge can prefer the more-expanded
# record when duplicate POR regions meet: a full expansion beats an
# ample one (which is what keeps the cycle proviso intact after the
# merge), and anything beats a budget cut.
_FULL = "full"
_AMPLE = "ample"
_DONE = "done"
_STUCK = "stuck"
_CUT = "cut"
_RANK = {_CUT: 0, _AMPLE: 1, _FULL: 2, _DONE: 2, _STUCK: 2}


def available():
    """True iff the platform can fork workers (see module docstring)."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_jobs(environ=None):
    """The ``REPRO_JOBS`` default for the CLI's ``--jobs`` (min 1)."""
    env = os.environ if environ is None else environ
    value = env.get(ENV_JOBS)
    if value is None:
        return 1
    try:
        n = int(value.strip())
    except ValueError:
        return 1
    return max(1, n)


class _Limit(Exception):
    """Worker-internal: the shared expansion budget is exhausted."""


class _Budget:
    """Shared expansion budget (one unit per recorded expansion).

    Chunk size 1: a worker never holds unused budget, so without
    reduction the truncation condition coincides exactly with the
    sequential explorer's (truncate iff reachable > ``max_states``).
    """

    __slots__ = ("counter", "limit")

    def __init__(self, counter, limit):
        self.counter = counter
        self.limit = limit

    def take(self):
        counter = self.counter
        with counter.get_lock():
            if counter.value >= self.limit:
                return False
            counter.value += 1
        return True


class _Worker:
    """One shard: owns the worlds hashing to its index and expands them."""

    def __init__(self, wid, jobs, ctx, semantics, cfg, counter, inboxes,
                 coord_q):
        self.wid = wid
        self.jobs = jobs
        self.ctx = ctx
        self.semantics = semantics
        self.successors = semantics.successors
        self.use_por = cfg["use_por"]
        self.strict = cfg["strict"]
        self.max_states = cfg["max_states"]
        self.budget = _Budget(counter, cfg["max_states"])
        self.inboxes = inboxes
        self.coord_q = coord_q
        self.reducer = AmpleReducer() if self.use_por else None
        race = cfg["race"]
        if race is None:
            self.checker = None
        else:
            quantum, max_atomic_steps = race
            self.checker = _RaceChecker(ctx, quantum, max_atomic_steps)
            # Workers run with obs disabled; keep the checker's plain
            # accounting on so the coordinator can publish the sums.
            self.checker.track = True
        self.recorded = set()
        self.pending = deque()
        self.pending_set = set()
        self.outboxes = [[] for _ in range(jobs)]
        # One stateful channel per destination shard (the one indexed
        # by our own wid stays idle), one for the record stream to the
        # coordinator, and one decoder per source (created lazily;
        # src -1 is the coordinator's seed batch).
        self.channels = [ChannelEncoder() for _ in range(jobs)]
        self.rec_channel = ChannelEncoder()
        self.decoders = {}
        self.recs = []
        self.sent = [0] * jobs
        self.recv = 0
        self.halted = False
        self.racing = False
        self.idle_seconds = 0.0
        self.cross_worlds = 0
        self.batches_out = 0
        # Phase/wire accounting. ``timed`` hoists the obs check once:
        # with observability off the loop must stay clock-read free.
        self.timed = obs.enabled
        self.expand_seconds = 0.0
        self.encode_seconds = 0.0
        self.decode_seconds = 0.0
        self.bytes_out = 0
        self.bytes_in = 0
        self.rec_bytes = 0
        self.memo_hits = 0
        self.memo_sends = 0

    # -- plumbing ----------------------------------------------------

    def record(self, world, kind, edges):
        self.recorded.add(world)
        self.recs.append((world, kind, edges))
        if len(self.recs) >= _REC_BATCH:
            self.flush_recs()

    def flush_recs(self):
        if not self.recs:
            return
        # The coordinator never sends back, so no reset control
        # message is needed here: the epoch riding on the next batch
        # triggers the implicit decoder reset.
        ch = self.rec_channel
        if ch.over_budget():
            ch.reset()
        # The encode window covers the queue put too: handing the
        # batch to the feeder thread is part of shipping it.
        if self.timed:
            t0 = time.monotonic()
            epoch, data = ch.encode(self.recs)
            self.rec_bytes += len(data)
            self.coord_q.put(("rec", self.wid, epoch, data))
            self.encode_seconds += time.monotonic() - t0
        else:
            epoch, data = ch.encode(self.recs)
            self.coord_q.put(("rec", self.wid, epoch, data))
        self.recs = []

    def flush_box(self, shard):
        box = self.outboxes[shard]
        if not box:
            return
        ch = self.channels[shard]
        if ch.over_budget():
            # Bound the channel: drop the pickler memo, base cache and
            # send memo, and tell the receiver before the next batch
            # (the FIFO queue orders the reset ahead of it). The memo
            # for this box's worlds is gone, so re-mark them sent.
            ch.reset()
            self.inboxes[shard].put(("reset", self.wid, ch.epoch))
            ch.sent.update(box)
        if self.timed:
            t0 = time.monotonic()
            epoch, data = ch.encode_worlds(box)
            self.bytes_out += len(data)
            obs.observe("parallel.wire.batch_worlds", len(box))
            obs.observe("parallel.wire.batch_bytes", len(data))
            obs.observe(
                "parallel.wire.world_bytes", len(data) / len(box)
            )
            self.inboxes[shard].put(("w", self.wid, epoch, data))
            self.encode_seconds += time.monotonic() - t0
        else:
            epoch, data = ch.encode_worlds(box)
            self.inboxes[shard].put(("w", self.wid, epoch, data))
        self.sent[shard] += 1
        self.batches_out += 1
        self.cross_worlds += len(box)
        self.outboxes[shard] = []

    def flush_boxes(self):
        for shard in range(self.jobs):
            self.flush_box(shard)

    def enqueue_local(self, world):
        if world not in self.recorded and world not in self.pending_set:
            self.pending_set.add(world)
            self.pending.append(world)

    def route(self, world):
        """Send a full-expansion successor to its owner (or queue it)."""
        shard = hash(world) % self.jobs
        if shard == self.wid:
            self.enqueue_local(world)
            return
        cache = self.channels[shard].sent
        if world in cache:
            # The send memo: this world already crossed to that shard,
            # so the envelope (encode + enqueue + decode) is saved.
            # Lives on the channel — a reset drops it with the rest.
            self.memo_hits += 1
            return
        cache.add(world)
        self.memo_sends += 1
        box = self.outboxes[shard]
        box.append(world)
        if len(box) >= _BATCH_WORLDS:
            self.flush_box(shard)

    def charge(self):
        if self.budget.take():
            return True
        if self.strict:
            raise _Limit(
                "state bound {} exceeded".format(self.max_states)
            )
        return False

    def report_race(self):
        witness = self.checker.witness
        self.flush_recs()
        payload = (
            witness.world, witness.tid1, witness.fp1, witness.bit1,
            witness.tid2, witness.fp2, witness.bit2,
        )
        # Same channel as the records: the coordinator decodes both
        # message kinds through its per-worker record decoder.
        epoch, data = self.rec_channel.encode(payload)
        self.coord_q.put(("race", self.wid, epoch, data))
        self.racing = True

    # -- the loop ----------------------------------------------------

    def decoder(self, src):
        """The stateful decoder mirroring ``src``'s encoder for us
        (``src == -1``: the coordinator's seed channel)."""
        dec = self.decoders.get(src)
        if dec is None:
            dec = self.decoders[src] = ChannelDecoder()
        return dec

    def handle(self, msg):
        kind = msg[0]
        if kind == "w":
            self.recv += 1
            src, epoch, data = msg[1], msg[2], msg[3]
            # The decode window covers the dedup/enqueue of the
            # decoded worlds: unpacking a batch isn't done until its
            # worlds are in the pending queue.
            if self.timed:
                t0 = time.monotonic()
                worlds = self.decoder(src).decode(epoch, data)
                for world in worlds:
                    self.enqueue_local(world)
                self.decode_seconds += time.monotonic() - t0
                self.bytes_in += len(data)
            else:
                worlds = self.decoder(src).decode(epoch, data)
                for world in worlds:
                    self.enqueue_local(world)
        elif kind == "reset":
            # Control message, uncounted on both ends (the Mattern
            # balance tracks data batches only): the sender reset its
            # channel; drop our mirror state before its next batch.
            self.decoder(msg[1]).reset_to(msg[2])
        elif kind == "halt":
            # Outboxes are dropped (nobody will drain them); records
            # must flow — the witness path is rebuilt from them.
            self.flush_recs()
            self.halted = True

    def _idle_get(self, inbox, hb):
        """Blocking receive that keeps the shard heartbeat alive.

        Without a heartbeat this is a plain ``get()``. With one, the
        wait wakes once per beat interval to stamp ``phase: idle`` —
        an idle shard and a dead shard must look different to
        ``repro status``.
        """
        if hb is None:
            return inbox.get()
        while True:
            try:
                msg = inbox.get(timeout=max(hb.interval, 0.05))
            except Empty:
                hb.force(
                    states=len(self.recorded), frontier=0,
                    phase="idle",
                )
                continue
            hb.update(phase="expand")
            return msg

    def run(self):
        inbox = self.inboxes[self.wid]
        timed = self.timed
        hb = _status.writer
        if hb is not None:
            hb.update(phase="expand", jobs=self.jobs)
        hb_left = _HB_STRIDE if hb is not None else -1
        while not self.halted:
            hb_left -= 1
            if hb_left == 0:
                hb_left = _HB_STRIDE
                hb.beat(
                    states=len(self.recorded),
                    frontier=len(self.pending),
                )
            while True:
                # The poll itself is decode time: checking for
                # incoming batches is part of receiving them, and one
                # poll per expansion adds up over large runs.
                if timed:
                    t0 = time.monotonic()
                    try:
                        msg = inbox.get_nowait()
                    except Empty:
                        self.decode_seconds += time.monotonic() - t0
                        break
                    self.decode_seconds += time.monotonic() - t0
                else:
                    try:
                        msg = inbox.get_nowait()
                    except Empty:
                        break
                self.handle(msg)
                if self.halted:
                    return
            if self.pending and not self.racing:
                world = self.pending.popleft()
                self.pending_set.discard(world)
                if self.timed:
                    # Expansion time excludes the encodes it triggers
                    # (full outboxes flush mid-expansion), so the
                    # expand/encode phases stay disjoint and sum
                    # cleanly against wall-clock.
                    t0 = time.monotonic()
                    enc0 = self.encode_seconds
                    self.expand(world)
                    self.expand_seconds += (
                        time.monotonic() - t0
                        - (self.encode_seconds - enc0)
                    )
                else:
                    self.expand(world)
                continue
            # Idle: flush everything first so the counters reported
            # below cover every batch actually handed to a queue.
            self.flush_boxes()
            self.flush_recs()
            # Announcing idleness to the coordinator is idle time.
            t0 = time.monotonic()
            self.coord_q.put(
                ("idle", self.wid, tuple(self.sent), self.recv)
            )
            if self.timed:
                # The blocking wait as a span: the profiler's
                # utilization timeline is built from these intervals.
                with obs.span("parallel.worker.idle"):
                    msg = self._idle_get(inbox, hb)
            else:
                msg = self._idle_get(inbox, hb)
            self.idle_seconds += time.monotonic() - t0
            self.handle(msg)

    def expand(self, world):
        if world in self.recorded:
            return
        if self.use_por:
            self.expand_reduced(world)
        else:
            self.expand_full(world)

    def expand_full(self, world):
        """Mirror of ``_explore_full``'s per-state work, routed."""
        if not self.charge():
            self.record(world, _CUT, ())
            return
        if world.is_done():
            self.record(world, _DONE, ())
            return
        if self.checker is not None and self.checker(world, None):
            self.report_race()
            return
        outs = self.successors(self.ctx, world)
        if not outs:
            self.record(world, _STUCK, ())
            return
        edges = []
        for out in outs:
            if isinstance(out, GAbort):
                edges.append((Behaviour.ABORT, None))
                continue
            edges.append((out.label, out.world))
            self.route(out.world)
        self.record(world, _FULL, edges)

    def expand_reduced(self, seed):
        """Region DFS: ample successors stay local (cycle proviso per
        worker — see the module docstring for the soundness argument);
        full-expansion successors are hash-routed to their owners."""
        decide = self.reducer.decide
        on_stack = set()
        stack = [[seed, None]]
        while stack:
            entry = stack[-1]
            world = entry[0]
            it = entry[1]
            if it is not None:
                nxt = next(it, None)
                if nxt is None:
                    on_stack.discard(world)
                    stack.pop()
                elif nxt not in self.recorded:
                    stack.append([nxt, None])
                continue
            if world in self.recorded:
                stack.pop()
                continue
            if not self.charge():
                self.record(world, _CUT, ())
                stack.pop()
                continue
            if world.is_done():
                self.record(world, _DONE, ())
                stack.pop()
                continue
            on_stack.add(world)
            outs, results, ample = decide(self.ctx, world)
            if self.checker is not None and self.checker(world, outs):
                self.report_race()
                return
            if ample:
                dests = []
                for res in results:
                    if res.world in on_stack:
                        # Cycle proviso (C3): this reduction would
                        # close a cycle of reduced states.
                        ample = False
                        self.reducer.proviso_expansions += 1
                        break
                    dests.append(res.world)
            if ample:
                pruned = len(world.live_threads()) - 1
                if pruned > 0:
                    self.reducer.ample_worlds += 1
                    self.reducer.steps_avoided += pruned
                else:
                    self.reducer.full_expansions += 1
                self.record(
                    world, _AMPLE, tuple((None, d) for d in dests)
                )
                entry[1] = iter(dests)
                continue
            self.reducer.full_expansions += 1
            outs_full = self.successors(
                self.ctx, world, thread_results=results
            )
            if not outs_full:
                self.record(world, _STUCK, ())
                on_stack.discard(world)
                stack.pop()
                continue
            edges = []
            for out in outs_full:
                if isinstance(out, GAbort):
                    edges.append((Behaviour.ABORT, None))
                    continue
                edges.append((out.label, out.world))
                self.route(out.world)
            self.record(world, _FULL, edges)
            on_stack.discard(world)
            stack.pop()

    def wire_stats(self):
        """Delta-transport totals summed over this worker's encoders
        (per-shard channels plus the record channel)."""
        chans = self.channels + [self.rec_channel]
        return {
            "delta_hits": sum(c.delta_hits for c in chans),
            "full_sends": sum(c.full_sends for c in chans),
            "base_registrations": sum(
                c.base_registrations for c in chans
            ),
            "channel_resets": sum(c.resets for c in chans),
        }

    def stats(self):
        out = {
            "states": len(self.recorded),
            "cross_worlds": self.cross_worlds,
            "batches": self.batches_out,
            "idle_seconds": round(self.idle_seconds, 6),
            "expand_seconds": round(self.expand_seconds, 6),
            "encode_seconds": round(self.encode_seconds, 6),
            "decode_seconds": round(self.decode_seconds, 6),
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
            "rec_bytes": self.rec_bytes,
            "memo_hits": self.memo_hits,
            "memo_sends": self.memo_sends,
        }
        out.update(self.wire_stats())
        if self.reducer is not None:
            out["ample_worlds"] = self.reducer.ample_worlds
            out["full_expansions"] = self.reducer.full_expansions
            out["proviso_expansions"] = self.reducer.proviso_expansions
            out["steps_avoided"] = self.reducer.steps_avoided
        if self.checker is not None:
            out["race_worlds_checked"] = self.checker.worlds_checked
            out["race_predictions"] = self.checker.predictions
            out["race_pairs_checked"] = self.checker.pairs_checked
            out["race_memo_hits"] = self.checker._memo_hits
        return out

    def publish_metrics(self, wall_seconds):
        """Record this worker's complete accounting in its *own*
        registry; the coordinator absorbs the resulting dump through
        the generic merge, so everything here (and anything the shared
        engine instrumentation recorded while expanding) surfaces in
        the parent without per-counter plumbing."""
        if not obs.metrics_enabled():
            return
        obs.inc("parallel.batches", self.batches_out)
        obs.inc("parallel.cross_edges", self.cross_worlds)
        obs.inc("parallel.worker.states", len(self.recorded))
        obs.inc("parallel.wire.bytes_out", self.bytes_out)
        obs.inc("parallel.wire.bytes_in", self.bytes_in)
        obs.inc("parallel.wire.rec_bytes", self.rec_bytes)
        obs.inc("parallel.wire.memo_hits", self.memo_hits)
        obs.inc("parallel.wire.memo_sends", self.memo_sends)
        for key, value in self.wire_stats().items():
            obs.inc("parallel.wire.{}".format(key), value)
        obs.observe("parallel.worker.wall_seconds", wall_seconds)
        obs.observe(
            "parallel.worker.expand_seconds", self.expand_seconds
        )
        obs.observe(
            "parallel.worker.encode_seconds", self.encode_seconds
        )
        obs.observe(
            "parallel.worker.decode_seconds", self.decode_seconds
        )
        obs.observe("parallel.worker.idle_seconds", self.idle_seconds)
        if self.reducer is not None:
            obs.inc("por.ample_worlds", self.reducer.ample_worlds)
            obs.inc(
                "por.full_expansions", self.reducer.full_expansions
            )
            obs.inc(
                "por.proviso_expansions",
                self.reducer.proviso_expansions,
            )
            obs.inc("por.steps_avoided", self.reducer.steps_avoided)
        if self.checker is not None:
            obs.inc(
                "race.worlds_checked", self.checker.worlds_checked
            )
            obs.inc("race.predictions", self.checker.predictions)
            obs.inc("race.pairs_checked", self.checker.pairs_checked)
            obs.inc(
                "race.prediction_memo_hits", self.checker._memo_hits
            )

    def phases(self):
        """The per-shard phase/wire numbers, for the trace event the
        profiler's phase-breakdown table is built from."""
        out = {
            "expand_seconds": round(self.expand_seconds, 6),
            "encode_seconds": round(self.encode_seconds, 6),
            "decode_seconds": round(self.decode_seconds, 6),
            "idle_seconds": round(self.idle_seconds, 6),
            "states": len(self.recorded),
            "batches": self.batches_out,
            "cross_worlds": self.cross_worlds,
            "bytes_out": self.bytes_out,
            "bytes_in": self.bytes_in,
            "rec_bytes": self.rec_bytes,
            "memo_hits": self.memo_hits,
            "memo_sends": self.memo_sends,
        }
        out.update(self.wire_stats())
        return out


def _configure_worker_obs(wid, cfg):
    """Reset fork-inherited obs state, then re-enable private sinks.

    The fork inherited the parent's obs state; its sinks (trace file
    descriptors, the metrics registry) belong to the parent process.
    Reset, then re-enable a *private* registry when the parent
    collects metrics, and a *per-worker* trace file when the parent
    traces to a path — never the parent's sink. An unwritable worker
    trace must not kill the search — and must not silently discard the
    worker's *metrics* with it: retry with the trace disabled so the
    worker stays metered, and warn once.
    """
    obs.reset()
    # Same fork rule for the heartbeat: the inherited parent writer
    # points at the main status file; replace it with this shard's own
    # ``FILE.w<wid>`` writer (the coordinator merges the shard files).
    _status.reset()
    status_path = cfg.get("status_path")
    if status_path:
        _status.configure(
            _status.shard_path(status_path, wid),
            interval=cfg.get("status_interval"),
            wid=wid,
        )
    trace_path = cfg.get("trace_path")
    if trace_path:
        trace_path = "{}.w{}".format(trace_path, wid)
    metrics = cfg.get("metrics", False)
    if not (metrics or trace_path):
        return
    try:
        obs.configure(
            metrics=metrics,
            trace=trace_path,
            trace_base_attrs={"wid": wid},
        )
    except OSError as exc:
        obs.reset()
        if metrics:
            obs.configure(metrics=True)
        obs.warn(
            "worker {} trace file {!r} is unwritable ({}); continuing "
            "metered, without a trace".format(wid, trace_path, exc),
            wid=wid,
        )


def _drain_inbox(inbox, deadline):
    """Keep reading (and discarding) the inbox until it goes quiet.

    An exiting worker must not stop reading the instant it halts:
    peers' queue feeder threads may still be mid-write into this pipe
    (uncounted reset control messages, or batches dropped by a
    race/err halt), and a process exit on the *writer* side kills its
    feeder mid-message — leaving a torn record that would block this
    reader's next ``recv`` forever. Draining until the pipe is quiet
    lets those feeders complete, so nobody ever tears a message into a
    live reader. Bounded by ``deadline`` as a backstop; a torn message
    already in the pipe surfaces as a blocked ``get`` that the
    coordinator's post-halt watchdog resolves by terminating us.
    """
    while time.monotonic() < deadline:
        try:
            inbox.get(timeout=0.05)
        except Empty:
            return
        except (OSError, EOFError, ValueError):
            return


def _worker_main(wid, jobs, ctx, semantics, cfg, counter, inboxes,
                 coord_q):
    _configure_worker_obs(wid, cfg)
    t0 = time.monotonic()
    worker = _Worker(
        wid, jobs, ctx, semantics, cfg, counter, inboxes, coord_q
    )
    with obs.span("parallel.worker.run", wid=wid):
        try:
            worker.run()
        except _Limit as exc:
            coord_q.put(("err", wid, ("limit", str(exc))))
        except BaseException:
            coord_q.put(
                ("err", wid, ("crash", traceback.format_exc()))
            )
    stats = worker.stats()
    stats["wall_seconds"] = round(time.monotonic() - t0, 6)
    worker.publish_metrics(stats["wall_seconds"])
    if obs.trace_enabled():
        obs.event(
            "parallel.worker.phases",
            wall_seconds=stats["wall_seconds"],
            **worker.phases()
        )
    metrics_dump = obs.dump()
    if metrics_dump is not None:
        stats["metrics"] = metrics_dump
    # Final shard beat before the bye: the merged status must show this
    # worker's full state count and ``phase: done``, not a stale beat.
    if _status.writer is not None:
        _status.writer.force(
            states=len(worker.recorded), frontier=0
        )
    _status.finalize()
    coord_q.put(("bye", wid, stats))
    # Stay a reader a moment longer so peers' in-flight queue writes
    # complete instead of tearing (see ``_drain_inbox``).
    _drain_inbox(inboxes[wid], time.monotonic() + _EXIT_DRAIN)
    # Flush and close the per-worker sinks before the queues wind down.
    obs.shutdown()
    # Exit must not block on feeder threads draining batches into
    # queues of peers that have already halted; the coordinator queue
    # is NOT cancelled — the bye above has to arrive.
    for shard in range(jobs):
        if shard != wid:
            inboxes[shard].cancel_join_thread()


def _merge_record(records, world, kind, edges):
    old = records.get(world)
    if old is not None and _RANK[old[0]] >= _RANK[kind]:
        return
    records[world] = (kind, edges)


def _merge_graph(initial, records):
    """Canonical BFS over the merged records (see module docstring:
    without reduction this replays ``_explore_full`` exactly)."""
    graph = StateGraph()
    queue = deque()
    for world in initial:
        sid = graph.intern(world)
        graph.initial.append(sid)
        queue.append(sid)
    while queue:
        sid = queue.popleft()
        if sid in graph.edges:
            continue
        rec = records.get(graph.states[sid])
        if rec is None:
            # Unexpanded frontier world of an early halt; the
            # sequential halted graph leaves these edge-less too.
            continue
        kind, edges = rec
        if kind == _DONE:
            graph.done.add(sid)
            graph.edges[sid] = []
            continue
        if kind == _STUCK:
            graph.stuck.add(sid)
            graph.edges[sid] = []
            continue
        if kind == _CUT:
            graph.truncated.add(sid)
            graph.edges[sid] = []
            continue
        out = []
        for label, dst in edges:
            if dst is None:
                out.append((Behaviour.ABORT, ABORT_DST))
                continue
            dsid = graph.ids.get(dst)
            if dsid is None:
                dsid = graph.add(dst)
                queue.append(dsid)
            out.append((label, dsid))
        graph.edges[sid] = out
    return graph


def _run_parallel(ctx, semantics, jobs, max_states, strict, use_por,
                  race_cfg):
    """Coordinator: fork workers, seed shards, merge, terminate."""
    # Start from empty intern tables: worlds interned by a previous
    # run in this process — in particular a stateless-decode run whose
    # memories were rebuilt around private base dicts — would
    # otherwise become this run's canonical representatives and defeat
    # the wire encoder's id-matched delta cache (see
    # ``reset_intern_tables``). Must happen before
    # ``initial_worlds``, which interns.
    reset_intern_tables()
    mp_ctx = multiprocessing.get_context("fork")
    inboxes = [mp_ctx.Queue() for _ in range(jobs)]
    coord_q = mp_ctx.Queue()
    counter = mp_ctx.Value("l", 0)
    cfg = {
        "use_por": use_por,
        "strict": strict,
        "max_states": max_states,
        "race": race_cfg,
        # Worker-side observability: a private registry when the
        # parent meters, per-worker trace files when it traces to a
        # path (file-like sinks cannot be suffixed — workers then run
        # untraced).
        "metrics": obs.metrics_enabled(),
        "trace_path": obs.trace_path,
        # Heartbeat: workers derive their shard file from the main
        # status path (None when no heartbeat is active).
        "status_path": (
            _status.writer.path if _status.writer is not None else None
        ),
        "status_interval": (
            _status.writer.interval
            if _status.writer is not None
            else None
        ),
    }
    if obs.tracer is not None:
        # Empty the sink's userspace buffer before forking: children
        # inherit it, and a child GC-ing its copy would flush the same
        # bytes again into the shared descriptor (torn/duplicate JSONL
        # lines in the parent's trace).
        obs.tracer.flush()
    # The static segment must exist *before* forking: every worker
    # inherits the same table and resolves static refs against its own
    # pointer-identical copy. Stateless mode (the benchmark's "before"
    # baseline) runs without one.
    initial = list(semantics.initial_worlds(ctx))
    if os.environ.get(ENV_STATELESS):
        static_count = 0
    else:
        static_count = install_static_table(
            collect_static_objects(ctx, initial)
        )
    try:
        return _run_forked(
            ctx, semantics, jobs, max_states, mp_ctx, inboxes,
            coord_q, counter, cfg, initial, static_count,
        )
    finally:
        clear_static_table()


def _run_forked(ctx, semantics, jobs, max_states, mp_ctx,
                inboxes, coord_q, counter, cfg, initial, static_count):
    procs = []
    for wid in range(jobs):
        p = mp_ctx.Process(
            target=_worker_main,
            args=(wid, jobs, ctx, semantics, cfg, counter, inboxes,
                  coord_q),
            daemon=True,
        )
        p.start()
        procs.append(p)

    coord_sent = [0] * jobs
    seeds = [[] for _ in range(jobs)]
    for world in initial:
        seeds[hash(world) % jobs].append(world)
    for shard, worlds in enumerate(seeds):
        if worlds:
            # One-shot channel per shard: each worker's src -1 decoder
            # sees exactly one message from exactly one fresh encoder.
            epoch, data = ChannelEncoder().encode(worlds)
            inboxes[shard].put(("w", -1, epoch, data))
            coord_sent[shard] += 1

    # Stateful record decoders, one per worker (the mirror of each
    # worker's rec_channel; race payloads ride the same channel).
    rec_decoders = {}

    def rec_decoder(wid):
        dec = rec_decoders.get(wid)
        if dec is None:
            dec = rec_decoders[wid] = ChannelDecoder()
        return dec

    records = {}
    reports = {}
    byes = {}
    race_payload = None
    error = None
    halted = [False]
    track = obs.enabled
    coord_decode = 0.0

    # Post-halt watchdog state: when the halt went out, and the shared
    # state counter's value the last time it moved (progress resets
    # the grace clock — a worker legitimately finishing a long POR
    # region after a race halt must not be shot mid-flush).
    halt_watch = {"t": None, "count": None}

    def broadcast_halt():
        if not halted[0]:
            halted[0] = True
            halt_watch["t"] = time.monotonic()
            halt_watch["count"] = counter.value
            for q in inboxes:
                q.put(("halt",))

    def reap_wedged():
        """Terminate workers that neither bye nor progress after a
        halt. A worker blocked on a torn queue message (a peer died
        mid-write before the exit-drain discipline existed, or any
        other recv wedge) would otherwise never see the halt, and the
        run would wait for its bye forever."""
        nonlocal error
        if halt_watch["t"] is None:
            return
        current = counter.value
        if current != halt_watch["count"]:
            halt_watch["count"] = current
            halt_watch["t"] = time.monotonic()
            return
        if time.monotonic() - halt_watch["t"] <= _HALT_GRACE:
            return
        wedged = [
            wid for wid, p in enumerate(procs)
            if wid not in byes and p.is_alive()
        ]
        for wid in wedged:
            procs[wid].terminate()
            byes[wid] = None
        if wedged and error is None:
            error = (
                "crash",
                "worker(s) {} unresponsive {}s after halt; "
                "terminated".format(wedged, _HALT_GRACE),
            )

    def balanced():
        if len(reports) < jobs:
            return False
        for j in range(jobs):
            expect = coord_sent[j] + sum(
                reports[i][0][j] for i in range(jobs)
            )
            if reports[j][1] != expect:
                return False
        return True

    hb = _status.writer
    get_timeout = (
        _GET_TIMEOUT
        if hb is None
        else min(_GET_TIMEOUT, max(hb.interval, 0.05))
    )

    def merge_beat(phase="parallel"):
        if hb is not None and hb.due():
            _status.merge_shards(
                hb, jobs,
                alive={
                    wid: p.is_alive() for wid, p in enumerate(procs)
                },
                phase=phase,
            )

    try:
        while len(byes) < jobs:
            merge_beat()
            try:
                msg = coord_q.get(timeout=get_timeout)
            except Empty:
                dead = [
                    wid for wid, p in enumerate(procs)
                    if not p.is_alive() and wid not in byes
                ]
                if dead:
                    if error is None:
                        error = (
                            "crash",
                            "worker(s) {} died without reporting".format(
                                dead
                            ),
                        )
                    for wid in dead:
                        byes[wid] = None
                    broadcast_halt()
                reap_wedged()
                continue
            kind = msg[0]
            if kind == "rec":
                if track:
                    t0 = time.monotonic()
                    batch = rec_decoder(msg[1]).decode(msg[2], msg[3])
                    coord_decode += time.monotonic() - t0
                else:
                    batch = rec_decoder(msg[1]).decode(msg[2], msg[3])
                for world, k, edges in batch:
                    _merge_record(records, world, k, edges)
            elif kind == "race":
                payload = rec_decoder(msg[1]).decode(msg[2], msg[3])
                if race_payload is None:
                    race_payload = payload
                    broadcast_halt()
            elif kind == "idle":
                reports[msg[1]] = (msg[2], msg[3])
                if balanced():
                    broadcast_halt()
            elif kind == "err":
                if error is None:
                    error = msg[2]
                broadcast_halt()
            elif kind == "bye":
                byes[msg[1]] = msg[2]
    finally:
        # Reaping lives in the finally, not after it: a
        # KeyboardInterrupt (or any other exception) escaping the
        # message loop above must still halt, join and — as a last
        # resort — terminate every forked worker. Before this, Ctrl-C
        # propagated past the halt broadcast and leaked live workers
        # to init.
        broadcast_halt()
        for p in procs:
            p.join(timeout=10)
        for p in procs:
            # A worker that survived its join timeout is wedged (e.g.
            # blocked on a torn queue read); it must not outlive the
            # run.
            if p.is_alive():
                p.terminate()
                p.join(timeout=5)
        for q in inboxes:
            q.cancel_join_thread()
            q.close()
        coord_q.close()

    if error is not None:
        kind, detail = error
        if kind == "limit":
            raise ExplorationLimit(detail)
        raise RuntimeError(
            "parallel exploration failed: {}".format(detail)
        )

    if track:
        with obs.span("parallel.merge", shards=jobs) as sp:
            t0 = time.monotonic()
            graph = _merge_graph(initial, records)
            merge_seconds = coord_decode + time.monotonic() - t0
            sp.set(
                states=graph.state_count(),
                decode_seconds=round(coord_decode, 6),
            )
    else:
        graph = _merge_graph(initial, records)
        merge_seconds = 0.0
    witness = None
    if race_payload is not None:
        world, t1, fp1, b1, t2, fp2, b2 = race_payload
        witness = RaceWitness(world, t1, fp1, b1, t2, fp2, b2)
        graph.halted = True
        graph.halted_sid = graph.ids.get(world)
    if graph.truncated:
        obs.inc("explore.truncated_states", len(graph.truncated))
        obs.warn(
            "parallel exploration truncated at {} expansions ({} "
            "state(s) cut); behaviours may include 'cut'".format(
                max_states, len(graph.truncated)
            ),
            max_states=max_states,
            truncated=len(graph.truncated),
        )
    stats = [byes.get(wid) or {} for wid in range(jobs)]
    _publish(jobs, coord_sent, stats, graph, merge_seconds,
             static_count)
    if hb is not None:
        # Unconditional final merge: every shard's last (forced) beat
        # plus liveness, then the merged graph's true state count.
        _status.merge_shards(
            hb, jobs,
            alive={wid: p.is_alive() for wid, p in enumerate(procs)},
            phase="merged",
        )
        hb.force(states=graph.state_count(), frontier=0)
    if _heap.enabled():
        # Parent-side census over the merged graph (workers censusing
        # their shards would double-count shared structure).
        _heap.collect(graph)
    return graph, witness, stats


def _publish(jobs, coord_sent, stats, graph, merge_seconds,
             static_count=0):
    """Absorb each worker's complete metrics dump generically and add
    the coordinator-side aggregates.

    The merge (counters add, gauges max, histograms merge) replaces
    the old hand-picked counter relay: ``parallel.batches``,
    ``parallel.cross_edges``, the ``por.*`` / ``race.*`` totals, the
    wire histograms and anything the engine instrumentation recorded
    inside a worker all arrive through ``s["metrics"]`` without being
    named here.
    """
    if not obs.enabled:
        return

    def total(key):
        return sum(s.get(key, 0) for s in stats)

    for s in stats:
        obs.merge_dump(s.get("metrics"))
    obs.inc("parallel.shards", jobs)
    # Seed batches originate at the coordinator; the workers' own
    # batch counts arrived via the merge above.
    obs.inc("parallel.batches", sum(coord_sent))
    obs.inc("explore.states_visited", graph.state_count())
    # Durations are gauges, not counters (counters are integer-minded
    # monotone event counts): total idle across shards, and the
    # coordinator's decode+BFS merge cost.
    obs.set_gauge(
        "parallel.idle_seconds", round(total("idle_seconds"), 6)
    )
    obs.set_gauge("parallel.merge_seconds", round(merge_seconds, 6))
    obs.set_gauge("parallel.wire.static_objects", static_count)
    for wid, s in enumerate(stats):
        with obs.span("parallel.worker", wid=wid) as sp:
            sp.set(**{k: v for k, v in s.items() if k != "metrics"})


def parallel_explore(ctx, semantics, max_states=50000, strict=False,
                     reduce=False, jobs=2):
    """Parallel :func:`~repro.semantics.explore.explore` (no observer).

    ``jobs <= 1`` — or a platform without ``fork`` — falls back to the
    sequential explorer, so callers can pass the user's ``--jobs``
    through unconditionally.
    """
    jobs = int(jobs)
    if jobs <= 1 or not available():
        from repro.semantics.explore import explore

        return explore(
            ctx, semantics, max_states=max_states, strict=strict,
            reduce=reduce,
        )
    use_por = bool(reduce) and getattr(semantics, "supports_por", False)
    with obs.span(
        "parallel.explore",
        jobs=jobs,
        semantics=type(semantics).__name__,
        por=use_por,
    ) as sp:
        graph, _witness, _stats = _run_parallel(
            ctx, semantics, jobs, max_states, strict, use_por, None
        )
        if obs.enabled:
            sp.set(states=graph.state_count())
    return graph


def parallel_find_race(ctx, semantics, max_states=50000,
                       max_atomic_steps=64, reduce=False, jobs=2):
    """Fused parallel race search: ``(witness | None, merged graph)``.

    The caller (:func:`repro.semantics.race.find_race`) owns witness
    capture: the merged graph's recorded edge lists are in successor
    order (ample edges a prefix), so ``capture_schedule`` applies
    unchanged.
    """
    jobs = int(jobs)
    use_por = bool(reduce) and getattr(semantics, "supports_por", False)
    quantum = isinstance(semantics, NonPreemptiveSemantics)
    with obs.span(
        "parallel.find_race",
        jobs=jobs,
        semantics=type(semantics).__name__,
        por=use_por,
    ) as sp:
        graph, witness, _stats = _run_parallel(
            ctx, semantics, jobs, max_states, True, use_por,
            (quantum, max_atomic_steps),
        )
        if obs.enabled:
            sp.set(states=graph.state_count(), racy=witness is not None)
    return witness, graph
