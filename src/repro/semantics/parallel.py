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
* **Observability composes across the fork.** The worker lifecycle
  (fork, per-worker obs and heartbeat shards, liveness, reaping) is
  :mod:`repro.common.pool`'s, shared with the fuzz campaign. Workers
  meter their own phases (``parallel.worker.{expand,encode,decode,
  idle,wall}_seconds`` histograms), wire costs (``parallel.wire.*``
  bytes, batch-size and per-world-size histograms, send-memo hit
  rate) and everything the shared engine instrumentation records; the
  pool ships each worker's **entire** metrics snapshot in its ``bye``
  and the coordinator folds the dumps in generically
  (:meth:`~repro.obs.metrics.MetricsRegistry.merge` — counters add,
  gauges max, histograms merge), so a new worker-side metric needs no
  coordinator change. Coordinator-side costs surface as the
  ``parallel.merge`` span and the ``parallel.merge_seconds`` /
  ``parallel.idle_seconds`` gauges (durations are gauges, not
  integer-minded counters).

Workers are **forked**, never spawned: the string-hash seed is
inherited, which is what makes ``hash(world) % jobs`` agree across
processes (the serialize envelope's seed probe double-checks this).
Platforms without ``fork`` fall back to the sequential explorer. A
worker error, or a worker the pool finds dead, fails the run at once;
the pool's exit halts and reaps the others.

Termination uses cumulative message counters (a Mattern-style
four-counter scheme): a worker going idle reports how many batches it
has sent to each peer and received in total; the coordinator halts
when every worker's latest report is idle and, for every shard, the
batches sent to it (by the coordinator's seeding plus all peers)
equal the batches it has received.
"""

import os
import time
from collections import deque
from queue import Empty

from repro import obs
from repro.common import pool as _pool
from repro.common.pool import available
from repro.obs import heap as _heap
from repro.obs import status as _status
from repro.common.serialize import (
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


def _worker_main(pool, wid, ctx, semantics, cfg, counter):
    """One shard's pool target: expand until halted, then report."""
    t0 = time.monotonic()
    worker = _Worker(
        wid, pool.jobs, ctx, semantics, cfg, counter, pool.inboxes,
        pool.coord,
    )
    with obs.span("parallel.worker.run", wid=wid):
        try:
            worker.run()
        except _Limit as exc:
            pool.coord.put(("err", wid, ("limit", str(exc))))
    stats = worker.stats()
    stats["wall_seconds"] = round(time.monotonic() - t0, 6)
    worker.publish_metrics(stats["wall_seconds"])
    if obs.trace_enabled():
        obs.event(
            "parallel.worker.phases",
            wall_seconds=stats["wall_seconds"],
            **worker.phases()
        )
    # Final shard beat before the bye: the merged status must show this
    # worker's full state count, not a stale beat.
    if _status.writer is not None:
        _status.writer.force(
            states=len(worker.recorded), frontier=0
        )
    return stats


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
    # Start from empty intern tables, so this run's canonical worlds
    # are its own: worlds an earlier run decoded off the wire carry
    # memories rebuilt around private base dicts, and inheriting them
    # would defeat the encoder's id-matched delta cache (see
    # ``reset_intern_tables``). Must happen before ``initial_worlds``,
    # which interns.
    reset_intern_tables()
    counter = _pool.shared_counter()
    cfg = {
        "use_por": use_por,
        "strict": strict,
        "max_states": max_states,
        "race": race_cfg,
    }
    # The static segment must exist *before* forking: every worker
    # inherits the same table and resolves static refs against its own
    # pointer-identical copy.
    initial = list(semantics.initial_worlds(ctx))
    static_count = install_static_table(
        collect_static_objects(ctx, initial)
    )
    try:
        with _pool.Pool(
            jobs, _worker_main, (ctx, semantics, cfg, counter),
            peers=True, progress=lambda: counter.value,
        ) as pool:
            coord_sent, records, race_payload, coord_decode = \
                _coordinate(pool, initial)
    finally:
        clear_static_table()

    track = obs.enabled
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
    stats = [pool.byes.get(wid) or {} for wid in range(jobs)]
    _publish(jobs, coord_sent, stats, graph, merge_seconds,
             static_count)
    hb = _status.writer
    if hb is not None:
        # Final merge: every shard's last (forced) beat, then the
        # merged graph's true state count.
        pool.beat(phase="merged", force=True)
        hb.force(states=graph.state_count(), frontier=0)
    if _heap.enabled():
        # Parent-side census over the merged graph (workers censusing
        # their shards would double-count shared structure).
        _heap.collect(graph)
    return graph, witness, stats


def _coordinate(pool, initial):
    """Seed the shards and handle worker messages until every worker
    has said bye: ``(coord_sent, records, race_payload,
    decode_seconds)``. A worker error raises (the pool's exit reaps
    the other workers)."""
    jobs = pool.jobs
    coord_sent = [0] * jobs
    seeds = [[] for _ in range(jobs)]
    for world in initial:
        seeds[hash(world) % jobs].append(world)
    for shard, worlds in enumerate(seeds):
        if worlds:
            # One-shot channel per shard: each worker's src -1 decoder
            # sees exactly one message from exactly one fresh encoder.
            epoch, data = ChannelEncoder().encode(worlds)
            pool.inboxes[shard].put(("w", -1, epoch, data))
            coord_sent[shard] += 1

    # Stateful record decoders, one per worker (the mirror of each
    # worker's rec_channel; race payloads ride the same channel).
    rec_decoders = {}

    def rec_decoder(wid):
        dec = rec_decoders.get(wid)
        if dec is None:
            dec = rec_decoders[wid] = ChannelDecoder()
        return dec

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

    records = {}
    reports = {}
    race_payload = None
    track = obs.enabled
    coord_decode = 0.0
    for msg in pool.messages():
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
                pool.halt()
        elif kind == "idle":
            reports[msg[1]] = (msg[2], msg[3])
            if balanced():
                pool.halt()
        elif kind == "err":
            what, detail = msg[2]
            if what == "limit":
                raise ExplorationLimit(detail)
            raise RuntimeError(
                "parallel exploration failed: {}".format(detail)
            )
    return coord_sent, records, race_payload, coord_decode


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
