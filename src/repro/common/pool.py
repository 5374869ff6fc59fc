"""One fork pool: the worker lifecycle under ``--jobs N``.

Both forking coordinators — the sharded explorer
(:mod:`repro.semantics.parallel`) and the fuzz campaign
(:mod:`repro.fuzz.campaign`) — run on this primitive and keep only
their own message handling. This is the only module that imports
:mod:`multiprocessing`. The pool owns:

* **Fork.** ``jobs`` daemon workers, each with its own inbox, plus one
  coordinator queue every worker writes to. Workers are forked, never
  spawned: the string-hash seed is inherited, which the explorer's
  ``hash(world) % jobs`` sharding relies on, and so is everything the
  parent set up before forking (static tables, shared counters).
* **Child setup.** A child resets the fork-inherited obs and heartbeat
  state (the parent's sinks must not be written from two processes),
  then writes its own ``FILE.w<wid>`` heartbeat shard, and gets a
  private metrics registry when the parent meters and a
  ``<trace>.w<wid>`` trace file (every record stamped with ``wid``)
  when the parent traces to a path.
* **Child exit.** A target that raises becomes an ``("err", wid,
  ("crash", traceback))`` message. Every child then sends ``("bye",
  wid, stats)``, where ``stats`` is what the target returned plus the
  child's ``obs.dump()`` under ``"metrics"``; when workers write to
  each other's inboxes it keeps draining its own briefly
  (:func:`_drain_inbox`); then it shuts its sinks down.
* **Liveness.** Every :data:`POLL` seconds by its own clock, whether
  or not messages are arriving, :meth:`Pool.messages` looks for
  workers that exited without a bye and reports them as one ``err``
  message. After :meth:`Pool.halt`, a worker that neither says bye
  nor shows progress for :data:`HALT_GRACE` seconds is terminated and
  reported the same way.
* **The heartbeat merge and the reap.** :meth:`Pool.beat` folds the
  shard heartbeats into the main status file; :meth:`Pool.close`
  (also the context-manager exit, so it runs on Ctrl-C too) sends
  :data:`HALT` to every worker, joins them for at most
  :data:`REAP_GRACE` seconds while still reading their byes,
  terminates any survivor and closes the queues.

Messages are tuples ``(kind, wid, ...)``. ``"bye"`` is consumed by the
pool (``Pool.byes``); every other kind is the coordinator's business.
"""

import multiprocessing
import time
import traceback
from queue import Empty

from repro import obs
from repro.obs import status as _status

#: Liveness-check cadence, seconds.
POLL = 1.0

#: The stop message every worker loop must honour.
HALT = ("halt",)

#: After a halt: how long a worker may go without either sending its
#: bye or showing progress before it is declared wedged and
#: terminated. Generous (the only post-halt work is flushing), but
#: finite: a worker stuck on a torn queue message must fail the run
#: loudly, not hang it forever.
HALT_GRACE = 30.0

#: How long an exiting worker keeps draining its own inbox after its
#: bye, so peers' queue feeder threads can finish in-flight writes.
EXIT_DRAIN = 1.0

#: How long :meth:`Pool.close` waits for workers to exit before
#: terminating them.
REAP_GRACE = 5.0


def available():
    """True iff the platform can fork workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def shared_counter():
    """A shared integer the workers inherit (create it before forking)."""
    return multiprocessing.get_context("fork").Value("l", 0)


def _configure_worker_obs(wid, cfg):
    """Reset fork-inherited obs state, then re-enable private sinks.

    An unwritable worker trace must not kill the run, and must not
    silently discard the worker's metrics with it: retry with the trace
    disabled so the worker stays metered, and warn once.
    """
    obs.reset()
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
    peers' queue feeder threads may still be mid-write into this pipe,
    and a process exit on the *writer* side kills its feeder
    mid-message, leaving a torn record that would block this reader's
    next ``recv`` forever. Draining until the pipe is quiet lets those
    feeders complete. Bounded by ``deadline`` as a backstop; a torn
    message already in the pipe surfaces as a blocked ``get`` that the
    post-halt watchdog resolves by terminating the reader.
    """
    while time.monotonic() < deadline:
        try:
            inbox.get(timeout=0.05)
        except (Empty, OSError, EOFError, ValueError):
            return


def _child_main(pool, wid, target, args):
    _configure_worker_obs(wid, pool.child_cfg)
    hb = _status.writer
    if hb is not None:
        hb.force(states=0, frontier=0, phase=pool.phase)
    try:
        stats = target(pool, wid, *args) or {}
    except BaseException:
        # The child is a process boundary: whatever ends the target,
        # an interrupt included, is reported and the coordinator
        # decides what it means.
        stats = {}
        pool.coord.put(("err", wid, ("crash", traceback.format_exc())))
    metrics = obs.dump()
    if metrics is not None:
        stats["metrics"] = metrics
    _status.finalize()
    # The coordinator queue is NOT cancelled: the bye has to arrive,
    # and a clean exit is how the pool knows it did.
    pool.coord.put(("bye", wid, stats))
    try:
        if pool.peers:
            _drain_inbox(
                pool.inboxes[wid], time.monotonic() + EXIT_DRAIN
            )
        obs.shutdown()
    except Exception:
        pass
    # Exit must not block on feeder threads writing into the inboxes
    # of peers that have already halted.
    for shard, inbox in enumerate(pool.inboxes):
        if shard != wid:
            inbox.cancel_join_thread()


class Pool:
    """``jobs`` forked workers, each running ``target(pool, wid,
    *args)``; the target reads ``pool.inboxes[wid]`` until it sees
    :data:`HALT`, writes to ``pool.coord``, and returns its stats dict.

    ``phase`` labels the merged heartbeat. ``peers`` says that workers
    write to each other's inboxes (the explorer's batches), so an
    exiting worker must drain its own. ``progress`` is an optional
    zero-argument callable whose value changes while workers make
    progress that sends no message (the post-halt watchdog treats a
    change like a message). Use as a context manager: the exit reaps.
    """

    def __init__(self, jobs, target, args=(), phase="parallel",
                 peers=False, progress=None):
        mp_ctx = multiprocessing.get_context("fork")
        self.jobs = jobs
        self.phase = phase
        self.peers = peers
        self.progress = progress
        self.inboxes = [mp_ctx.Queue() for _ in range(jobs)]
        self.coord = mp_ctx.Queue()
        hb = _status.writer
        # What a child needs to know about the parent's obs sinks
        # (file-like trace sinks cannot be suffixed; their workers run
        # untraced).
        self.child_cfg = {
            "metrics": obs.metrics_enabled(),
            "trace_path": obs.trace_path,
            "status_path": hb.path if hb is not None else None,
            "status_interval": hb.interval if hb is not None else None,
        }
        self.byes = {}
        self.procs = []
        self._received = 0
        self._halt_watch = None
        if obs.tracer is not None:
            # Empty the sink's userspace buffer before forking: a child
            # flushing its inherited copy would write the same bytes
            # again into the shared descriptor.
            obs.tracer.flush()
        try:
            for wid in range(jobs):
                proc = mp_ctx.Process(
                    target=_child_main,
                    args=(self, wid, target, args),
                    daemon=True,
                )
                proc.start()
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def beat(self, phase=None, force=False):
        """Merge the shard heartbeats into the main status file (when
        one is configured and a beat is due, or ``force``)."""
        hb = _status.writer
        if hb is not None and (force or hb.due()):
            _status.merge_shards(
                hb, self.jobs,
                alive={w: p.is_alive() for w, p in enumerate(self.procs)},
                phase=phase or self.phase,
            )

    def halt(self):
        """Send :data:`HALT` to every worker (once) and start the
        post-halt watchdog."""
        if self._halt_watch is not None:
            return
        self._halt_watch = [time.monotonic(), self._token()]
        for inbox in self.inboxes:
            try:
                inbox.put(HALT)
            except (OSError, ValueError):
                pass

    def _token(self):
        extra = self.progress() if self.progress is not None else None
        return self._received, extra

    def _lost(self):
        """An ``err`` message for workers gone without a bye, or None.

        A worker that exits through :func:`_child_main` has sent its
        bye and exits 0, so a clean exit is never a loss (the bye may
        still be in the pipe); any other exit code is.
        """
        dead = [
            wid for wid, p in enumerate(self.procs)
            if wid not in self.byes and p.exitcode not in (None, 0)
        ]
        if dead:
            detail = "worker(s) {} died without reporting (exit code {})"
            detail = detail.format(
                dead, ", ".join(str(self.procs[w].exitcode) for w in dead)
            )
        else:
            dead = self._wedged()
            if not dead:
                return None
            detail = "worker(s) {} unresponsive {}s after halt; " \
                "terminated".format(dead, HALT_GRACE)
        for wid in dead:
            self.byes[wid] = None
        return ("err", dead[0], ("crash", detail))

    def _wedged(self):
        """Terminate and list the workers that have neither said bye
        nor shown progress for :data:`HALT_GRACE` seconds after the
        halt (progress restarts the clock)."""
        watch = self._halt_watch
        if watch is None:
            return []
        token = self._token()
        if token != watch[1]:
            watch[0], watch[1] = time.monotonic(), token
            return []
        if time.monotonic() - watch[0] <= HALT_GRACE:
            return []
        wedged = [
            wid for wid, p in enumerate(self.procs)
            if wid not in self.byes and p.is_alive()
        ]
        for wid in wedged:
            self.procs[wid].terminate()
        return wedged

    def messages(self):
        """Yield worker messages until every worker has said bye.

        Byes are recorded in ``self.byes`` and not yielded. A worker
        found dead or wedged (see the module docstring) counts as
        having said bye and is reported as one ``err`` message.
        """
        hb = _status.writer
        wait = POLL if hb is None else min(POLL, max(hb.interval, 0.05))
        next_check = time.monotonic() + POLL
        while len(self.byes) < self.jobs:
            self.beat()
            now = time.monotonic()
            if now >= next_check:
                next_check = now + POLL
                lost = self._lost()
                if lost is not None:
                    yield lost
                    continue
            try:
                msg = self.coord.get(timeout=wait)
            except Empty:
                continue
            self._received += 1
            if msg[0] == "bye":
                self.byes[msg[1]] = msg[2]
            else:
                yield msg

    def close(self):
        """Reap every worker: halt, a bounded join that keeps reading
        byes, terminate survivors, close the queues, merge the final
        heartbeat."""
        # Imported here: at module level it would pull ``subprocess``
        # and friends into every process that imports the explorer.
        from multiprocessing.connection import wait

        self.halt()
        deadline = time.monotonic() + REAP_GRACE
        live = [p for p in self.procs if p.is_alive()]
        while live:
            left = deadline - time.monotonic()
            if left <= 0:
                break
            # Wake on a message or an exit, whichever comes first; a
            # worker cannot exit before its bye has been read off a
            # full pipe.
            wait([self.coord._reader] + [p.sentinel for p in live], left)
            self._read_bye()
            live = [p for p in live if p.is_alive()]
        else:
            # Every worker exited, so everything it sent is whole in
            # the pipe; a terminated worker's last write may not be,
            # so nothing is read after a terminate.
            while self._read_bye():
                pass
        for p in self.procs:
            if p.is_alive():
                p.terminate()
        for p in self.procs:
            p.join(timeout=5)
        for q in self.inboxes + [self.coord]:
            q.cancel_join_thread()
            q.close()
        self.beat(force=True)

    def _read_bye(self):
        """Read one waiting coordinator message, keeping it only if it
        is a bye; False when the queue is empty (or unreadable)."""
        try:
            msg = self.coord.get_nowait()
        except (Empty, OSError, EOFError, ValueError):
            return False
        if msg[0] == "bye":
            self.byes[msg[1]] = msg[2]
        return True
