"""Heartbeat status: a live, atomically-rewritten run snapshot.

A long exploration is a black box until it exits: the metrics registry
and the trace only materialize on shutdown. ``--status FILE`` makes
the exploration loops rewrite a *small* JSON document roughly once
per second — states explored, frontier depth, rolling and overall
states/s, the current phase, budget consumed against ``max_states``,
an ETA to budget exhaustion, and a census of the intern tables — so
``repro inspect FILE`` (or any ``cat``/``jq``) answers "is it stuck,
and will it blow its budget?" *while the run is going* instead of
post-mortem.

Design constraints, in order:

* **The hot loop pays almost nothing.** The exploration loops call
  :meth:`StatusWriter.beat` at most once every few dozen iterations
  (they keep a countdown integer); ``beat`` itself is one monotonic
  clock read and a compare until a beat is actually due. A test counts
  the calls (at most one per ``_HB_STRIDE`` loop iterations) and the
  file writes (with a long interval, only the first beat and the
  closing one; ``tests/obs/test_status.py``).
* **A reader can never see a torn document.** Every beat is written to
  a same-directory temp file and :func:`os.replace`'d over the target —
  the rename is atomic on POSIX, so a concurrent poller sees either
  the previous complete document or the new complete one, never a
  prefix (tests poll mid-run and assert zero parse failures).
* **Forks compose.** The parallel explorer's workers each write their
  own ``FILE.w<wid>`` shard heartbeat (the fork-inherited parent
  writer is reset, exactly like the obs sinks), and the coordinator
  periodically merges the shard files into the main ``FILE`` with
  per-shard liveness and last-beat age — a worker that stops beating
  is visible in seconds (:func:`merge_shards`).

The module-level singleton mirrors :mod:`repro.obs`: :func:`configure`
installs :data:`writer`, :func:`reset` drops it, and instrumented
code binds ``hb = status.writer`` once per run so the disabled path
is one ``is not None`` test.
"""

import json
import os
import re
import time
from collections import deque

#: Heartbeat document schema version.
VERSION = 1

#: Env var setting the seconds between beats (no flag twin: tests and
#: smoke runs use it for fast beats).
ENV_STATUS_INTERVAL = "REPRO_STATUS_INTERVAL"

#: Default seconds between beats.
DEFAULT_INTERVAL = 1.0

#: A beat older than ``max(STALE_FACTOR * interval, STALE_FLOOR)``
#: seconds is rendered with a stale warning.
STALE_FACTOR = 3.0
STALE_FLOOR = 5.0

#: Samples kept for the rolling states/s window.
_WINDOW = 20

#: The active writer, or ``None`` (the exploration loops bind this
#: once per run: ``hb = status.writer``).
writer = None


class StatusWriter:
    """Atomically rewrites one heartbeat JSON document.

    ``clock`` is injectable for tests. Sticky fields set via
    :meth:`update` (phase, budget, jobs, ...) ride on every subsequent
    beat; per-beat progress comes through :meth:`beat`/:meth:`force`.
    """

    def __init__(self, path, interval=DEFAULT_INTERVAL, wid=None,
                 clock=time.monotonic):
        self.path = str(path)
        self.interval = max(float(interval), 0.0)
        self.wid = wid
        self.clock = clock
        self.t0 = clock()
        # First beat fires immediately: a file must exist within the
        # first loop iterations, not after one full interval.
        self._next = self.t0
        self._window = deque(maxlen=_WINDOW)
        self.fields = {}
        self.beats = 0
        self.last_states = 0
        self.last_frontier = 0
        self._tmp = "{}.{}.tmp".format(self.path, os.getpid())

    # -- the hot-path surface -----------------------------------------

    def due(self):
        """True iff a beat would actually be emitted now."""
        return self.clock() >= self._next

    def update(self, **fields):
        """Merge sticky fields into every future beat (no write)."""
        self.fields.update(fields)

    def beat(self, states=None, frontier=None):
        """Emit a beat iff one is due; returns True when written."""
        now = self.clock()
        if now < self._next:
            return False
        self._next = now + self.interval
        self._emit(now, states, frontier)
        return True

    def force(self, states=None, frontier=None, **fields):
        """Emit a beat unconditionally (run start/end, phase flips)."""
        if fields:
            self.fields.update(fields)
        now = self.clock()
        self._next = now + self.interval
        self._emit(now, states, frontier)

    # -- emission -----------------------------------------------------

    def _rates(self, now, states):
        self._window.append((now, states))
        first_t, first_s = self._window[0]
        span = now - first_t
        rolling = (states - first_s) / span if span > 0 else None
        uptime = now - self.t0
        overall = states / uptime if uptime > 0 else None
        return rolling, overall

    def document(self, now, states, frontier):
        """The heartbeat dict for this instant (no I/O)."""
        if states is None:
            states = self.last_states
        if frontier is None:
            frontier = self.last_frontier
        self.last_states = states
        self.last_frontier = frontier
        rolling, overall = self._rates(now, states)
        doc = {
            "type": "heartbeat",
            "version": VERSION,
            "pid": os.getpid(),
            "time": time.time(),
            "uptime_seconds": round(now - self.t0, 6),
            "interval_seconds": self.interval,
            "beats": self.beats,
            "states": states,
            "frontier": frontier,
            "rolling_states_per_second": (
                None if rolling is None else round(rolling, 3)
            ),
            "overall_states_per_second": (
                None if overall is None else round(overall, 3)
            ),
        }
        if self.wid is not None:
            doc["wid"] = self.wid
        doc.update(self.fields)
        budget = doc.get("budget")
        if budget:
            doc["budget_used"] = round(states / budget, 6)
            if rolling and states < budget:
                doc["eta_budget_seconds"] = round(
                    (budget - states) / rolling, 3
                )
        # Cheap heap sample: per-table intern occupancy (a handful of
        # int reads once per interval, not per loop iteration).
        from repro.common import intern

        doc["intern"] = {t.name: len(t.table) for t in intern.TABLES}
        return doc

    def _emit(self, now, states, frontier, extra=None):
        doc = self.document(now, states, frontier)
        if extra:
            doc.update(extra)
        self.beats += 1
        doc["beats"] = self.beats
        write_atomic(self.path, doc, self._tmp)


def write_atomic(path, doc, tmp=None, raw=False):
    """Write ``doc`` as JSON and atomically rename it over ``path``.

    The temp file lives in the same directory (``os.replace`` must not
    cross filesystems), so a concurrent reader of ``path`` always sees
    a complete document. With ``raw=True``, ``doc`` is written as-is
    (an already-serialized string) instead of being JSON-encoded. A
    failed write (a full disk, say) removes the temp file, leaves
    ``path`` as it was, and re-raises.
    """
    path = str(path)
    if tmp is None:
        tmp = "{}.{}.tmp".format(path, os.getpid())
    data = doc if raw else json.dumps(doc, sort_keys=True) + "\n"
    try:
        with open(tmp, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def cleanup_artifacts(path):
    """Remove stale heartbeat by-products next to ``path``.

    Two leak shapes, both regression-tested:

    * a run killed between the temp write and the ``os.replace`` in
      :func:`write_atomic` leaves ``FILE.<pid>.tmp`` behind (the pid
      suffix means a *new* writer never reuses the name, so the leak
      would otherwise accumulate forever);
    * a previous run at higher ``--jobs`` leaves ``FILE.w<wid>`` shard
      heartbeats (and their own temp files) behind, and
      :func:`merge_shards` of the next, narrower run would read the
      survivors as phantom shards — stale state counts merged into a
      live status document.

    Called on main-writer init (:func:`configure`), before any shard
    writer exists, so live files are never touched. Returns the
    removed paths.
    """
    path = str(path)
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path)
    pattern = re.compile(
        re.escape(base) + r"\.(w\d+(\.\d+\.tmp)?|\d+\.tmp)$"
    )
    removed = []
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    for name in names:
        if pattern.match(name):
            stale = os.path.join(directory, name)
            try:
                os.remove(stale)
            except OSError:
                continue
            removed.append(stale)
    return removed


# ----- the module singleton ------------------------------------------------


def configure(path, interval=None, wid=None):
    """Install the process-wide :data:`writer` (idempotent per path).

    A *main* writer (``wid=None``) first sweeps stale artifacts from a
    previous run — orphaned ``.tmp`` files and leftover ``.w<wid>``
    shard heartbeats that a narrower ``--jobs`` run would otherwise
    merge as phantom shards (:func:`cleanup_artifacts`). Shard writers
    skip the sweep: by the time a worker configures its own file, the
    parent has already cleaned the neighbourhood.
    """
    global writer
    if interval is None:
        interval = interval_from_env()
    if wid is None:
        cleanup_artifacts(path)
    writer = StatusWriter(path, interval=interval, wid=wid)
    return writer


def interval_from_env(environ=None):
    environ = os.environ if environ is None else environ
    raw = environ.get(ENV_STATUS_INTERVAL)
    if not raw:
        return DEFAULT_INTERVAL
    try:
        return max(float(raw), 0.0)
    except ValueError:
        return DEFAULT_INTERVAL


def reset():
    """Drop the active writer (tests; fork-inherited worker state)."""
    global writer
    writer = None


def finalize(exit_status=None, phase="done"):
    """Force a final beat stamping the run's outcome, then drop the
    writer. Called by the CLI after the command returns, so the last
    document a watcher sees says ``phase: done`` instead of going
    silently stale."""
    global writer
    if writer is None:
        return
    extra = {} if exit_status is None else {"exit_status": exit_status}
    writer.force(**dict(extra, phase=phase))
    writer = None


# ----- parallel-shard merging ----------------------------------------------


def shard_path(path, wid):
    """The per-worker heartbeat file next to the main one."""
    return "{}.w{}".format(path, wid)


def load(path):
    """Parse one heartbeat/manifest JSON document (None if unreadable:
    a shard that has not beaten yet is not an error)."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def merge_shards(hb, jobs, alive=None, phase="parallel"):
    """Merge the ``jobs`` shard heartbeats into ``hb``'s main file.

    ``alive`` maps wid -> bool from the coordinator's process table.
    Totals sum the shard counters; each shard row carries its last-beat
    age, so one stuck worker stands out while the totals keep moving.
    Shards that have not written yet appear with ``beats: 0``.
    """
    now_wall = time.time()
    shards = []
    total_states = 0
    total_frontier = 0
    for wid in range(jobs):
        doc = load(shard_path(hb.path, wid))
        row = {
            "wid": wid,
            "states": 0,
            "frontier": 0,
            "phase": None,
            "beats": 0,
            "age_seconds": None,
        }
        if doc is not None:
            row["states"] = doc.get("states", 0) or 0
            row["frontier"] = doc.get("frontier", 0) or 0
            row["phase"] = doc.get("phase")
            row["beats"] = doc.get("beats", 0) or 0
            beat_time = doc.get("time")
            if beat_time is not None:
                row["age_seconds"] = round(
                    max(0.0, now_wall - beat_time), 3
                )
        if alive is not None:
            row["alive"] = bool(alive.get(wid))
        shards.append(row)
        total_states += row["states"]
        total_frontier += row["frontier"]
    # Shard rows are sticky, not per-beat extras: the CLI's final
    # ``finalize`` beat must still show the per-shard table.
    hb.update(phase=phase, jobs=jobs, shards=shards)
    hb._emit(hb.clock(), total_states, total_frontier)


# ----- rendering -----------------------------------------------------------


def stale_after(doc):
    """Seconds after which this document's beat counts as stale."""
    interval = doc.get("interval_seconds") or DEFAULT_INTERVAL
    return max(STALE_FACTOR * interval, STALE_FLOOR)


def _rate(value):
    return "-" if value is None else "{:,.1f}".format(value)


#: Heartbeat fields :func:`render_status` formats as numbers.
_NUMBER_FIELDS = (
    "time", "uptime_seconds", "beats", "states", "frontier", "budget",
    "budget_used", "eta_budget_seconds", "rolling_states_per_second",
    "overall_states_per_second", "interval_seconds",
)
_SHARD_NUMBER_FIELDS = (
    "wid", "states", "frontier", "beats", "age_seconds",
)


def check_numbers(doc, fields, prefix=""):
    """Raise ``ValueError`` naming the first of ``fields`` present in
    ``doc`` whose value is not a number."""
    for field in fields:
        value = doc.get(field)
        if value is not None and not isinstance(value, (int, float)):
            raise ValueError(
                "field {!r} is not a number".format(prefix + field)
            )


def check_number_map(doc, field, prefix=""):
    """Raise ``ValueError`` unless ``doc[field]`` is absent or an
    object whose values are all numbers."""
    value = doc.get(field)
    if value is not None and not (
        isinstance(value, dict)
        and all(isinstance(v, (int, float)) for v in value.values())
    ):
        raise ValueError(
            "field {!r} is not an object of numbers".format(prefix + field)
        )


def check_heartbeat(doc):
    """Raise ``ValueError`` naming the first field of ``doc`` that
    :func:`render_status` cannot render."""
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    check_numbers(doc, _NUMBER_FIELDS)
    check_number_map(doc, "intern")
    shards = doc.get("shards")
    if shards is not None:
        if not (
            isinstance(shards, list)
            and all(isinstance(row, dict) for row in shards)
        ):
            raise ValueError("field 'shards' is not a list of objects")
        for row in shards:
            check_numbers(row, _SHARD_NUMBER_FIELDS, "shards[].")


def render_status(doc, now=None):
    """The heartbeat as a plain-text block (``repro inspect FILE``).

    Raises ``ValueError`` (see :func:`check_heartbeat`) on a document
    that parses but is not a heartbeat.
    """
    from repro.framework.report import format_table

    check_heartbeat(doc)
    if now is None:
        now = time.time()
    age = max(0.0, now - (doc.get("time") or now))
    lines = [
        "status: phase={}  pid={}  uptime {:.1f}s  "
        "(beat #{}, {:.1f}s ago)".format(
            doc.get("phase", "?"),
            doc.get("pid", "?"),
            doc.get("uptime_seconds", 0.0) or 0.0,
            doc.get("beats", 0),
            age,
        )
    ]
    if doc.get("phase") != "done" and age > stale_after(doc):
        lines.append(
            "WARNING: last beat is {:.1f}s old (interval {:.1f}s) — "
            "the run may be stuck, swapped out, or dead".format(
                age, doc.get("interval_seconds") or DEFAULT_INTERVAL
            )
        )
    progress = "progress: {:,} state(s), frontier {:,}".format(
        doc.get("states", 0) or 0, doc.get("frontier", 0) or 0
    )
    budget = doc.get("budget")
    if budget:
        progress += ", budget {:,}/{:,} ({:.1%})".format(
            doc.get("states", 0) or 0, budget,
            doc.get("budget_used", 0.0) or 0.0,
        )
        eta = doc.get("eta_budget_seconds")
        if eta is not None:
            progress += ", budget exhausted in ~{:.0f}s".format(eta)
    lines.append(progress)
    lines.append(
        "rate: {} states/s rolling, {} overall".format(
            _rate(doc.get("rolling_states_per_second")),
            _rate(doc.get("overall_states_per_second")),
        )
    )
    if doc.get("exit_status") is not None:
        lines.append("exit status: {}".format(doc["exit_status"]))
    interned = doc.get("intern")
    if interned:
        lines.append(
            "intern tables: "
            + "  ".join(
                "{}={:,}".format(name, size)
                for name, size in sorted(interned.items())
            )
        )
    shards = doc.get("shards")
    if shards:
        lines.append("")
        rows = []
        for row in shards:
            shard_age = row.get("age_seconds")
            age_s = "-" if shard_age is None else "{:.1f}s".format(
                shard_age
            )
            alive = row.get("alive")
            alive_s = "-" if alive is None else ("yes" if alive else "NO")
            rows.append(
                (
                    "w{}".format(row.get("wid")),
                    "{:,}".format(row.get("states", 0) or 0),
                    "{:,}".format(row.get("frontier", 0) or 0),
                    row.get("phase") or "-",
                    str(row.get("beats", 0)),
                    age_s,
                    alive_s,
                )
            )
        lines.append(
            format_table(
                rows,
                headers=(
                    "Shard", "States", "Frontier", "Phase", "Beats",
                    "Beat age", "Alive",
                ),
            )
        )
    return "\n".join(lines)
