"""Run ledger: the one record of what a CLI run did, written as it goes.

``--ledger FILE`` makes every ``repro`` command keep one JSON
document at ``FILE``. While the run goes, the exploration loops
rewrite it about once per second (``REPRO_STATUS_INTERVAL``): the
manifest's identity (type, command, argv, resolved config, start
time), ``"status": "running"`` and a ``progress`` block — states
explored, frontier depth, phase, budget consumed against
``max_states`` and an ETA to its exhaustion, rolling and overall
states/s, a census of the intern tables and, under ``--jobs N``, one
row per forked worker. ``repro inspect FILE`` (or ``watch repro
inspect FILE``, or any ``jq``) answers "is it stuck, and will it blow
its budget?" while the run is going. On exit the same file becomes the
final manifest: the fully *resolved* configuration (POR/jobs/wire
gates — what actually ran, not what was typed), the hash seed, a
content hash of the input program plus the pass pipeline, per-phase
wall times, the peak resident set size, the final metrics, the
behaviour fingerprint, the verdict, the exit status and the last
progress block (``phase: done``). :func:`load_manifest` checks every
field a reader reads.

Two consumers motivate the final shape:

* ``repro compare A B`` diffs two manifests — configs, fingerprints,
  phases and counters, with a ratio-symmetric delta
  (:func:`ratio_delta`) — so "did this change make runs slower or
  change behaviour?" is one command over two artifacts instead of
  archaeology over logs.
* The ``content_hash`` key is deliberately the cache key shape the
  ROADMAP's validation-as-a-service item will index: module bytes +
  pass pipeline + semantic gates, hashed. A server can decide "this
  module's verdict is already known" from the manifest alone.

Design constraints on the progress rewrites, in order:

* **The hot loop pays almost nothing.** The exploration loops call
  :meth:`ProgressWriter.beat` at most once every few dozen iterations
  (they keep a countdown integer); ``beat`` itself is one monotonic
  clock read and a compare until a write is actually due. A rewrite
  never snapshots the metrics registry; only the final manifest does.
  A test counts the calls (at most one per ``_HB_STRIDE`` loop
  iterations) and the file writes (with a long interval, only the
  first and the final one; ``tests/obs/test_status.py``).
* **A reader can never see a torn document.** Every write goes to a
  same-directory temp file that :func:`os.replace` renames over the
  target (:func:`write_atomic`): a concurrent poller sees either the
  previous complete document or the new one, never a prefix, and a
  crashed run leaves the last complete document behind.
* **Forks compose.** The parallel explorer's workers each write their
  own ``FILE.w<wid>`` shard file, a bare progress block (the
  fork-inherited parent record is reset, exactly like the obs sinks),
  and the coordinator periodically merges the shard files into the
  main ``FILE`` with per-shard liveness and last-beat age — a worker
  that stops beating is visible in seconds (:func:`merge_shards`).

The module-level singleton mirrors :mod:`repro.obs`: the CLI calls
:func:`configure` before dispatching and :func:`finalize` *before*
``obs.shutdown()`` (finalize snapshots the live registry; shutdown
clears it). Instrumented code binds ``hb = ledger.writer`` once per
run, so the path without a record is one ``is not None`` test.
"""

import hashlib
import json
import os
import re
import resource
import sys
import time
from collections import deque

#: Manifest schema version.
VERSION = 1

#: Env var setting the seconds between progress rewrites (no flag
#: twin: tests and smoke runs use it for fast beats).
ENV_STATUS_INTERVAL = "REPRO_STATUS_INTERVAL"

#: Default seconds between progress rewrites.
DEFAULT_INTERVAL = 1.0

#: Samples kept for the rolling states/s window.
_WINDOW = 20

#: The active ledger, or ``None``.
active = None

#: The active progress writer, or ``None``: the ledger's own in the
#: CLI process, a shard writer in a forked worker (the exploration
#: loops bind this once per run: ``hb = ledger.writer``).
writer = None

#: Span names whose total is the run's exploration denominator, in
#: priority order (sequential explore, then the parallel entry points).
_EXPLORE_SPANS = (
    "explore",
    "parallel.explore",
    "parallel.find_race",
    "race.find",
)


def ratio_delta(prev, cur, higher_is_better=True):
    """Signed relative change, positive = improvement.

    Lower-is-better series are measured against the *new* value
    (throughput space), so a 1.5x slowdown reads as the same -33%
    whether the series tracks seconds or states/second — otherwise
    the same regression would gate differently depending on which
    unit a benchmark happened to record.

    Zero endpoints are saturated, never silently 0.0: a series
    collapsing to exactly 0 is a broken measurement (0 states/s, 0
    seconds), not an infinite speedup, so it gates as a full -100%
    regression; a series *starting* from 0 reads as the saturated
    change in the series' own direction.
    """
    if prev == 0.0 and cur == 0.0:
        return 0.0
    if cur == 0.0:
        return -1.0
    if prev == 0.0:
        return 1.0 if higher_is_better else -1.0
    if higher_is_better:
        return (cur - prev) / abs(prev)
    return (prev - cur) / abs(cur)


def fingerprint_behaviours(behaviours):
    """16-hex-digit digest of a behaviour set (sorted reprs), the same
    shape the benchmarks pin across PRs."""
    digest = hashlib.sha256()
    for rep in sorted(repr(b) for b in behaviours):
        digest.update(rep.encode())
    return digest.hexdigest()[:16]


def content_hash(path, pipeline=(), gates=()):
    """sha256 of the input program + pass pipeline + semantic gates.

    ``pipeline`` is the ordered pass/stage names; ``gates`` any extra
    strings that change meaning (lock linkage, optimize, stage). The
    validation-cache key: equal hash ⟹ revalidation is redundant.
    """
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    except OSError:
        digest.update(repr(path).encode())
    for name in pipeline:
        digest.update(b"\x00")
        digest.update(str(name).encode())
    for gate in gates:
        digest.update(b"\x01")
        digest.update(str(gate).encode())
    return digest.hexdigest()


class ProgressWriter:
    """Atomically rewrites one record file with the run's progress.

    ``frame`` turns a progress block into the document written: the
    main writer's is the ledger's running document
    (:meth:`RunLedger.running_document`); a shard writer has none and
    writes the bare block. ``clock`` is injectable for tests. Sticky
    fields set via :meth:`update` (phase, budget, jobs, ...) ride on
    every later block; per-beat progress comes through
    :meth:`beat`/:meth:`force`.
    """

    def __init__(self, path, interval=DEFAULT_INTERVAL, wid=None,
                 frame=None, clock=time.monotonic):
        self.path = str(path)
        self.interval = max(float(interval), 0.0)
        self.wid = wid
        self.frame = frame
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
        """True iff a beat would actually be written now."""
        return self.clock() >= self._next

    def update(self, **fields):
        """Merge sticky fields into every future block (no write)."""
        self.fields.update(fields)

    def beat(self, states=None, frontier=None):
        """Write a block iff one is due; returns True when written."""
        now = self.clock()
        if now < self._next:
            return False
        self._next = now + self.interval
        self._emit(now, states, frontier)
        return True

    def force(self, states=None, frontier=None, **fields):
        """Write a block unconditionally (run start/end, phase flips)."""
        if fields:
            self.fields.update(fields)
        now = self.clock()
        self._next = now + self.interval
        self._emit(now, states, frontier)

    # -- the block ----------------------------------------------------

    def _rates(self, now, states):
        self._window.append((now, states))
        first_t, first_s = self._window[0]
        span = now - first_t
        rolling = (states - first_s) / span if span > 0 else None
        uptime = now - self.t0
        overall = states / uptime if uptime > 0 else None
        return rolling, overall

    def block(self, now, states=None, frontier=None):
        """The next progress block; counts a beat (no I/O)."""
        if states is None:
            states = self.last_states
        if frontier is None:
            frontier = self.last_frontier
        self.last_states = states
        self.last_frontier = frontier
        rolling, overall = self._rates(now, states)
        self.beats += 1
        block = {
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
            block["wid"] = self.wid
        block.update(self.fields)
        budget = block.get("budget")
        if budget:
            block["budget_used"] = round(states / budget, 6)
            if rolling and states < budget:
                block["eta_budget_seconds"] = round(
                    (budget - states) / rolling, 3
                )
        # Cheap heap sample: per-table intern occupancy (a handful of
        # int reads once per interval, not per loop iteration).
        from repro.common import intern

        block["intern"] = {t.name: len(t.table) for t in intern.TABLES}
        return block

    def close(self):
        """The closing block, stamped ``phase: done`` (no I/O)."""
        self.fields["phase"] = "done"
        return self.block(self.clock())

    def _emit(self, now, states, frontier):
        block = self.block(now, states, frontier)
        doc = block if self.frame is None else self.frame(block)
        write_atomic(self.path, doc, self._tmp)


class RunLedger:
    """Accumulates one run's facts; :attr:`progress` rewrites the
    running document and :meth:`finalize` writes the manifest."""

    def __init__(self, path, command, argv=None,
                 interval=DEFAULT_INTERVAL):
        self.path = str(path)
        self.command = command
        self.argv = list(argv) if argv is not None else None
        self.t0 = time.monotonic()
        self.started_at = time.time()
        self.config = {}
        self.facts = {}
        self.progress = ProgressWriter(
            path, interval=interval, frame=self.running_document
        )

    def set_config(self, **kv):
        """Record resolved configuration (what actually ran)."""
        self.config.update(kv)

    def note(self, **kv):
        """Record top-level facts: verdict, fingerprint, states, ..."""
        self.facts.update(kv)

    def _identity(self):
        return {
            "type": "run-manifest",
            "version": VERSION,
            "command": self.command,
            "argv": self.argv,
            "started_at": _iso(self.started_at),
            "config": dict(self.config),
        }

    def running_document(self, progress):
        """The record while the run goes: identity, ``status: running``
        and ``progress`` (no I/O, no metrics snapshot)."""
        doc = self._identity()
        doc["status"] = "running"
        doc["progress"] = progress
        return doc

    def document(self, exit_status, snapshot=None):
        """The final manifest dict, with the closing progress block
        (no I/O)."""
        wall = time.monotonic() - self.t0
        doc = self._identity()
        doc.update({
            "status": "done",
            "finished_at": _iso(time.time()),
            "wall_seconds": round(wall, 6),
            "exit_status": exit_status,
            "peak_rss_mib": round(peak_rss_mib(), 3),
            "seeds": {
                "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
                "python": sys.version.split()[0],
            },
            "progress": self.progress.close(),
        })
        doc.update(self.facts)
        if snapshot is not None:
            doc["phases"] = phase_seconds(snapshot)
            doc["metrics"] = snapshot
            states = (
                snapshot.get("counters", {}).get(
                    "explore.states_visited"
                )
            )
            if states is not None and "states" not in doc:
                doc["states"] = states
            explore_s = _explore_seconds(doc.get("phases", {}))
            if doc.get("states") and explore_s:
                doc["states_per_second"] = round(
                    doc["states"] / explore_s, 3
                )
        return doc

    def finalize(self, exit_status, snapshot=None):
        write_atomic(self.path, self.document(exit_status, snapshot))


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
    """Remove stale record by-products next to ``path``.

    Two leak shapes, both regression-tested:

    * a run killed between the temp write and the ``os.replace`` in
      :func:`write_atomic` leaves ``FILE.<pid>.tmp`` behind (the pid
      suffix means a *new* writer never reuses the name, so the leak
      would otherwise accumulate forever);
    * a previous run at higher ``--jobs`` leaves ``FILE.w<wid>`` shard
      files (and their own temp files) behind, and
      :func:`merge_shards` of the next, narrower run would read the
      survivors as phantom shards — stale state counts merged into a
      live record.

    Called on :func:`configure`, before any shard writer exists, so
    live files are never touched. Returns the removed paths.
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


def peak_rss_mib():
    """Peak resident set size in MiB: the larger of this process's
    and its reaped children's (forked workers), as the suite benchmark
    measures it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, forked) / 1024.0


def _iso(epoch):
    return time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(epoch))


def phase_seconds(snapshot):
    """``{phase: total_seconds}`` from the ``span.*.seconds``
    histograms (their ``total`` field is the summed duration)."""
    out = {}
    for name, summ in (snapshot.get("histograms") or {}).items():
        if not (name.startswith("span.") and name.endswith(".seconds")):
            continue
        if summ.get("count"):
            out[name[len("span."):-len(".seconds")]] = round(
                summ.get("total") or 0.0, 6
            )
    return out


def _explore_seconds(phases):
    for name in _EXPLORE_SPANS:
        value = phases.get(name)
        if value:
            return value
    return None


# ----- the module singleton ------------------------------------------------


def configure(path, command, argv=None, interval=None):
    """Open the run's record at ``path`` and install :data:`active` and
    its progress writer as :data:`writer`, after sweeping stale
    artifacts a previous run left beside it — orphaned ``.tmp`` files
    and ``.w<wid>`` shard files a narrower ``--jobs`` run would
    otherwise merge as phantom shards (:func:`cleanup_artifacts`).
    ``interval`` defaults to ``REPRO_STATUS_INTERVAL``."""
    global active, writer
    if interval is None:
        interval = interval_from_env()
    cleanup_artifacts(path)
    active = RunLedger(path, command, argv=argv, interval=interval)
    writer = active.progress
    return active


def configure_shard(path, wid, interval):
    """Install a forked worker's :data:`writer`: bare progress blocks
    to ``FILE.w<wid>`` beside the coordinator's record at ``path``."""
    global writer
    writer = ProgressWriter(shard_path(path, wid), interval=interval,
                            wid=wid)
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
    """Drop the active record (tests; fork-inherited worker state)."""
    global active, writer
    active = writer = None


def set_config(**kv):
    if active is not None:
        active.set_config(**kv)


def note(**kv):
    if active is not None:
        active.note(**kv)


def finalize(exit_status=None, snapshot=None):
    """Close the record and drop it (no-op when none is open): the
    final manifest, or in a forked worker the shard's closing block."""
    global active, writer
    try:
        if active is not None:
            active.finalize(exit_status, snapshot)
        elif writer is not None:
            writer.force(phase="done")
    finally:
        active = writer = None


# ----- parallel-shard merging ----------------------------------------------


def shard_path(path, wid):
    """The per-worker progress file next to the main record."""
    return "{}.w{}".format(path, wid)


def load(path):
    """Parse one JSON document (None if unreadable: a shard that has
    not beaten yet is not an error)."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def merge_shards(hb, jobs, alive=None, phase="parallel"):
    """Merge the ``jobs`` shard files into ``hb``'s main record.

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
    # Shard rows are sticky, not per-beat extras: the final manifest's
    # closing block must still show the per-shard table.
    hb.update(phase=phase, jobs=jobs, shards=shards)
    hb._emit(hb.clock(), total_states, total_frontier)


# ----- comparing manifests -------------------------------------------------

#: Top-level directed metrics the compare gates on.
_DIRECTED = (
    ("states_per_second", True),
    ("wall_seconds", False),
)

#: How many phase rows / counter rows the report shows.
_TOP_ROWS = 12


#: Fields the renderers format as numbers: top-level, in the progress
#: block, and in its shard rows.
_NUMBER_FIELDS = (
    "wall_seconds", "states", "states_per_second", "peak_rss_mib",
)
_PROGRESS_NUMBER_FIELDS = (
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


def check_manifest(doc):
    """Raise ``ValueError`` naming the first field of ``doc`` — a final
    manifest or a running record — that :func:`compare_manifests` or
    the ``repro inspect`` fact sheet cannot read."""
    if not isinstance(doc, dict) or doc.get("type") != "run-manifest":
        raise ValueError("not a run manifest (expected type=run-manifest)")
    check_numbers(doc, _NUMBER_FIELDS)
    check_number_map(doc, "phases")
    for field, kind, what in (
        ("config", dict, "an object"),
        ("argv", list, "a list"),
        ("metrics", dict, "an object"),
        ("progress", dict, "an object"),
    ):
        value = doc.get(field)
        if value is not None and not isinstance(value, kind):
            raise ValueError("field {!r} is not {}".format(field, what))
    metrics = doc.get("metrics") or {}
    check_number_map(metrics, "counters", "metrics.")
    check_number_map(metrics, "gauges", "metrics.")
    progress = doc.get("progress") or {}
    check_numbers(progress, _PROGRESS_NUMBER_FIELDS, "progress.")
    check_number_map(progress, "intern", "progress.")
    shards = progress.get("shards")
    if shards is not None:
        if not (
            isinstance(shards, list)
            and all(isinstance(row, dict) for row in shards)
        ):
            raise ValueError(
                "field 'progress.shards' is not a list of objects"
            )
        for row in shards:
            check_numbers(row, _SHARD_NUMBER_FIELDS, "progress.shards[].")


def load_manifest(path):
    """The run manifest at ``path``, checked by :func:`check_manifest`
    (``OSError`` or ``ValueError`` otherwise)."""
    with open(path) as handle:
        doc = json.load(handle)
    check_manifest(doc)
    return doc


def compare_manifests(a, b, tolerance=0.4):
    """``(report_text, regressions)`` between two manifests.

    ``regressions`` lists ``(metric, delta)`` pairs: directed metrics
    whose ratio-symmetric delta is below ``-tolerance``, plus a
    behaviour-fingerprint mismatch when the content hashes agree (same
    input, different behaviours — the one diff that is never noise).
    """
    from repro.framework.report import format_table

    lines = []
    regressions = []
    lines.append(
        "compare: {} ({})  vs  {} ({})".format(
            a.get("command", "?"), a.get("finished_at", "?"),
            b.get("command", "?"), b.get("finished_at", "?"),
        )
    )

    same_input = (
        a.get("content_hash") is not None
        and a.get("content_hash") == b.get("content_hash")
    )
    lines.append(
        "content hash: {}".format(
            "identical" if same_input else "DIFFERENT (or unrecorded)"
        )
    )
    fp_a, fp_b = a.get("fingerprint"), b.get("fingerprint")
    if fp_a is not None or fp_b is not None:
        if fp_a == fp_b:
            lines.append("behaviour fingerprint: identical "
                         "({})".format(fp_a))
        else:
            lines.append(
                "behaviour fingerprint: {} vs {} — DIFFER".format(
                    fp_a, fp_b
                )
            )
            if same_input:
                regressions.append(("fingerprint", -1.0))
    for key in ("verdict", "exit_status"):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            lines.append("{}: {} vs {} — DIFFER".format(key, va, vb))

    cfg_a = a.get("config") or {}
    cfg_b = b.get("config") or {}
    diff_keys = sorted(
        k
        for k in set(cfg_a) | set(cfg_b)
        if cfg_a.get(k) != cfg_b.get(k)
    )
    if diff_keys:
        lines.append("")
        lines.append("config differences:")
        lines.append(
            format_table(
                [
                    (k, repr(cfg_a.get(k)), repr(cfg_b.get(k)))
                    for k in diff_keys
                ],
                headers=("Key", "A", "B"),
            )
        )

    rows = []
    for metric, higher in _DIRECTED:
        va, vb = a.get(metric), b.get(metric)
        if va is None or vb is None:
            continue
        delta = ratio_delta(float(va), float(vb), higher)
        rows.append((metric, va, vb, delta, higher))
        if delta < -tolerance:
            regressions.append((metric, delta))
    ph_a = a.get("phases") or {}
    ph_b = b.get("phases") or {}
    shared_phases = sorted(
        set(ph_a) & set(ph_b),
        key=lambda k: -max(ph_a[k], ph_b[k]),
    )[:_TOP_ROWS]
    for name in shared_phases:
        delta = ratio_delta(ph_a[name], ph_b[name], False)
        rows.append(
            ("phase:{}".format(name), ph_a[name], ph_b[name], delta,
             False)
        )
    if rows:
        lines.append("")
        lines.append(
            "directed metrics (positive delta = B improves on A):"
        )
        lines.append(
            format_table(
                [
                    (
                        name,
                        _fmt(va),
                        _fmt(vb),
                        "{:+.1%}".format(delta),
                        "higher" if higher else "lower",
                    )
                    for name, va, vb, delta, higher in rows
                ],
                headers=("Metric", "A", "B", "Delta", "Better"),
            )
        )

    ctr_a = (a.get("metrics") or {}).get("counters") or {}
    ctr_b = (b.get("metrics") or {}).get("counters") or {}
    changed = [
        (k, ctr_a[k], ctr_b[k],
         ratio_delta(float(ctr_a[k]), float(ctr_b[k]), True))
        for k in set(ctr_a) & set(ctr_b)
        if ctr_a[k] != ctr_b[k]
    ]
    changed.sort(key=lambda row: -abs(row[3]))
    if changed:
        lines.append("")
        lines.append(
            "counters that changed (top {} by relative change; "
            "informational, not gated):".format(_TOP_ROWS)
        )
        lines.append(
            format_table(
                [
                    (k, _fmt(va), _fmt(vb), "{:+.1%}".format(d))
                    for k, va, vb, d in changed[:_TOP_ROWS]
                ],
                headers=("Counter", "A", "B", "Change"),
            )
        )

    lines.append("")
    if regressions:
        lines.append(
            "regressions beyond tolerance {:.0%}:".format(tolerance)
        )
        for metric, delta in regressions:
            lines.append(
                "  {}: {:+.1%}".format(metric, delta)
            )
    else:
        lines.append(
            "no regression beyond tolerance {:.0%}.".format(tolerance)
        )
    return "\n".join(lines), regressions


def _fmt(value):
    if isinstance(value, float):
        return "{:,.4f}".format(value)
    if isinstance(value, int):
        return "{:,}".format(value)
    return str(value)
