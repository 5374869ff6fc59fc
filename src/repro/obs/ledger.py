"""Run ledger: a versioned manifest of what a CLI run actually did.

``--ledger FILE`` makes every ``repro`` command write one
``run.json`` manifest on exit: the fully *resolved*
configuration (POR/jobs/wire gates — what actually ran, not
what was typed), the hash seed, a content hash of the input program
plus the pass pipeline, per-phase wall times, the peak resident set
size, the final metrics, the behaviour fingerprint, the verdict and
the exit status. It is the one run record: ``repro inspect`` renders
it, and :func:`load_manifest` checks every field it reads.

Two consumers motivate the shape:

* ``repro compare A B`` diffs two manifests — configs, fingerprints,
  phases and counters, with a ratio-symmetric delta
  (:func:`ratio_delta`) — so "did this change make runs slower or
  change behaviour?" is one command over two artifacts instead of
  archaeology over logs.
* The ``content_hash`` key is deliberately the cache key shape the
  ROADMAP's validation-as-a-service item will index: module bytes +
  pass pipeline + semantic gates, hashed. A server can decide "this
  module's verdict is already known" from the manifest alone.

The module-level singleton mirrors :mod:`repro.obs`: the CLI calls
:func:`configure` before dispatching and :func:`finalize` *before*
``obs.shutdown()`` (finalize snapshots the live registry; shutdown
clears it). Manifests are written atomically
(:func:`repro.obs.status.write_atomic`), so a crashed run leaves the
previous manifest intact rather than a torn one.
"""

import hashlib
import json
import os
import resource
import sys
import time

from repro.obs.status import check_number_map, check_numbers, write_atomic

#: Manifest schema version.
VERSION = 1

#: The active ledger, or ``None``.
active = None

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


class RunLedger:
    """Accumulates one run's facts; :meth:`finalize` writes the manifest."""

    def __init__(self, path, command, argv=None):
        self.path = str(path)
        self.command = command
        self.argv = list(argv) if argv is not None else None
        self.t0 = time.monotonic()
        self.started_at = time.time()
        self.config = {}
        self.facts = {}

    def set_config(self, **kv):
        """Record resolved configuration (what actually ran)."""
        self.config.update(kv)

    def note(self, **kv):
        """Record top-level facts: verdict, fingerprint, states, ..."""
        self.facts.update(kv)

    def document(self, exit_status, snapshot=None):
        """The manifest dict (no I/O)."""
        wall = time.monotonic() - self.t0
        doc = {
            "type": "run-manifest",
            "version": VERSION,
            "command": self.command,
            "argv": self.argv,
            "started_at": _iso(self.started_at),
            "finished_at": _iso(time.time()),
            "wall_seconds": round(wall, 6),
            "exit_status": exit_status,
            "peak_rss_mib": round(peak_rss_mib(), 3),
            "config": dict(self.config),
            "seeds": {
                "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
                "python": sys.version.split()[0],
            },
        }
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


def configure(path, command, argv=None):
    global active
    active = RunLedger(path, command, argv=argv)
    return active


def reset():
    global active
    active = None


def set_config(**kv):
    if active is not None:
        active.set_config(**kv)


def note(**kv):
    if active is not None:
        active.note(**kv)


def finalize(exit_status, snapshot=None):
    """Write the manifest and drop the ledger (no-op when inactive)."""
    global active
    if active is None:
        return
    try:
        active.finalize(exit_status, snapshot)
    finally:
        active = None


# ----- comparing manifests -------------------------------------------------

#: Top-level directed metrics the compare gates on.
_DIRECTED = (
    ("states_per_second", True),
    ("wall_seconds", False),
)

#: How many phase rows / counter rows the report shows.
_TOP_ROWS = 12


#: Top-level manifest fields the renderers format as numbers.
_NUMBER_FIELDS = (
    "wall_seconds", "states", "states_per_second", "peak_rss_mib",
)


def check_manifest(doc):
    """Raise ``ValueError`` naming the first field of ``doc`` that
    :func:`compare_manifests` or the ``repro inspect`` fact sheet
    cannot read."""
    if not isinstance(doc, dict) or doc.get("type") != "run-manifest":
        raise ValueError("not a run manifest (expected type=run-manifest)")
    check_numbers(doc, _NUMBER_FIELDS)
    check_number_map(doc, "phases")
    for field, kind, what in (
        ("config", dict, "an object"),
        ("argv", list, "a list"),
        ("metrics", dict, "an object"),
    ):
        value = doc.get(field)
        if value is not None and not isinstance(value, kind):
            raise ValueError("field {!r} is not {}".format(field, what))
    metrics = doc.get("metrics") or {}
    check_number_map(metrics, "counters", "metrics.")
    check_number_map(metrics, "gauges", "metrics.")


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
