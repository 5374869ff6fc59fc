"""Render a ``--trace`` file: what a run did and where its time went.

This is the one renderer of a trace: ``repro inspect TRACE`` prints
:func:`render_profile` of :func:`load_profile`. It reads the
artifacts a metered run leaves behind —

* the main ``--trace`` JSONL file,
* the per-worker sibling files a parallel run writes next to it
  (``<trace>.w0``, ``<trace>.w1``, ...; see
  :mod:`repro.semantics.parallel`),
* the metrics snapshot, the ``metrics`` record appended to the trace
  on shutdown when the registry was on (``--metrics`` or
  ``--ledger``) —

and renders these sections, each only when the trace has its data:

1. **Per-shard phase breakdown** — for every worker, the wall-clock
   split into expand / encode / decode / idle (from the
   ``parallel.worker.phases`` event each worker appends to its own
   trace), with a coverage column showing how much of the worker's
   wall the four phases explain, plus the coordinator's merge cost.
2. **Per-shard utilization timeline** — each worker's run bucketed
   into a fixed-width bar, idle intervals (the blocking
   ``parallel.worker.idle`` spans) rendered dark, so convoy patterns
   and stragglers are visible at a glance.
3. **Top spans by self-time** — span durations minus their children's,
   aggregated by name across all trace files, so inclusive parents
   (``explore``, ``race.find``) don't drown the leaves that actually
   burn the time; each row also carries the longest single span.
4. **Event and warning tallies** across all trace files.
5. **Wire-cost table** — bytes shipped per direction, batch-size /
   per-world-size histograms and the send-memo hit rate, read from
   the *generically merged* metrics snapshot (the coordinator absorbs
   every worker's full registry; nothing here is hand-picked), ending
   with the expansion-vs-transport verdict that answers "why is
   ``--jobs 2`` slower".
6. **Final metrics** — the whole snapshot as the ``--metrics`` table.

Rendering is pure string-building over the artifacts; nothing is
re-executed.
"""

import glob
import os

from repro.obs.trace import read_trace

#: Character ramp for the utilization timeline (busy fraction).
_RAMP = ("·", "░", "▒", "▓", "█")

#: Buckets in a utilization bar.
_TIMELINE_WIDTH = 48

#: Rows in the top-spans-by-self-time table.
_TOP_SPANS = 12

#: The worker-side phases, in display order. Other ``*_seconds``
#: keys of a phase event (an old trace's ``compile_seconds``) are
#: ignored.
_PHASES = ("expand", "encode", "decode", "idle")


def worker_trace_paths(trace_path):
    """The per-worker sibling files of a main trace, sorted by wid."""
    paths = glob.glob(glob.escape(str(trace_path)) + ".w*")

    def _wid(path):
        suffix = path.rsplit(".w", 1)[-1]
        return int(suffix) if suffix.isdigit() else -1

    return sorted((p for p in paths if _wid(p) >= 0), key=_wid)


def load_profile(trace_path):
    """Gather everything the report renders into one plain dict."""
    main_records = read_trace(trace_path)
    workers = {}
    for path in worker_trace_paths(trace_path):
        records = read_trace(path)
        wid = None
        for rec in records:
            if rec.get("type") == "meta":
                wid = (rec.get("attrs") or {}).get("wid")
                break
        if wid is None:
            wid = int(path.rsplit(".w", 1)[-1])
        workers[wid] = records
    metrics = None
    meta = None
    for rec in main_records:
        if rec.get("type") == "metrics":
            metrics = rec.get("data")
        elif rec.get("type") == "meta" and meta is None:
            meta = rec
    return {
        "trace_path": str(trace_path),
        "meta": meta,
        "main": main_records,
        "workers": workers,
        "metrics": metrics,
    }


def _all_records(profile):
    return [profile["main"]] + list(profile["workers"].values())


# ----- per-shard phases -----------------------------------------------------


def _phase_events(profile):
    """``{wid: attrs}`` from each worker's phases event."""
    out = {}
    for wid, records in sorted(profile["workers"].items()):
        for rec in records:
            if (
                rec.get("type") == "event"
                and rec.get("name") == "parallel.worker.phases"
            ):
                out[wid] = rec.get("attrs") or {}
    return out


def _merge_seconds(profile):
    """Coordinator merge cost: snapshot gauge, else the merge span."""
    metrics = profile["metrics"]
    if metrics:
        value = metrics.get("gauges", {}).get("parallel.merge_seconds")
        if value is not None:
            return value
    for rec in profile["main"]:
        if (
            rec.get("type") == "span"
            and rec.get("name") == "parallel.merge"
        ):
            return rec.get("dur", 0.0)
    return None


def phase_rows(profile):
    """``(rows, totals)`` for the per-shard phase table.

    Each row: wid, wall, the four phase seconds, covered seconds and
    coverage fraction. ``totals`` sums the columns across shards.
    """
    rows = []
    totals = {k: 0.0 for k in _PHASES}
    totals["wall"] = 0.0
    totals["covered"] = 0.0
    for wid, attrs in sorted(_phase_events(profile).items()):
        wall = attrs.get("wall_seconds", 0.0) or 0.0
        phases = {
            k: attrs.get(k + "_seconds", 0.0) or 0.0 for k in _PHASES
        }
        covered = sum(phases.values())
        rows.append(
            {
                "wid": wid,
                "wall": wall,
                "covered": covered,
                "coverage": (covered / wall) if wall > 0 else 0.0,
                **phases,
            }
        )
        totals["wall"] += wall
        totals["covered"] += covered
        for k in _PHASES:
            totals[k] += phases[k]
    return rows, totals


def _aggregate_phase_rows(metrics):
    """Fallback phase table from the merged snapshot histograms when
    per-worker traces are absent (metrics-only runs)."""
    hists = metrics.get("histograms", {}) if metrics else {}
    rows = []
    for key in ("wall",) + _PHASES:
        summ = hists.get("parallel.worker.{}_seconds".format(key))
        if summ and summ.get("count"):
            rows.append(
                (
                    key,
                    summ["count"],
                    summ.get("min"),
                    summ.get("mean"),
                    summ.get("max"),
                    (summ.get("mean") or 0.0) * summ["count"],
                )
            )
    return rows


# ----- self-time ------------------------------------------------------------


def self_times(profile):
    """``{name: [count, self s, total s, max s]}``: span self-time
    (duration minus children) aggregated by name across the main and
    all worker traces."""
    agg = {}
    for records in _all_records(profile):
        spans = [r for r in records if r.get("type") == "span"]
        child_total = {}
        for rec in spans:
            parent = rec.get("parent")
            if parent is not None:
                child_total[parent] = child_total.get(
                    parent, 0.0
                ) + (rec.get("dur", 0.0) or 0.0)
        for rec in spans:
            dur = rec.get("dur", 0.0) or 0.0
            self_dur = max(
                0.0, dur - child_total.get(rec.get("sid"), 0.0)
            )
            entry = agg.setdefault(
                rec.get("name", "?"), [0, 0.0, 0.0, 0.0]
            )
            entry[0] += 1
            entry[1] += self_dur
            entry[2] += dur
            entry[3] = max(entry[3], dur)
    return agg


# ----- events and warnings --------------------------------------------------


def event_tallies(profile):
    """``(events, warnings)``: occurrence counts of each event name
    (warnings excluded) and of each warning message, across the main
    and all worker traces."""
    events = {}
    warnings = {}
    for records in _all_records(profile):
        for rec in records:
            if rec.get("type") != "event":
                continue
            name = rec.get("name", "?")
            if name == "warning":
                msg = (rec.get("attrs") or {}).get("message", "?")
                warnings[msg] = warnings.get(msg, 0) + 1
            else:
                events[name] = events.get(name, 0) + 1
    return events, warnings


# ----- utilization timeline -------------------------------------------------


def utilization(profile, width=_TIMELINE_WIDTH):
    """``[(wid, bar, busy_fraction)]`` per worker trace.

    The bar buckets the worker's run span; each bucket's busy
    fraction is one minus the overlap of the blocking-idle spans.
    """
    out = []
    for wid, records in sorted(profile["workers"].items()):
        wall = None
        for rec in records:
            if (
                rec.get("type") == "span"
                and rec.get("name") == "parallel.worker.run"
            ):
                wall = (rec.get("ts", 0.0), rec.get("dur", 0.0) or 0.0)
        if wall is None or wall[1] <= 0:
            continue
        t0, dur = wall
        idle = [
            (rec.get("ts", 0.0), rec.get("dur", 0.0) or 0.0)
            for rec in records
            if rec.get("type") == "span"
            and rec.get("name") == "parallel.worker.idle"
        ]
        step = dur / width
        bar = []
        idle_total = 0.0
        for i in range(width):
            lo = t0 + i * step
            hi = lo + step
            overlap = 0.0
            for its, idur in idle:
                overlap += max(
                    0.0, min(hi, its + idur) - max(lo, its)
                )
            busy = 1.0 - (overlap / step if step > 0 else 0.0)
            busy = max(0.0, min(1.0, busy))
            bar.append(_RAMP[min(len(_RAMP) - 1, int(busy * len(_RAMP)))])
        for its, idur in idle:
            idle_total += max(
                0.0, min(t0 + dur, its + idur) - max(t0, its)
            )
        out.append(
            (wid, "".join(bar), max(0.0, 1.0 - idle_total / dur))
        )
    return out


# ----- wire cost ------------------------------------------------------------

_WIRE_COUNTERS = (
    ("parallel.wire.bytes_out", "cross-shard world bytes sent"),
    ("parallel.wire.bytes_in", "cross-shard world bytes received"),
    ("parallel.wire.rec_bytes", "expansion-record bytes to coordinator"),
    ("parallel.batches", "batches (incl. coordinator seeds)"),
    ("parallel.cross_edges", "cross-shard successor worlds shipped"),
    ("parallel.wire.delta_hits", "memories shipped as base-cache deltas"),
    ("parallel.wire.full_sends", "memories shipped in full (new base)"),
    ("parallel.wire.base_registrations", "memory bases registered"),
    ("parallel.wire.channel_resets", "channel epoch resets (state bound)"),
    ("serialize.encode.bytes", "total bytes encoded (all envelopes)"),
    ("serialize.decode.bytes", "total bytes decoded (all envelopes)"),
)

_WIRE_HISTOGRAMS = (
    ("parallel.wire.batch_worlds", "worlds per batch"),
    ("parallel.wire.batch_bytes", "bytes per batch"),
    ("parallel.wire.world_bytes", "bytes per shipped world"),
)


def wire_rows(metrics):
    """Scalar and histogram rows for the wire-cost tables."""
    counters = metrics.get("counters", {}) if metrics else {}
    hists = metrics.get("histograms", {}) if metrics else {}
    scalars = [
        (name, desc, counters[name])
        for name, desc in _WIRE_COUNTERS
        if name in counters
    ]
    hits = counters.get("parallel.wire.memo_hits")
    sends = counters.get("parallel.wire.memo_sends")
    if hits is not None or sends is not None:
        hits = hits or 0
        sends = sends or 0
        rate = hits / (hits + sends) if (hits + sends) else 0.0
        scalars.append(
            (
                "parallel.wire.memo_hit_rate",
                "send-memo hit rate (resends avoided)",
                "{:.1%} ({}/{})".format(rate, hits, hits + sends),
            )
        )
    deltas = counters.get("parallel.wire.delta_hits")
    fulls = counters.get("parallel.wire.full_sends")
    if deltas is not None or fulls is not None:
        deltas = deltas or 0
        fulls = fulls or 0
        total = deltas + fulls
        rate = deltas / total if total else 0.0
        scalars.append(
            (
                "parallel.wire.delta_rate",
                "memory sends avoided as deltas",
                "{:.1%} ({}/{})".format(rate, deltas, total),
            )
        )
    hist_rows = [
        (name, desc, hists[name])
        for name, desc in _WIRE_HISTOGRAMS
        if name in hists and hists[name].get("count")
    ]
    return scalars, hist_rows


# ----- rendering ------------------------------------------------------------


def _sec(value):
    return "-" if value is None else "{:.4f}".format(value)


def _num(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "{:.1f}".format(value)
    return str(value)


def render_profile(profile):
    """The full plain-text report of a :func:`load_profile` dict."""
    from repro.framework.report import format_table
    from repro.obs.render import render_metrics

    meta = profile["meta"]
    lines = [
        "profile: {}".format(profile["trace_path"]),
        "trace: {} record(s){}{}".format(
            len(profile["main"]),
            "" if meta is None
            else ", schema v{}".format(meta.get("version")),
            "" if not profile["workers"]
            else ", {} worker trace(s)".format(len(profile["workers"])),
        ),
    ]
    metrics = profile["metrics"]

    rows, totals = phase_rows(profile)
    merge = _merge_seconds(profile)
    if rows:
        lines.append("")
        lines.append("per-shard phase breakdown (seconds):")
        table = [
            ("w{}".format(r["wid"]), _sec(r["wall"]))
            + tuple(_sec(r[k]) for k in _PHASES)
            + ("{:.1%}".format(r["coverage"]),)
            for r in rows
        ]
        table.append(
            ("total", _sec(totals["wall"]))
            + tuple(_sec(totals[k]) for k in _PHASES)
            + (
                "{:.1%}".format(
                    totals["covered"] / totals["wall"]
                    if totals["wall"] > 0
                    else 0.0
                ),
            )
        )
        lines.append(
            format_table(
                table,
                headers=("Shard", "Wall")
                + tuple(k.capitalize() for k in _PHASES)
                + ("Covered",),
            )
        )
        if merge is not None:
            lines.append(
                "coordinator merge (decode + canonical BFS): "
                "{} s".format(_sec(merge))
            )
    elif metrics:
        agg = _aggregate_phase_rows(metrics)
        if agg:
            lines.append("")
            lines.append(
                "per-shard phases (aggregate over {} worker(s); run "
                "with --trace for per-shard rows):".format(
                    agg[0][1]
                )
            )
            lines.append(
                format_table(
                    [
                        (
                            name,
                            _sec(vmin),
                            _sec(mean),
                            _sec(vmax),
                            _sec(total),
                        )
                        for name, _n, vmin, mean, vmax, total in agg
                    ],
                    headers=("Phase", "Min", "Mean", "Max", "Total"),
                )
            )

    bars = utilization(profile)
    if bars:
        lines.append("")
        lines.append(
            "per-shard utilization ({} buckets over each worker's "
            "run; dark = busy):".format(_TIMELINE_WIDTH)
        )
        for wid, bar, busy in bars:
            lines.append(
                "  w{} |{}| busy {:.1%}".format(wid, bar, busy)
            )

    agg = self_times(profile)
    if agg:
        lines.append("")
        lines.append("top spans by self-time:")
        ranked = sorted(
            agg.items(), key=lambda kv: kv[1][1], reverse=True
        )[:_TOP_SPANS]
        lines.append(
            format_table(
                [
                    (name, entry[0])
                    + tuple("{:.6f}".format(v) for v in entry[1:])
                    for name, entry in ranked
                ],
                headers=("Span", "Count", "Self s", "Total s", "Max s"),
            )
        )

    events, warnings = event_tallies(profile)
    if events:
        lines.append("")
        lines.append(
            format_table(sorted(events.items()),
                         headers=("Event", "Count"))
        )
    if warnings:
        lines.append("")
        lines.append(
            format_table(sorted(warnings.items()),
                         headers=("Warning", "Count"))
        )

    if metrics:
        scalars, hist_rows = wire_rows(metrics)
        if scalars or hist_rows:
            lines.append("")
            lines.append("wire cost (from the merged metrics snapshot):")
        if scalars:
            lines.append(
                format_table(
                    [
                        (name, desc, _num(value))
                        for name, desc, value in scalars
                    ],
                    headers=("Metric", "What", "Value"),
                )
            )
        if hist_rows:
            lines.append("")
            lines.append(
                format_table(
                    [
                        (
                            name,
                            summ["count"],
                            _num(summ.get("min")),
                            _num(summ.get("mean")),
                            _num(summ.get("p95")),
                            _num(summ.get("max")),
                        )
                        for name, _desc, summ in hist_rows
                    ],
                    headers=(
                        "Histogram", "Count", "Min", "Mean", "P95",
                        "Max",
                    ),
                )
            )

    verdict = _verdict(rows, totals, merge, metrics)
    if verdict:
        lines.append("")
        lines.append(verdict)

    if metrics is not None:
        lines.append("")
        lines.append("final metrics:")
        lines.append(render_metrics(metrics))
    return "\n".join(lines)


def _verdict(rows, totals, merge, metrics):
    """One sentence attributing the run's cost: expansion vs wire."""
    if not rows:
        return None
    transport = totals["encode"] + totals["decode"] + (merge or 0.0)
    expand = totals["expand"]
    idle = totals["idle"]
    parts = [
        "verdict: {:.3f} s expanding vs {:.3f} s on the wire "
        "(encode+decode+merge) and {:.3f} s idle across {} "
        "shard(s)".format(expand, transport, idle, len(rows))
    ]
    if expand > 0 and transport + idle > expand:
        parts.append(
            "— transport and idle dominate: this run paid more to "
            "ship and wait than to explore (see ROADMAP: real-core "
            "speedup; on one core, idle is the sibling's CPU time)"
        )
    counters = metrics.get("counters", {}) if metrics else {}
    deltas = counters.get("parallel.wire.delta_hits")
    fulls = counters.get("parallel.wire.full_sends")
    if deltas or fulls:
        total = (deltas or 0) + (fulls or 0)
        parts.append(
            "— delta transport: {:.1%} of memory sends crossed as "
            "base-cache deltas ({} delta / {} full), {} channel "
            "reset(s)".format(
                (deltas or 0) / total if total else 0.0,
                deltas or 0,
                fulls or 0,
                counters.get("parallel.wire.channel_resets", 0),
            )
        )
    return " ".join(parts)
