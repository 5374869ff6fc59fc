"""The interleaving inspector: render artifacts for human eyes.

Four artifact families come out of the tool — **witness** files (one
JSON object: a replayable schedule plus its verdict, written by ``drf
--witness-out`` / ``repro replay``), **trace** files (JSON lines of
spans/events/metrics, written by ``--trace``), **run ledgers**
(``--ledger``), and the **fuzz** campaign's files.
``repro inspect FILE`` sniffs which one it was handed and renders it:

* a witness becomes a per-thread timeline — one column per thread,
  one row per scheduling step, each cell showing what the acting
  thread did (``τ``, an event, a context switch, the abort) with the
  step footprint alongside and every address involved in the racy
  conflict marked with ``*``;
* a trace renders through :func:`repro.obs.profile.render_profile`
  — spans by self-time, event and warning tallies, per-shard phases
  and the final metrics snapshot when one was appended;
* a run ledger becomes a compact fact sheet — command, verdict,
  wall/phase times, peak RSS, states/s, resolved config, content hash,
  the progress block (phase, progress against the budget, rates,
  intern tables and the per-shard table, with a warning when a
  running record's last beat is stale; ``watch repro inspect FILE``
  follows a live run) and the final metrics (counters, gauges and
  histogram summaries);
* a fuzz campaign's **findings log** becomes a per-finding table
  (kind, generator, input hash, expected?, witness path) and its
  **checkpoint** a one-glance progress line — the ``repro fuzz``
  artifacts (see :mod:`repro.fuzz.corpus`).

Rendering is pure string-building over the deserialized artifacts; it
never re-executes anything (that is ``repro replay``'s job).
"""

import json
import time

#: While the run goes, a beat older than ``max(STALE_FACTOR *
#: interval, STALE_FLOOR)`` seconds is rendered with a stale warning.
STALE_FACTOR = 3.0
STALE_FLOOR = 5.0


def racy_addrs(race):
    """The addresses that make a recorded prediction pair conflict.

    A conflict needs one side's writes to meet the other side's
    footprint, so the culprits are ``(ws1 ∩ locs2) ∪ (ws2 ∩ locs1)``.
    Empty for abort witnesses (no race dict).
    """
    if not race:
        return frozenset()
    rs1 = set(race.get("rs1", ()))
    ws1 = set(race.get("ws1", ()))
    rs2 = set(race.get("rs2", ()))
    ws2 = set(race.get("ws2", ()))
    return frozenset((ws1 & (rs2 | ws2)) | (ws2 & (rs1 | ws1)))


def _addr_list(addrs, hot):
    return ",".join(
        "{}{}".format(a, "*" if a in hot else "") for a in addrs
    )


def _fp_str(rs, ws, hot):
    """``r{...} w{...}`` with racy addresses starred; '' when absent."""
    parts = []
    if rs:
        parts.append("r{" + _addr_list(rs, hot) + "}")
    if ws:
        parts.append("w{" + _addr_list(ws, hot) + "}")
    return " ".join(parts)


def _cell(step):
    kind = step.kind
    if kind == "tau":
        return "τ"
    if kind == "sw":
        return "~~> t{}".format(step.to)
    if kind == "event":
        if step.detail is not None:
            return "{} {}".format(step.detail[0], step.detail[1])
        return "event"
    if kind == "abort":
        return "ABORT"
    return kind


def _pred_str(race, side, hot):
    return "t{} {} (atomic={})".format(
        race.get("tid" + side),
        _fp_str(race.get("rs" + side, ()), race.get("ws" + side, ()),
                hot) or "∅",
        race.get("bit" + side, 0),
    )


def render_witness(record):
    """The per-thread timeline of a witness record, as plain text."""
    from repro.framework.report import format_table

    schedule = record.schedule
    hot = racy_addrs(record.race)
    tids = sorted(
        {st.tid for st in schedule.steps if st.tid is not None}
        | {st.to for st in schedule.steps if st.to is not None}
        | {
            record.race[k]
            for k in ("tid1", "tid2")
            if record.race and k in record.race
        }
    )
    lines = [
        "witness: verdict={}{}  semantics={}  por={}  steps={}".format(
            record.verdict,
            " (minimized)" if record.minimized else "",
            schedule.semantics,
            schedule.por,
            len(schedule.steps),
        )
    ]
    if record.program:
        prog = record.program
        desc = ", ".join(
            "{}={}".format(k, prog[k]) for k in sorted(prog)
        )
        lines.append("program: " + desc)
    lines.append("")
    if schedule.steps:
        headers = ["Step"] + ["t{}".format(t) for t in tids] + [
            "Footprint"
        ]
        rows = []
        for n, st in enumerate(schedule.steps):
            cells = [""] * len(tids)
            if st.tid in tids:
                cells[tids.index(st.tid)] = _cell(st)
            fp = _fp_str(st.rs or (), st.ws or (), hot)
            if st.kind == "abort" and st.detail:
                fp = str(st.detail)
            rows.append([str(n)] + cells + [fp])
        lines.append(format_table(rows, headers=headers))
    else:
        lines.append("(empty schedule: the initial world is already "
                     "the witness state)")
    lines.append("")
    if record.verdict == "race" and record.race:
        lines.append(
            "race at the final world: {}  ⌢  {}".format(
                _pred_str(record.race, "1", hot),
                _pred_str(record.race, "2", hot),
            )
        )
        if hot:
            lines.append(
                "conflicting address(es): {}".format(
                    ", ".join(str(a) for a in sorted(hot))
                )
            )
    elif record.verdict == "abort":
        last = schedule.steps[-1] if schedule.steps else None
        reason = last.detail if last is not None else None
        lines.append("abort: {}".format(reason or "(unknown reason)"))
    return "\n".join(lines)


def _rate(value):
    return "-" if value is None else "{:,.1f}".format(value)


def _render_progress(progress, running, now=None):
    """A run ledger's ``progress`` block as plain-text lines.

    While the run goes (``running``), the age of the last beat is
    shown, and a beat older than ``max(STALE_FACTOR * interval,
    STALE_FLOOR)`` seconds is flagged: the run may be stuck, swapped
    out or dead.
    """
    from repro.framework.report import format_table
    from repro.obs.ledger import DEFAULT_INTERVAL

    head = "progress: phase={}  pid={}  uptime {:.1f}s  beat #{}".format(
        progress.get("phase", "?"),
        progress.get("pid", "?"),
        progress.get("uptime_seconds", 0.0) or 0.0,
        progress.get("beats", 0),
    )
    lines = [head]
    if running:
        if now is None:
            now = time.time()
        age = max(0.0, now - (progress.get("time") or now))
        interval = progress.get("interval_seconds") or DEFAULT_INTERVAL
        lines[0] += " ({:.1f}s ago)".format(age)
        if age > max(STALE_FACTOR * interval, STALE_FLOOR):
            lines.append(
                "WARNING: last beat is {:.1f}s old (interval {:.1f}s) "
                "— the run may be stuck, swapped out, or dead".format(
                    age, interval
                )
            )
    states = progress.get("states", 0) or 0
    explored = "explored: {:,} state(s), frontier {:,}".format(
        states, progress.get("frontier", 0) or 0
    )
    budget = progress.get("budget")
    if budget:
        explored += ", budget {:,}/{:,} ({:.1%})".format(
            states, budget, progress.get("budget_used", 0.0) or 0.0,
        )
        eta = progress.get("eta_budget_seconds")
        if eta is not None:
            explored += ", budget exhausted in ~{:.0f}s".format(eta)
    lines.append(explored)
    lines.append(
        "rate: {} states/s rolling, {} overall".format(
            _rate(progress.get("rolling_states_per_second")),
            _rate(progress.get("overall_states_per_second")),
        )
    )
    interned = progress.get("intern")
    if interned:
        lines.append(
            "intern tables: "
            + "  ".join(
                "{}={:,}".format(name, size)
                for name, size in sorted(interned.items())
            )
        )
    shards = progress.get("shards")
    if shards:
        rows = []
        for row in shards:
            shard_age = row.get("age_seconds")
            alive = row.get("alive")
            rows.append(
                (
                    "w{}".format(row.get("wid")),
                    "{:,}".format(row.get("states", 0) or 0),
                    "{:,}".format(row.get("frontier", 0) or 0),
                    row.get("phase") or "-",
                    str(row.get("beats", 0)),
                    "-" if shard_age is None
                    else "{:.1f}s".format(shard_age),
                    "-" if alive is None else ("yes" if alive else "NO"),
                )
            )
        lines.append("")
        lines.append(
            format_table(
                rows,
                headers=(
                    "Shard", "States", "Frontier", "Phase", "Beats",
                    "Beat age", "Alive",
                ),
            )
        )
    return lines


def render_manifest_summary(doc, now=None):
    """A run ledger, running or final, as a compact plain-text fact
    sheet (``now`` dates a running record's last beat)."""
    from repro.framework.report import format_table

    running = doc.get("status") == "running"
    if running:
        lines = [
            "run manifest: command={}  status=running".format(
                doc.get("command", "?")
            ),
            "started {}".format(doc.get("started_at", "?")),
        ]
    else:
        lines = [
            "run manifest: command={}  verdict={}  exit={}".format(
                doc.get("command", "?"),
                doc.get("verdict", "?"),
                doc.get("exit_status"),
            ),
            "started {}  finished {}  wall {:.3f}s{}".format(
                doc.get("started_at", "?"),
                doc.get("finished_at", "?"),
                doc.get("wall_seconds") or 0.0,
                "" if doc.get("peak_rss_mib") is None
                else "  peak RSS {:.1f} MiB".format(doc["peak_rss_mib"]),
            ),
        ]
    if doc.get("argv"):
        lines.append("argv: " + " ".join(str(a) for a in doc["argv"]))
    if doc.get("content_hash"):
        lines.append("content hash: {}".format(doc["content_hash"]))
    if doc.get("fingerprint"):
        lines.append(
            "behaviour fingerprint: {}".format(doc["fingerprint"]))
    if doc.get("states"):
        rate = doc.get("states_per_second")
        lines.append(
            "states: {:,}{}".format(
                doc["states"],
                "" if not rate else "  ({:,.1f} states/s)".format(rate),
            )
        )
    progress = doc.get("progress")
    if progress:
        lines.append("")
        lines.extend(_render_progress(progress, running, now))
    config = doc.get("config") or {}
    if config:
        lines.append("")
        lines.append(
            format_table(
                [(k, str(config[k])) for k in sorted(config)],
                headers=("Config", "Value"),
            )
        )
    phases = doc.get("phases") or {}
    if phases:
        lines.append("")
        lines.append(
            format_table(
                [
                    (name, "{:.6f}".format(phases[name]))
                    for name in sorted(
                        phases, key=phases.get, reverse=True
                    )
                ],
                headers=("Phase", "Seconds"),
            )
        )
    metrics = doc.get("metrics") or {}
    sections = {
        key: metrics.get(key) or {}
        for key in ("counters", "gauges", "histograms")
    }
    if any(sections.values()):
        from repro.obs.render import render_metrics

        lines.append("")
        lines.append("final metrics:")
        lines.append(render_metrics(sections))
    return "\n".join(lines)


def _campaign_line(campaign):
    return "campaign: " + (
        ", ".join(
            "{}={}".format(k, campaign[k]) for k in sorted(campaign)
        )
        or "(unknown)"
    )


def render_findings_summary(doc):
    """A fuzz campaign's findings log as a plain-text digest."""
    from repro.framework.report import format_table

    findings = doc.get("findings") or []
    unexpected = sum(
        1 for f in findings if not f.get("expected")
    )
    lines = [
        "fuzz findings: {} total, {} unexpected".format(
            len(findings), unexpected
        ),
        _campaign_line(doc.get("campaign") or {}),
    ]
    if findings:
        rows = []
        for f in findings:
            inp = f.get("input") or {}
            rows.append(
                (
                    f.get("kind", "?"),
                    inp.get("kind", "?"),
                    str(inp.get("index", "?")),
                    (inp.get("hash") or "?")[:12],
                    "yes" if f.get("expected") else "NO",
                    str(
                        f.get("schedule_steps")
                        if f.get("schedule_steps") is not None
                        else "-"
                    ),
                    f.get("witness") or "-",
                )
            )
        lines.append("")
        lines.append(
            format_table(
                rows,
                headers=("Finding", "Generator", "Index", "Hash",
                         "Expected", "Steps", "Witness"),
            )
        )
        lines.append("")
        for n, f in enumerate(findings):
            detail = (f.get("detail") or "").strip().splitlines()
            if detail:
                lines.append("[{}] {}".format(n, detail[-1]))
    return "\n".join(lines)


def render_checkpoint_summary(doc):
    """A fuzz campaign's resume point as a one-glance progress line."""
    state = doc.get("payload") or {}
    done = state.get("done") or {}
    count = state.get("count") or 0
    lines = [
        "fuzz checkpoint: {}/{} input(s) finished{}".format(
            len(done), count,
            "" if len(done) < count else " (campaign complete)",
        ),
        "campaign: seed={}, kinds={}, generator v{}".format(
            state.get("seed"),
            ",".join(state.get("kinds") or ()) or "?",
            state.get("generator_version"),
        ),
    ]
    remaining = [
        i for i in range(count) if str(i) not in done
    ]
    if remaining:
        shown = ", ".join(str(i) for i in remaining[:12])
        if len(remaining) > 12:
            shown += ", ... (+{} more)".format(len(remaining) - 12)
        lines.append("pending index(es): " + shown)
    return "\n".join(lines)


#: Whole-file JSON ``"type"`` values the sniffer recognises.
_DOC_TYPES = (
    "witness", "run-manifest", "fuzz-findings", "fuzz-checkpoint",
)


def _is_record(line):
    try:
        return isinstance(json.loads(line), dict)
    except ValueError:
        return False


def sniff_artifact(path):
    """What kind of artifact ``path`` is.

    One of :data:`_DOC_TYPES`, ``"trace"`` or ``None``: the documents
    are single (typically indented) JSON objects self-describing via
    their ``"type"`` key; anything else with at least one line that
    parses as a JSON object is treated as a JSON-lines trace, and a
    file with none (empty, truncated or garbled) is ``None``.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        rec = json.loads(text)
    except ValueError:
        rec = None
    if isinstance(rec, dict) and rec.get("type") in _DOC_TYPES:
        return rec["type"]
    if any(_is_record(line) for line in text.splitlines()):
        return "trace"
    return None


def inspect_path(path):
    """Render whichever artifact lives at ``path``."""
    from repro.obs import ledger
    from repro.obs.profile import load_profile, render_profile
    from repro.semantics.witness import load_witness

    kind = sniff_artifact(path)
    if kind is None:
        raise ValueError(
            "not a witness, run manifest, fuzz artifact or trace: no "
            "line parses as a JSON object"
        )
    if kind == "trace":
        return render_profile(load_profile(path))
    if kind == "witness":
        return render_witness(load_witness(path))
    if kind == "run-manifest":
        return render_manifest_summary(ledger.load_manifest(path))
    with open(path) as handle:
        doc = json.load(handle)
    if kind == "fuzz-findings":
        return render_findings_summary(doc)
    return render_checkpoint_summary(doc)
