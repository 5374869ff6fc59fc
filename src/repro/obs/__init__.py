"""Unified observability: metrics registry + span tracer + profiling.

This package is the single switchboard the hot layers (exploration,
validation, the compiler pipeline) report through. Its contract:

* **Disabled is free.** The module-level :data:`enabled` flag is
  ``False`` by default; every helper checks it before allocating
  anything, and instrumented loops are expected to hoist the check
  (``track = obs.enabled``) so the off cost is one attribute load per
  call site. :func:`span` returns the shared
  :data:`~repro.obs.trace.NULL_SPAN` singleton when disabled.
* **One switch, two backends.** :func:`configure` turns on a process-
  wide :class:`~repro.obs.metrics.MetricsRegistry` (``--metrics``)
  and/or a JSON-lines :class:`~repro.obs.trace.Tracer` (``--trace
  FILE``). Spans feed both: every closed span is written
  to the trace and its duration observed into the
  ``span.<name>.seconds`` histogram, which is how per-phase profiling
  appears in the metrics table.
* **Warnings always flow, once.** :func:`warn` prints one line to
  stderr regardless of the flags (and records it as a counter + trace
  event when they are on), so diagnosable conditions — e.g.
  exploration truncation — surface from the CLI without extra flags.
  Identical messages are printed only the first time; repeats are
  counted and a per-message suppression summary is printed on
  :func:`shutdown`, so a hot loop cannot flood stderr.
* **One run record on top.** :mod:`~repro.obs.ledger` (``--ledger``)
  reuses this switchboard for *during-* and *after-the-run*
  introspection: while the run goes, the exploration loops atomically
  rewrite the record's progress block every interval — progress,
  rolling states/s, per-shard liveness — read back by ``repro inspect
  FILE``; on exit the record becomes a versioned manifest (resolved
  config, content hash, phase times, peak RSS, the final metrics,
  verdict, behaviour fingerprint) that ``repro inspect`` renders and
  ``repro compare`` diffs.

Typical instrumentation::

    from repro import obs

    def explore(...):
        with obs.span("explore"):
            track = obs.enabled
            ...
            if track:
                obs.inc("explore.states_visited", graph.state_count())
"""

import sys
import time

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer, read_trace

__all__ = [
    "enabled",
    "configure",
    "shutdown",
    "reset",
    "metrics_enabled",
    "trace_enabled",
    "span",
    "event",
    "inc",
    "set_gauge",
    "gauge_max",
    "observe",
    "warn",
    "snapshot",
    "dump",
    "merge_dump",
    "counter_value",
    "gauge_value",
    "render_summary",
    "read_trace",
    "NULL_SPAN",
]

#: Fast-path flag: True iff metrics and/or tracing is active. Hot
#: loops read this once per call (``track = obs.enabled``).
enabled = False

#: The active registry / tracer, or ``None`` when off.
registry = None
tracer = None

#: The path the tracer writes to when :func:`configure` was given one
#: (``None`` for file-like sinks or when tracing is off). The parallel
#: explorer reads this to derive per-worker trace paths
#: (``<path>.w<wid>``) for its forked workers.
trace_path = None

#: Per-message occurrence counts backing the warn rate limiter.
_warn_counts = {}


def _refresh_enabled():
    global enabled
    enabled = registry is not None or tracer is not None


def configure(metrics=False, trace=None, trace_base_attrs=None):
    """Enable observability backends (idempotent; layers on top of any
    already-active configuration).

    ``metrics`` — truthy to activate the process-wide registry.
    ``trace`` — a path or file-like object for JSON-lines output.
    ``trace_base_attrs`` — attributes stamped on every trace record
    (forked workers pass ``{"wid": N}``).
    """
    global registry, tracer, trace_path
    if metrics and registry is None:
        registry = MetricsRegistry()
    if trace is not None and tracer is None:
        if hasattr(trace, "write"):
            tracer = Tracer(trace, base_attrs=trace_base_attrs)
        else:
            tracer = Tracer(
                open(trace, "w"), close_sink=True,
                base_attrs=trace_base_attrs,
            )
            trace_path = str(trace)
    _refresh_enabled()


def _flush_warn_summary():
    suppressed = {
        msg: n - 1 for msg, n in _warn_counts.items() if n > 1
    }
    _warn_counts.clear()
    for msg, extra in suppressed.items():
        print(
            "repro: warning: (suppressed {} repeat(s) of: {})".format(
                extra, msg
            ),
            file=sys.stderr,
        )


def shutdown():
    """Flush everything and disable: append the metrics snapshot to the
    tracer (when both backends are on), print the suppressed-warning
    summary, close the tracer."""
    global registry, tracer, trace_path
    if tracer is not None:
        if registry is not None:
            tracer.metrics(registry.snapshot())
        tracer.close()
    _flush_warn_summary()
    registry = None
    tracer = None
    trace_path = None
    _refresh_enabled()


def reset():
    """Hard reset for tests: drop state without flushing."""
    global registry, tracer, trace_path
    registry = None
    tracer = None
    trace_path = None
    _warn_counts.clear()
    _refresh_enabled()


def metrics_enabled():
    return registry is not None


def trace_enabled():
    return tracer is not None


# ----- recording -----------------------------------------------------------


class _MetricsOnlySpan:
    """Span used when metrics are on but tracing is off: records the
    duration histogram without any trace output."""

    __slots__ = ("name", "t0", "attrs")

    def __init__(self, name, attrs):
        self.name = name
        self.attrs = attrs
        self.t0 = time.monotonic()

    def set(self, **attrs):
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if registry is not None:
            registry.observe(
                "span.{}.seconds".format(self.name),
                time.monotonic() - self.t0,
            )
        return False


def span(name, **attrs):
    """A context-managed span; the shared no-op singleton when off."""
    if tracer is not None:
        return _TracedSpan(tracer.start(name, attrs))
    if registry is not None:
        return _MetricsOnlySpan(name, attrs)
    return NULL_SPAN


class _TracedSpan:
    """Wraps a tracer span so its duration also lands in the metrics
    histogram on exit."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = inner

    @property
    def name(self):
        return self.inner.name

    @property
    def sid(self):
        return self.inner.sid

    @property
    def attrs(self):
        return self.inner.attrs

    def set(self, **attrs):
        self.inner.set(**attrs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        dur = self.inner.tracer.finish(self.inner, exc_type)
        if registry is not None:
            registry.observe(
                "span.{}.seconds".format(self.inner.name), dur
            )
        return False


def event(name, **attrs):
    """An instant trace event (no-op unless tracing is on)."""
    if tracer is not None:
        tracer.event(name, attrs)


def inc(name, n=1):
    if registry is not None:
        registry.inc(name, n)


def set_gauge(name, value):
    if registry is not None:
        registry.set_gauge(name, value)


def gauge_max(name, value):
    if registry is not None:
        registry.gauge_max(name, value)


def observe(name, value):
    if registry is not None:
        registry.observe(name, value)


def warn(message, **attrs):
    """One-line diagnostic on stderr; counted/traced when on.

    Rate-limited per message text: the first occurrence prints, repeats
    are silently tallied and summarized by :func:`shutdown` (every
    occurrence still reaches the ``warnings`` counter and the trace, so
    artifacts see the true count).
    """
    count = _warn_counts.get(message, 0) + 1
    _warn_counts[message] = count
    if count == 1:
        print("repro: warning: {}".format(message), file=sys.stderr)
    if registry is not None:
        registry.inc("warnings")
        if count > 1:
            registry.inc("warnings.suppressed")
    if tracer is not None:
        tracer.event("warning", dict(attrs, message=message))


# ----- reading back --------------------------------------------------------


def snapshot():
    """The metrics snapshot, or an empty one when metrics are off."""
    if registry is None:
        return {"counters": {}, "gauges": {}, "histograms": {}}
    return registry.snapshot()


def dump():
    """The registry's mergeable state (see
    :meth:`~repro.obs.metrics.MetricsRegistry.dump`), or ``None`` when
    metrics are off. What forked workers ship to the coordinator."""
    if registry is None:
        return None
    return registry.dump()


def merge_dump(data):
    """Generically merge a worker's :func:`dump` into the active
    registry (counters add, gauges max, histograms merge); a no-op
    when metrics are off or ``data`` is ``None``."""
    if registry is not None and data is not None:
        registry.merge(data)


def counter_value(name, default=0):
    if registry is None:
        return default
    counter = registry.counters.get(name)
    return default if counter is None else counter.value


def gauge_value(name, default=0):
    if registry is None:
        return default
    gauge = registry.gauges.get(name)
    return default if gauge is None else gauge.value


def render_summary():
    """The metrics summary as a plain-text table block."""
    from repro.obs.render import render_metrics

    return render_metrics(snapshot())

