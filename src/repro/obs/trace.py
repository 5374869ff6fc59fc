"""Span-based tracing: JSON-lines events with monotonic timestamps.

A :class:`Tracer` writes one JSON object per line to a sink:

* ``{"type": "meta", ...}`` — a header line identifying the schema;
* ``{"type": "span", "name", "sid", "parent", "ts", "dur", "attrs"}``
  — one complete span, emitted when it closes.  ``ts`` is the span's
  start, seconds since the trace began (``time.monotonic`` based, so
  durations are immune to wall-clock jumps); ``parent`` is the ``sid``
  of the enclosing span or ``null`` at top level;
* ``{"type": "event", "name", "sid", "parent", "ts", "attrs"}`` — an
  instant (zero-duration) event nested under the current span;
* ``{"type": "metrics", "data": ...}`` — the final metrics snapshot,
  appended on shutdown when the metrics registry is also enabled.

Nesting is tracked per thread; ``sid`` assignment is a shared atomic
counter so ids are unique across threads.
"""

import itertools
import json
import threading
import time

TRACE_SCHEMA_VERSION = 1


class Span:
    """A live span: use as a context manager; ``set`` adds attributes."""

    __slots__ = ("tracer", "name", "sid", "parent", "t0", "attrs")

    def __init__(self, tracer, name, sid, parent, t0, attrs):
        self.tracer = tracer
        self.name = name
        self.sid = sid
        self.parent = parent
        self.t0 = t0
        self.attrs = attrs

    def set(self, **attrs):
        """Attach attributes discovered while the span is running."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.finish(self, exc_type)
        return False


class NullSpan:
    """The disabled fast path: a shared, allocation-free no-op span.

    ``repro.obs.span`` returns this singleton whenever observability is
    off, so instrumented ``with`` blocks cost one function call and two
    no-op method calls — no allocation, no clock read.
    """

    __slots__ = ()

    def set(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = NullSpan()


class Tracer:
    """Writes spans and events as JSON lines to a file-like sink.

    ``base_attrs`` are merged into every span and event record (span
    attributes win on collision) and echoed on the ``meta`` header
    line. The parallel explorer's forked workers use this to stamp a
    ``wid`` on every record of their per-worker trace file, so merged
    readings can always attribute a span to its shard.
    """

    def __init__(self, sink, close_sink=False, base_attrs=None):
        self.sink = sink
        self.close_sink = close_sink
        self.base_attrs = dict(base_attrs) if base_attrs else None
        self.t0 = time.monotonic()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        meta = {
            "type": "meta",
            "version": TRACE_SCHEMA_VERSION,
            "clock": "monotonic",
        }
        if self.base_attrs:
            meta["attrs"] = dict(self.base_attrs)
        self._write(meta)

    # ----- span lifecycle --------------------------------------------------

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_sid(self):
        stack = self._stack()
        return stack[-1].sid if stack else None

    def start(self, name, attrs=None):
        span = Span(
            self,
            name,
            next(self._ids),
            self.current_sid(),
            time.monotonic(),
            dict(attrs) if attrs else {},
        )
        self._stack().append(span)
        return span

    def finish(self, span, exc_type=None):
        dur = time.monotonic() - span.t0
        stack = self._stack()
        if span in stack:
            # Tolerate out-of-order exits instead of corrupting nesting.
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        record = {
            "type": "span",
            "name": span.name,
            "sid": span.sid,
            "parent": span.parent,
            "ts": round(span.t0 - self.t0, 9),
            "dur": round(dur, 9),
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        attrs = span.attrs
        if self.base_attrs:
            attrs = dict(self.base_attrs, **attrs)
        if attrs:
            record["attrs"] = attrs
        self._write(record)
        return dur

    def event(self, name, attrs=None):
        record = {
            "type": "event",
            "name": name,
            "sid": next(self._ids),
            "parent": self.current_sid(),
            "ts": round(time.monotonic() - self.t0, 9),
        }
        merged = dict(self.base_attrs) if self.base_attrs else {}
        if attrs:
            merged.update(attrs)
        if merged:
            record["attrs"] = merged
        self._write(record)

    def metrics(self, snapshot):
        self._write({"type": "metrics", "data": snapshot})

    # ----- output ---------------------------------------------------------

    def _write(self, record):
        line = json.dumps(record, sort_keys=True, default=str)
        with self._lock:
            self.sink.write(line + "\n")

    def flush(self):
        """Push buffered lines to the OS now.

        The parallel explorer calls this immediately before forking
        workers: a fork duplicates the sink's userspace buffer, and a
        child that later garbage-collects its inherited copy would
        flush those same bytes a second time into the shared file
        descriptor — interleaving duplicate, possibly torn JSONL lines
        into the parent's trace. An empty buffer makes the inherited
        copy harmless.
        """
        with self._lock:
            self.sink.flush()

    def close(self):
        with self._lock:
            try:
                self.sink.flush()
            finally:
                if self.close_sink:
                    self.sink.close()


def read_trace(path_or_file, strict=False):
    """Parse a JSON-lines trace back into a list of records.

    Trace files get truncated — a crashed run leaves a torn final
    line, a filled disk leaves garbage — so by default corrupt lines
    (and lines that parse as JSON but not as an object) are *skipped*,
    not fatal: the good records still parse, the skip
    count lands in the ``trace.read.skipped_lines`` counter and a
    single (rate-limited) warning names the file. ``strict=True``
    restores the raising behaviour for tests that want to pin down
    writer bugs.
    """
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
        name = getattr(path_or_file, "name", "<trace>")
    else:
        with open(path_or_file) as handle:
            lines = handle.read().splitlines()
        name = str(path_or_file)
    records = []
    skipped = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("not a JSON object: {!r}".format(line))
        except ValueError:
            if strict:
                raise
            skipped += 1
            continue
        records.append(rec)
    if skipped:
        # Imported here: repro.obs imports this module at load time.
        from repro import obs

        obs.inc("trace.read.skipped_lines", skipped)
        obs.warn(
            "skipped {} corrupt line(s) reading trace {}".format(
                skipped, name
            )
        )
    return records
