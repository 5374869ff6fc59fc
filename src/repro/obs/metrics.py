"""Process-wide metrics primitives: counters, gauges, histograms.

The registry is deliberately simple — named instruments living in
plain dicts, created on first touch. Speed matters only *relative to
the disabled path*: callers in the hot loops (`semantics.explore`,
`simulation.local`) guard every call behind the module-level
``repro.obs.enabled`` flag, so none of this code runs when
observability is off.

Histograms keep raw observations (bounded by a reservoir cap) so the
summary can report exact min/max/mean and nearest-rank p50/p95 for the
volumes this system produces (per-pass durations, segment sizes —
thousands of points, not millions).

Every instrument is **mergeable**: :meth:`MetricsRegistry.dump`
produces a plain-dict state a forked worker can ship across a process
boundary, and :meth:`MetricsRegistry.merge` folds such a dump into the
receiving registry *generically* — counters add, gauges keep the max,
histograms combine their exact aggregates (count/total/min/max) and
interleave their retained reservoirs. The parallel explorer's
coordinator uses this to absorb each worker's complete snapshot
instead of hand-picking counters, so a new worker-side metric needs no
coordinator change to surface.
"""


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        self.value += n


class Gauge:
    """A point-in-time value; ``set_max`` keeps high-water marks."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def set_max(self, value):
        if value > self.value:
            self.value = value


#: Beyond this many observations a histogram keeps every k-th sample
#: (deterministic decimation — no RNG, so traces stay reproducible).
RESERVOIR_CAP = 65536


class Histogram:
    """A distribution summarised as count/min/max/mean/p50/p95."""

    __slots__ = ("values", "count", "total", "vmin", "vmax", "_stride",
                 "_skip")

    def __init__(self):
        self.values = []
        self.count = 0
        self.total = 0.0
        self.vmin = None
        self.vmax = None
        self._stride = 1
        self._skip = 0

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        if self._skip > 0:
            self._skip -= 1
            return
        self.values.append(value)
        self._skip = self._stride - 1
        if len(self.values) >= RESERVOIR_CAP:
            # Halve the reservoir, double the stride.
            self.values = self.values[::2]
            self._stride *= 2

    def percentile(self, q):
        """Nearest-rank percentile over the retained samples."""
        if not self.values:
            return None
        ordered = sorted(self.values)
        rank = max(
            0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        )
        return ordered[rank]

    def dump(self):
        """Mergeable plain-dict state (exact aggregates + reservoir)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "values": list(self.values),
        }

    def merge_dump(self, dump):
        """Fold another histogram's :meth:`dump` into this one.

        count/total/min/max merge exactly; the reservoirs concatenate
        (re-decimated if the cap is exceeded), so percentiles stay
        representative of the combined stream.
        """
        self.count += dump["count"]
        self.total += dump["total"]
        other_min = dump["min"]
        other_max = dump["max"]
        if other_min is not None and (
            self.vmin is None or other_min < self.vmin
        ):
            self.vmin = other_min
        if other_max is not None and (
            self.vmax is None or other_max > self.vmax
        ):
            self.vmax = other_max
        self.values.extend(dump["values"])
        while len(self.values) >= RESERVOIR_CAP:
            self.values = self.values[::2]
            self._stride *= 2

    def summary(self):
        mean = self.total / self.count if self.count else None
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use."""

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    # ----- instrument lookup ---------------------------------------------

    def counter(self, name):
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name):
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name):
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        return h

    # ----- recording shorthand -------------------------------------------

    def inc(self, name, n=1):
        self.counter(name).inc(n)

    def set_gauge(self, name, value):
        self.gauge(name).set(value)

    def gauge_max(self, name, value):
        self.gauge(name).set_max(value)

    def observe(self, name, value):
        self.histogram(name).observe(value)

    # ----- output ---------------------------------------------------------

    def snapshot(self):
        """A plain-dict view: JSON-serialisable, sorted by name."""
        return {
            "counters": {
                name: c.value
                for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: g.value
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self.histograms.items())
            },
        }

    def dump(self):
        """The registry's complete mergeable state, as plain dicts.

        Unlike :meth:`snapshot` (a human/JSON summary), a dump carries
        the histograms' exact aggregates and retained reservoirs, so a
        receiving registry can :meth:`merge` it without losing
        percentile fidelity. Dumps are what forked workers ship to the
        coordinator.
        """
        return {
            "counters": {
                name: c.value for name, c in self.counters.items()
            },
            "gauges": {
                name: g.value for name, g in self.gauges.items()
            },
            "histograms": {
                name: h.dump() for name, h in self.histograms.items()
            },
        }

    def merge(self, dump):
        """Generically fold a :meth:`dump` into this registry:
        counters add, gauges keep the max, histograms merge."""
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set_max(value)
        for name, hdump in dump.get("histograms", {}).items():
            self.histogram(name).merge_dump(hdump)

    def reset(self):
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
