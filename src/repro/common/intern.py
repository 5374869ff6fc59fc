"""Hash-consing intern tables for the hot-path state machinery.

State-space exploration allocates many small immutable objects, and the
same frame or footprint is rebuilt over and over along different
interleavings. Interning maps each freshly built object to a canonical
representative, so

* dict/set lookups keyed by these objects (the key space's stack ids,
  the race checker's prediction memo) hit the pointer-equality fast path
  CPython's ``dict`` takes before calling ``__eq__``;
* ``__eq__`` implementations short-circuit on ``self is other``;
* cached lazy hashes (``_hash`` slots) are shared instead of recomputed
  per duplicate.

Two tables exist: frames (:mod:`repro.semantics.world`) and footprints
(:mod:`repro.common.footprint`). Worlds are not interned: the
exploration loops dedup by packed-int key
(:mod:`repro.semantics.keyspace`) and build each world once.

Interning is *best effort*: tables are bounded (cleared wholesale when
they exceed ``max_size``), and structural ``__eq__``/``__hash__`` remain
the source of truth, so a cleared table never affects semantics — only
the constant factor.

Hit/miss/clear counts are plain attribute increments (no
observability-layer lookups on the hot path); :func:`stats` and
:func:`totals` expose them, and the explorer publishes per-run deltas
through ``repro.obs`` as the aggregate ``intern.hits`` /
``intern.misses`` counters plus per-table ``intern.table.<name>.*``
metrics (the suite benchmark reads the frame table's); the heartbeat
samples each table's size. ``peak_size`` survives wholesale clears —
it records the largest population a table ever held, so occupancy is
reported honestly across evictions.
Callers that manipulate ``table`` directly for speed (the inlined
intern paths of frames and footprints) must maintain ``clears`` and
``peak_size`` at their own clear/insert sites.
"""

from collections import namedtuple

#: Every table ever created, for :func:`stats` / :func:`clear_all`.
TABLES = []

#: The aggregate counters :func:`totals` returns.
InternTotals = namedtuple(
    "InternTotals", ("hits", "misses", "clears", "peak_size")
)


class InternTable:
    """A bounded canonicalization table: ``intern(x)`` returns the first
    object structurally equal to ``x`` that was interned, or ``x``."""

    __slots__ = (
        "name", "table", "hits", "misses", "clears", "peak_size",
        "max_size",
    )

    def __init__(self, name, max_size=1 << 20):
        self.name = name
        self.table = {}
        self.hits = 0
        self.misses = 0
        self.clears = 0
        self.peak_size = 0
        self.max_size = max_size
        TABLES.append(self)

    def intern(self, obj):
        table = self.table
        got = table.get(obj)
        if got is not None:
            self.hits += 1
            return got
        if len(table) >= self.max_size:
            # Wholesale clear: O(1) amortized, and future duplicates are
            # simply re-canonicalized against fresh representatives.
            self.clears += 1
            table.clear()
        table[obj] = obj
        self.misses += 1
        if len(table) > self.peak_size:
            self.peak_size = len(table)
        return obj

    def __len__(self):
        return len(self.table)

    def __repr__(self):
        return "InternTable({}, size={}, hits={}, misses={})".format(
            self.name, len(self.table), self.hits, self.misses
        )

    def clear(self):
        """Drop all entries (counters are kept — they are cumulative;
        explicit clears are not counted in ``clears``, which tracks
        capacity evictions only)."""
        self.table.clear()


def stats():
    """Per-table cumulative counters:
    ``{name: {hits, misses, size, clears, peak_size, max_size}}``."""
    return {
        t.name: {
            "hits": t.hits,
            "misses": t.misses,
            "size": len(t),
            "clears": t.clears,
            "peak_size": t.peak_size,
            "max_size": t.max_size,
        }
        for t in TABLES
    }


def totals():
    """:class:`InternTotals` summed over every table (``peak_size`` is
    the summed per-table peaks: the worst-case combined population)."""
    hits = 0
    misses = 0
    clears = 0
    peak = 0
    for t in TABLES:
        hits += t.hits
        misses += t.misses
        clears += t.clears
        peak += t.peak_size
    return InternTotals(hits, misses, clears, peak)


def clear_all():
    """Empty every table (for tests and long-running processes)."""
    for t in TABLES:
        t.clear()
