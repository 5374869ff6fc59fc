"""Heap and interning telemetry: measure the explored state heap.

An explored graph keeps one packed-int key per state, its edges, and
its key space's stack and memory tables
(:mod:`repro.semantics.keyspace`); the intern tables keep canonical
frames and footprints. This module measures what that heap costs, in
numbers that can be gated and compared across runs:

* :func:`intern_census` — per intern table: live size, cumulative
  hit rate, capacity evictions (``clears``), peak occupancy and a
  bucket-collision estimate (how crowded the backing dict's slots are
  under the current hash function).
* :func:`graph_census` — sharing-aware deep-size accounting over what
  a finished :class:`~repro.semantics.explore.StateGraph` keeps:
  ``bytes_unique`` walks the keys, the edges and the key space's
  stack and memory tables once (every object counted once, however
  many states share it) while ``bytes_if_copied`` sums, per state, the
  tree sizes of its stacks and memory (what a representation keeping
  a private copy of every state would allocate). Their ratio is the
  **sharing factor**, with a per-component-type breakdown showing
  where the bytes live. No world is built: keys are read field by
  field.
* optional ``--heap-profile`` tracemalloc phase snapshots
  (:func:`start_tracemalloc` / :func:`phase_snapshot`), gated because
  tracemalloc slows allocation several-fold.

Everything is published as ordinary ``heap.*`` / ``intern.table.*``
gauges, so it surfaces in ``--metrics-out`` snapshots, the ``repro
profile`` Heap section, and the Prometheus exposition with no extra
plumbing. The graph census is deliberately *post-run* (it walks the
finished graph), so the hot loop never pays for it.
"""

import gc
import os
import sys
import types

from repro import obs
from repro.common import intern

#: Env-var gate for the expensive paths (graph census + tracemalloc).
ENV_HEAP_PROFILE = "REPRO_HEAP_PROFILE"

_TRUTHY = ("1", "true", "yes", "on")

#: Keys sampled per table for the bucket-collision estimate.
_COLLISION_SAMPLE = 4096

#: Per-type rows published as gauges / rendered in the profile.
TOP_TYPES = 8

#: Hard cap on traversed objects (a census must never OOM the run).
_MAX_OBJECTS = 5_000_000

#: CLI override: None defers to the environment.
_flag = None


def set_enabled(value):
    """Tri-state override (the ``--heap-profile`` flag): ``True`` /
    ``False`` win; ``None`` defers to ``REPRO_HEAP_PROFILE``."""
    global _flag
    _flag = None if value is None else bool(value)


def enabled(environ=None):
    """Whether the expensive heap profiling paths should run."""
    if _flag is not None:
        return _flag
    env = os.environ if environ is None else environ
    return env.get(ENV_HEAP_PROFILE, "").strip().lower() in _TRUTHY


# ----- intern-table census --------------------------------------------------


def _dict_capacity(n):
    """CPython dict slot count for ``n`` live entries (growth policy:
    start at 8, resize when 2/3 full — an estimate, not an ABI)."""
    cap = 8
    while n >= (cap * 2) // 3:
        cap <<= 1
    return cap


def _collision_estimate(table):
    """Estimated entries sharing a hash bucket, from a key sample.

    Maps sampled key hashes onto the estimated slot mask; the shortfall
    of distinct slots scaled to the full population approximates how
    many entries probe past their home slot.
    """
    size = len(table)
    if size < 2:
        return 0
    mask = _dict_capacity(size) - 1
    sampled = 0
    buckets = set()
    for key in table:
        buckets.add(hash(key) & mask)
        sampled += 1
        if sampled >= _COLLISION_SAMPLE:
            break
    rate = 1.0 - (len(buckets) / sampled)
    return int(round(rate * size))


def intern_census():
    """Per-table occupancy/effectiveness facts, keyed by table name."""
    out = {}
    for t in intern.TABLES:
        hits, misses = t.hits, t.misses
        total = hits + misses
        out[t.name] = {
            "size": len(t.table),
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
            "clears": t.clears,
            "peak_size": t.peak_size,
            "max_size": t.max_size,
            "capacity_estimate": _dict_capacity(len(t.table)),
            "collisions_estimate": _collision_estimate(t.table),
            "table_bytes": sys.getsizeof(t.table),
        }
    return out


def publish_intern_census(census=None):
    """Surface the census as ``intern.table.<name>.*`` gauges."""
    if not obs.metrics_enabled():
        return
    if census is None:
        census = intern_census()
    for name, entry in census.items():
        prefix = "intern.table.{}.".format(name)
        obs.set_gauge(prefix + "size", entry["size"])
        obs.gauge_max(prefix + "peak_size", entry["peak_size"])
        obs.set_gauge(prefix + "clears", entry["clears"])
        obs.set_gauge(
            prefix + "hit_rate", round(entry["hit_rate"], 6)
        )
        obs.set_gauge(
            prefix + "collisions_estimate",
            entry["collisions_estimate"],
        )
        obs.set_gauge(prefix + "table_bytes", entry["table_bytes"])


# ----- sharing-aware graph deep-size ---------------------------------------

#: Referent types that are program machinery, not state data: the
#: traversal cuts at them so the census measures the state heap, not
#: interpreter internals reachable through a stray reference.
_SKIP_TYPES = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.CodeType,
    types.GetSetDescriptorType,
    types.MemberDescriptorType,
    property,
    classmethod,
    staticmethod,
)


def _children(obj):
    """State-data referents of ``obj`` (generic, via the GC)."""
    return [
        c
        for c in gc.get_referents(obj)
        if c is not None and not isinstance(c, _SKIP_TYPES)
    ]


def graph_census(graph):
    """Sharing-aware deep-size accounting over what ``graph`` keeps.

    Returns a dict with ``bytes_unique`` (each live object reachable
    from the keys, the edges and the key space's stack and memory
    tables, counted once), ``bytes_if_copied`` (per state, the tree
    sizes of its stacks and memory: the no-sharing counterfactual),
    their ratio ``sharing_factor``, per-state averages, the counts of
    states (``worlds``), edges, stacks and memories, and a per-type
    breakdown of the unique bytes.
    """
    ks = graph.keyspace
    stacks = ks.stack_list
    mems = ks.mem_list
    roots = [graph.keys, graph.edges, ks.stacks, stacks, ks.mems, mems]
    sizeof = sys.getsizeof

    # Pass 1: every distinct reachable object, once. The `objects`
    # list keeps everything alive so ids stay stable for pass 2.
    seen = set()
    objects = []
    per_type = {}
    bytes_unique = 0
    truncated = False
    stack = list(roots)
    while stack:
        obj = stack.pop()
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        objects.append(obj)
        if len(objects) > _MAX_OBJECTS:
            truncated = True
            break
        size = sizeof(obj)
        bytes_unique += size
        tname = type(obj).__name__
        agg = per_type.get(tname)
        if agg is None:
            per_type[tname] = agg = [0, 0]
        agg[0] += 1
        agg[1] += size
        stack.extend(_children(obj))

    # Pass 2: memoized tree sizes of the stacks and memories (cycles —
    # impossible for immutable states, but guarded — contribute at
    # their own level only).
    memo = {}
    on_stack = set()
    for root in stacks[1:] + mems:
        work = [(root, False)]
        while work:
            obj, processed = work.pop()
            oid = id(obj)
            if processed:
                total = sizeof(obj)
                for child in _children(obj):
                    total += memo.get(id(child), 0)
                memo[oid] = total
                on_stack.discard(oid)
                continue
            if oid in memo or oid in on_stack or oid not in seen:
                continue
            on_stack.add(oid)
            work.append((obj, True))
            for child in _children(obj):
                cid = id(child)
                if cid not in memo and cid not in on_stack:
                    work.append((child, False))
    stack_tree = [0] + [memo.get(id(st), 0) for st in stacks[1:]]
    mem_tree = [memo.get(id(m), 0) for m in mems]
    bytes_if_copied = 0
    for k in graph.keys:
        _, mid, fields = ks.fields(k)
        bytes_if_copied += mem_tree[mid]
        for field in fields:
            bytes_if_copied += stack_tree[field >> 1]

    n = len(graph.keys)
    return {
        "worlds": n,
        "edges": sum(len(out) for out in graph.edges.values()),
        "stacks": len(stacks) - 1,
        "mems": len(mems),
        "objects": len(objects),
        "bytes_unique": bytes_unique,
        "bytes_if_copied": bytes_if_copied,
        "sharing_factor": (
            round(bytes_if_copied / bytes_unique, 3)
            if bytes_unique
            else 0.0
        ),
        "bytes_per_world_unique": (
            round(bytes_unique / n, 1) if n else 0.0
        ),
        "bytes_per_world_copied": (
            round(bytes_if_copied / n, 1) if n else 0.0
        ),
        "truncated": truncated,
        "per_type": {
            tname: {"count": agg[0], "bytes": agg[1]}
            for tname, agg in per_type.items()
        },
    }


def publish_graph_census(census):
    """Surface the graph census as ``heap.graph.*`` /
    ``heap.type.*`` gauges (exported to Prometheus generically)."""
    if not obs.metrics_enabled():
        return
    for key in (
        "worlds",
        "edges",
        "stacks",
        "mems",
        "objects",
        "bytes_unique",
        "bytes_if_copied",
        "sharing_factor",
        "bytes_per_world_unique",
        "bytes_per_world_copied",
    ):
        obs.set_gauge("heap.graph.{}".format(key), census[key])
    top = sorted(
        census["per_type"].items(), key=lambda kv: -kv[1]["bytes"]
    )[:TOP_TYPES]
    for tname, entry in top:
        obs.set_gauge(
            "heap.type.{}.bytes".format(tname), entry["bytes"]
        )
        obs.set_gauge(
            "heap.type.{}.count".format(tname), entry["count"]
        )
    if census["truncated"]:
        obs.warn(
            "heap census truncated at {} objects; sharing numbers "
            "are a lower bound".format(_MAX_OBJECTS)
        )


def collect(graph):
    """The post-run hook: census the graph + tables and publish both
    (called by the explorers when :func:`enabled`, inside its own span
    so the census cost is attributed, never hidden)."""
    with obs.span("heap.census") as sp:
        census = graph_census(graph)
        publish_graph_census(census)
        publish_intern_census()
        sp.set(
            worlds=census["worlds"],
            sharing_factor=census["sharing_factor"],
        )
        phase_snapshot("explore")
    return census


# ----- tracemalloc phase snapshots -----------------------------------------


def start_tracemalloc():
    """Begin tracing allocations (idempotent; gated by the caller)."""
    import tracemalloc

    if not tracemalloc.is_tracing():
        tracemalloc.start()


def phase_snapshot(name):
    """Record current/peak traced bytes for a named phase (no-op when
    tracemalloc is off — the gauges only exist under --heap-profile
    with tracing started)."""
    import tracemalloc

    if not tracemalloc.is_tracing():
        return
    current, peak = tracemalloc.get_traced_memory()
    obs.set_gauge(
        "heap.tracemalloc.{}.current_bytes".format(name), current
    )
    obs.gauge_max(
        "heap.tracemalloc.{}.peak_bytes".format(name), peak
    )
