"""Per-layer spans recorded from outside the program, and their report.

The traced half of a run replays the same tasks with each layer's
public entry points wrapped (module attributes swapped for the run's
duration, so ``src/`` is untouched): every call becomes an in-memory
span ``[name, start, end, parent, task, worlds]``. Busy and self time
come from the spans; counts come from the program's own metrics
registry, switched on for the traced half and harvested after every
command. Calls made inside forked workers are not seen; the parent's
span around the fork pool covers them.

A layer is the module whose public function is called (``find_race``
is ``race`` even though it explores), so shares of nested layers
overlap: ``tso`` contains the ``explore`` and ``behaviours`` spans of
the x86-TSO program, ``correct`` contains ``validate``.
"""

import contextlib
import functools
import importlib
import json
from time import perf_counter

from repro import obs
from repro.compiler import pipeline
from repro.langs.x86.tso import X86TSOLang
from repro.obs.metrics import MetricsRegistry

#: Registry counter whose per-span delta gives the worlds a span
#: explored (``tso.states`` and ``explore.states_per_s``).
WORLDS = "explore.states_visited"


def _validate_pass(src_stage, tgt_stage, *args, **kwargs):
    # validate_compilation pairs every adjacent stage, then source with
    # the final target ("end-to-end").
    end_to_end = (src_stage.name == "source"
                  and tgt_stage.name != pipeline.PASSES[0][0])
    return "validate.pass." + ("end-to-end" if end_to_end else tgt_stage.name)


def _tso_only(ctx, *args, **kwargs):
    if any(isinstance(decl.lang, X86TSOLang) for decl in ctx.modules):
        return "tso"
    return None


#: ``(module, attribute, span name)``; a callable name maps the call's
#: arguments to a span name, or to ``None`` for no span.
ENTRY_POINTS = (
    ("repro.cli", "make_parser", "cli"),
    ("repro.cli", "compile_unit", "front"),
    ("repro.cli", "link_units", "front"),
    ("repro.cli", "compile_minic", "compile"),
    ("repro.cli", "validate_compilation", "validate"),
    ("repro.cli", "find_race", "race"),
    ("repro.cli", "record_race", "witness.record"),
    ("repro.cli", "save_witness", "witness.record"),
    ("repro.cli", "minimize_witness", "witness.minimize"),
    ("repro.cli", "load_witness", "witness.replay"),
    ("repro.cli", "replay_witness", "witness.replay"),
    ("repro.simulation.validate", "validate_pair", _validate_pass),
    ("repro.semantics.explore", "explore", "explore"),
    ("repro.semantics.explore", "behaviours", "behaviours"),
    ("repro.lang.closure", "prime", "closure"),
    ("repro.semantics.parallel", "parallel_find_race", "parallel"),
    ("repro.framework.theorems", "validate_compilation", "validate"),
    ("repro.framework.theorems", "find_race", "race"),
    ("repro.framework.theorems", "check_correct", "correct"),
    ("repro.framework.theorems", "program_behaviours", _tso_only),
    ("repro.framework.theorems", "refines", "refines"),
    ("repro.fuzz.campaign", "run_campaign", "fuzz"),
)

#: Report order of the layers.
LAYERS = (
    "cli", "front", "compile", "validate", "explore", "closure",
    "behaviours", "race", "parallel", "witness.record", "witness.minimize",
    "witness.replay", "tso", "refines", "correct", "fuzz",
)


def pass_layers():
    """``compile.pass.<P>`` for every pipeline pass and
    ``validate.pass.<P>`` for every pass plus the end-to-end check."""
    names = [name for name, _f, _l in pipeline.PASSES + pipeline.EXTRA_PASSES]
    return (
        ["compile.pass." + n for n in names]
        + ["validate.pass." + n for n in names + ["end-to-end"]]
    )


class Tracing:
    """The traced half's state: in-memory spans (the innermost open
    span is the parent) and every metrics registry the tasks filled,
    merged (counters add, gauges keep their maximum and their sum,
    histograms merge)."""

    def __init__(self):
        self.spans = []
        self.task = -1
        self._open = []
        self.registry = MetricsRegistry()
        self.gauge_sums = {}

    def open(self, name):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.task,
                           obs.counter_value(WORLDS)])

    def close(self):
        span = self.spans[self._open.pop()]
        span[2] = perf_counter()
        span[5] = obs.counter_value(WORLDS) - span[5]

    def begin_task(self, task):
        obs.configure(metrics=True)
        self.task = task
        self.open("task")

    def end_task(self):
        self.close()
        self.take()
        obs.reset()

    def take(self):
        """Absorb the live registry, if any."""
        if obs.registry is None:
            return
        dump = obs.registry.dump()
        self.registry.merge(dump)
        for name, value in dump["gauges"].items():
            self.gauge_sums[name] = self.gauge_sums.get(name, 0) + value

    def write(self, path):
        """The spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent, task, _w in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "task": task,
                }) + "\n")

    def counter(self, name):
        counter = self.registry.counters.get(name)
        return counter.value if counter is not None else 0

    def gauge(self, name):
        gauge = self.registry.gauges.get(name)
        return gauge.value if gauge is not None else 0

    def hist_total(self, name):
        hist = self.registry.histograms.get(name)
        return hist.total if hist is not None else 0.0


def _wrap(fn, name, tracing):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        if label is None:
            return fn(*args, **kwargs)
        tracing.open(label)
        try:
            return fn(*args, **kwargs)
        finally:
            tracing.close()
    return wrapper


@contextlib.contextmanager
def traced(tracing):
    """Wrap every entry point in spans and keep the registry alive
    across ``repro`` commands for the duration of the block."""
    saved = []

    def swap(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    real_shutdown = obs.shutdown

    def shutdown():
        # cli.main ends every command by dropping the registry.
        tracing.take()
        real_shutdown()
        obs.configure(metrics=True)

    try:
        for module, attr, name in ENTRY_POINTS:
            mod = importlib.import_module(module)
            swap(mod, attr, _wrap(getattr(mod, attr), name, tracing))
        for table in ("PASSES", "EXTRA_PASSES"):
            swap(pipeline, table, tuple(
                (name, _wrap(fn, "compile.pass." + name, tracing), lang)
                for name, fn, lang in getattr(pipeline, table)
            ))
        swap(obs, "shutdown", shutdown)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _rate(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def analyse(tracing, tasks):
    """Per-layer rows, per-task coverage and the per-layer metrics.

    ``tasks`` is the number of traced tasks. Shares are percentages of
    the summed task wall; counts are per task.
    """
    spans = tracing.spans
    walls = {}
    busy, self_time, calls, worlds = {}, {}, {}, {}
    covered = {}
    children = [0.0] * len(spans)
    for name, start, end, parent, task, _w in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, parent, task, delta) in enumerate(spans):
        if name == "task":
            walls[task] = end - start
            continue
        if parent >= 0 and spans[parent][0] == "task":
            covered[task] = covered.get(task, 0.0) + end - start
        busy[name] = busy.get(name, 0.0) + end - start
        self_time[name] = self_time.get(name, 0.0) + end - start - children[i]
        calls[name] = calls.get(name, 0) + 1
        worlds[name] = worlds.get(name, 0) + delta
    wall = sum(walls.values()) or 1.0
    coverage = {t: 100.0 * covered.get(t, 0.0) / w for t, w in walls.items()}
    n = max(tasks, 1)

    rows = []
    for name in LAYERS + tuple(pass_layers()):
        if name in calls:
            rows.append({
                "layer": name, "calls_per_task": calls[name] / n,
                "busy_s": busy[name], "self_s": self_time[name],
                "share_pct": 100.0 * busy[name] / wall,
            })

    c = tracing.counter
    metrics = {
        name + ".share": 100.0 * busy.get(name, 0.0) / wall
        for name in LAYERS + tuple(pass_layers())
    }
    captured = c("witness.captured")
    metrics.update({
        "trace.coverage": min(coverage.values(), default=0.0),
        "compile.ir_nodes_out": tracing.hist_total("compile.nodes_out") / n,
        "validate.obligations": sum(
            c("validate.obligations." + kind)
            for kind in ("fpmatch", "scope", "lg", "messages")
        ) / n,
        "validate.co_exec_steps": c("validate.co_exec_steps") / n,
        "validate.rely_moves": c("validate.obligations.rely_moves") / n,
        "explore.states": c(WORLDS) / n,
        "explore.dedup_hits": c("explore.dedup_hits") / n,
        "engine.expansions": c("engine.expansions") / n,
        "explore.frontier_hwm": tracing.gauge("explore.frontier_hwm"),
        "intern.world.hit_rate": _rate(
            c("intern.table.world.hits"), c("intern.table.world.misses")
        ),
        "intern.world.peak_size": tracing.gauge(
            "intern.table.world.peak_size"
        ),
        "intern.frame.hit_rate": _rate(
            c("intern.table.frame.hits"), c("intern.table.frame.misses")
        ),
        "memory.nodes_reused": c("memory.nodes_reused") / n,
        "closure.memo_hit_rate": _rate(
            c("closure.memo_hits"), c("closure.memo_misses")
        ),
        "closure.compile.share": 100.0 * c("closure.compile_seconds") / wall,
        "closure.modules_staged": c("closure.modules_staged") / n,
        "race.worlds_checked": c("race.worlds_checked") / n,
        "race.predictions": c("race.predictions") / n,
        "race.pairs_checked": c("race.pairs_checked") / n,
        "race.prediction_memo_hits": c("race.prediction_memo_hits") / n,
        "witness.steps_original": (
            c("witness.schedule_steps") / captured if captured else 0.0
        ),
        "witness.steps_minimized": (
            (c("witness.schedule_steps")
             - c("witness.minimize.removed_steps")) / captured
            if captured else 0.0
        ),
        "tso.states": worlds.get("tso", 0) / n,
        "parallel.merge.share": (
            100.0 * tracing.gauge_sums.get("parallel.merge_seconds", 0.0)
            / wall
        ),
        "parallel.wire.bytes_per_world": (
            c("parallel.wire.bytes_out") / c("parallel.cross_edges")
            if c("parallel.cross_edges") else 0.0
        ),
        "parallel.wire.delta_hit_rate": _rate(
            c("parallel.wire.delta_hits"), c("parallel.wire.full_sends")
        ),
        "fuzz.inputs": c("fuzz.inputs") / n,
    })
    for kind in ("ample_worlds", "full_expansions", "proviso_expansions",
                 "sleep_hits", "steps_avoided"):
        metrics["por." + kind] = c("por." + kind) / n
    for phase in ("expand", "encode", "decode", "idle"):
        seconds = tracing.hist_total(
            "parallel.worker.{}_seconds".format(phase)
        )
        metrics["parallel.{}.share".format(phase)] = 100.0 * seconds / wall
    # Rates are reported, not gated: a workload that never explores or
    # fuzzes has no rate at all.
    rates = {
        "explore.states_per_s": (
            worlds.get("explore", 0) / busy["explore"]
            if busy.get("explore") else None
        ),
        "fuzz.inputs_per_s": (
            c("fuzz.inputs") / busy["fuzz"] if busy.get("fuzz") else None
        ),
    }
    return rows, coverage, metrics, rates
