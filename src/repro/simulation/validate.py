"""Translation-validation driver: runs the footprint-preserving
simulation checker over every pass of a compilation.

``Correct(SeqComp)`` (Def. 10) universally quantifies over modules; the
executable analogue validates each *instance*: for every adjacent pair
of pipeline stages, for every function of the module, the checker
co-executes source and target from the linked initial memory (plus
rely perturbations) and discharges the Def. 3 obligations.

Transitivity (Lem. 5) is what makes per-pass validation compose into
whole-pipeline validation — checked here by also validating
source-against-final-target directly.
"""

import time

from repro import obs
from repro.common.freelist import FreeList
from repro.common.values import VInt, VPtr
from repro.langs.minic import ast as mc
from repro.simulation.local import LocalSimulationChecker, SimulationReport
from repro.simulation.rg import Mu


def sample_args(func):
    """Representative argument values for a MiniC function signature."""
    args = []
    for i, (_name, ty) in enumerate(func.params):
        if ty == mc.PTR:
            # Point pointer parameters at a shared global; the caller
            # substitutes a real address.
            args.append(("ptr", i))
        else:
            args.append(VInt(i + 1))
    return args


def resolve_args(args, shared):
    pool = sorted(shared)
    resolved = []
    for a in args:
        if isinstance(a, tuple) and a and a[0] == "ptr":
            if not pool:
                return None
            resolved.append(VPtr(pool[a[1] % len(pool)]))
        else:
            resolved.append(a)
    return tuple(resolved)


class PassValidation:
    """Validation outcome for one pass of one module.

    ``seconds`` is the real elapsed wall-clock of validating this pass
    (measured around its :func:`validate_pair` call), the raw material
    of the Fig. 13 table's time column.
    """

    def __init__(self, pass_name, report, seconds=0.0):
        self.pass_name = pass_name
        self.report = report
        self.seconds = seconds

    @property
    def ok(self):
        return self.report.ok

    def __repr__(self):
        return "PassValidation({}, ok={})".format(
            self.pass_name, self.ok
        )


def validate_pair(src_stage, tgt_stage, entries_with_args, initial_mem,
                  shared, lockstep=False, rely_limit=1, max_tau=5000):
    """Validate one adjacent stage pair on the given entries."""
    mu = Mu.identity(shared)
    checker = LocalSimulationChecker(
        src_stage.lang,
        src_stage.module,
        tgt_stage.lang,
        tgt_stage.module,
        mu,
        rely_limit=rely_limit,
        lockstep=lockstep,
        max_tau=max_tau,
    )
    report = SimulationReport()
    flist = FreeList.for_thread(0)
    for entry, args in entries_with_args:
        resolved = resolve_args(args, shared)
        if resolved is None:
            continue
        checker.check_entry(
            entry, resolved, initial_mem, initial_mem, flist, flist,
            report,
        )
    return report


def validate_compilation(result, initial_mem, shared, entries=None,
                         lockstep=False, rely_limit=1,
                         include_end_to_end=True, on_pass=None):
    """Validate every pass of a :class:`CompilationResult`.

    ``entries`` defaults to every function of the source module, each
    with representative arguments. Returns a list of
    :class:`PassValidation`, one per pass (plus a final synthetic
    ``"end-to-end"`` entry checking source ≼ x86 directly, witnessing
    transitivity). ``on_pass``, if given, is called with each
    :class:`PassValidation` as soon as its pass is validated.
    """
    source_module = result.source.module
    if entries is None:
        entries = [
            (name, sample_args(func))
            for name, func in sorted(source_module.functions.items())
        ]
    pairs = result.adjacent_pairs()
    if include_end_to_end:
        pairs.append(("end-to-end", result.source, result.target))
    validations = []
    with obs.span("validate", passes=len(result.stages) - 1):
        for pass_name, src_stage, tgt_stage in pairs:
            v = _validate_one(
                pass_name, src_stage, tgt_stage, entries, initial_mem,
                shared, lockstep, rely_limit,
            )
            validations.append(v)
            if on_pass is not None:
                on_pass(v)
    return validations


def _validate_one(pass_name, src_stage, tgt_stage, entries, initial_mem,
                  shared, lockstep, rely_limit):
    """Validate one pass inside a span, with real elapsed timing."""
    with obs.span("validate.pass", pass_name=pass_name) as sp:
        start = time.perf_counter()
        report = validate_pair(
            src_stage, tgt_stage, entries, initial_mem, shared,
            lockstep=lockstep, rely_limit=rely_limit,
        )
        elapsed = time.perf_counter() - start
        sp.set(ok=report.ok, segments=report.stats.segments)
    if obs.enabled:
        _record_validation(pass_name, report)
    return PassValidation(pass_name, report, elapsed)


def _record_validation(pass_name, report):
    """Fold one pass's obligation counts into the metrics registry."""
    st = report.stats
    obs.inc("validate.passes")
    obs.inc("validate.obligations.fpmatch", st.fpmatch_checks)
    obs.inc("validate.obligations.scope", st.scope_checks)
    obs.inc("validate.obligations.lg", st.lg_checks)
    obs.inc("validate.obligations.rely_moves", st.rely_moves)
    obs.inc("validate.obligations.messages", st.messages_matched)
    obs.inc("validate.co_exec_steps", st.src_steps + st.tgt_steps)
    obs.inc("validate.segments", st.segments)
    if not report.ok:
        obs.inc("validate.failed_passes")
        obs.event(
            "validate.failure",
            pass_name=pass_name,
            failures=len(report.failures),
        )
