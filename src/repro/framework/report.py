"""Fig. 13-style reporting: per-pass validation effort tables.

The paper's evaluation is a table of per-pass proof effort (Coq lines
of spec/proof, CompCert vs. theirs). Our analogue measures the
mechanical checking effort of translation validation per pass: number
of obligations discharged, and the "CompCert vs Ours" column pair
becomes *baseline validation* (message matching only, no footprint
obligations — what a sequential validator needs) vs *footprint-
preserving validation* (the paper's additional FPmatch/HG/LG/Rely
obligations).
"""

from repro import obs
from repro.simulation.validate import sample_args, validate_compilation


class PassRow:
    """One row of the per-pass table.

    The obligation and step columns count every use of a segment.
    ``seconds`` is the time of the work first done in this pass: the
    passes of one compilation share a segment memo, so a stage that an
    earlier pass already ran (as its target) costs the next pass
    (reading it as its source) a lookup, not a run.
    """

    def __init__(self, pass_name, baseline_obligations,
                 fp_obligations, rely_moves, rely_budget_exhausted,
                 messages, src_steps, tgt_steps, seconds):
        self.pass_name = pass_name
        self.baseline_obligations = baseline_obligations
        self.fp_obligations = fp_obligations
        self.rely_moves = rely_moves
        #: Switch points that wanted a rely move past the budget.
        self.rely_budget_exhausted = rely_budget_exhausted
        self.messages = messages
        self.src_steps = src_steps
        self.tgt_steps = tgt_steps
        self.seconds = seconds

    def as_tuple(self):
        return (
            self.pass_name,
            self.baseline_obligations,
            self.fp_obligations,
            self.rely_moves,
            self.rely_budget_exhausted,
            self.messages,
            self.src_steps,
            self.tgt_steps,
            self.seconds,
        )


def per_pass_table(system):
    """Build the Fig. 13-analogue table for a :class:`ClientSystem`.

    Returns a list of :class:`PassRow`, one per pass (aggregated over
    the system's client modules), ordered as in the pipeline.
    """
    mem = system.initial_memory()
    shared = system.shared()
    rows = {}
    order = []
    with obs.span("report.per_pass_table"):
        for result in system.results:
            entries = [
                (name, sample_args(func))
                for name, func in sorted(
                    result.source.module.functions.items()
                )
            ]
            validations = validate_compilation(
                result, mem, shared, entries=entries,
                include_end_to_end=False,
            )
            _merge_rows(rows, order, validations)
    return [rows[name] for name in order]


def _merge_rows(rows, order, validations):
    for val in validations:
        st = val.report.stats
        if not val.report.ok:
            raise AssertionError(
                "validation failed in {}: {}".format(
                    val.pass_name, val.report.failures[:3]
                )
            )
        if val.pass_name not in rows:
            order.append(val.pass_name)
            rows[val.pass_name] = PassRow(
                val.pass_name, 0, 0, 0, 0, 0, 0, 0, 0.0
            )
        row = rows[val.pass_name]
        # Baseline: what a sequential validator discharges —
        # message matching only.
        row.baseline_obligations += st.messages_matched
        # Ours: the footprint-preserving extras on top.
        row.fp_obligations += (
            st.fpmatch_checks + st.scope_checks + st.lg_checks
        )
        row.rely_moves += st.rely_moves
        row.rely_budget_exhausted += st.rely_budget_exhausted
        row.messages += st.messages_matched
        row.src_steps += st.src_steps
        row.tgt_steps += st.tgt_steps
        # Real per-pass elapsed time, measured around each pair
        # check — not an even split of the total.
        row.seconds += val.seconds


def format_table(rows, headers=None):
    """Plain-text table rendering for examples and bench output.

    Rows may be :class:`PassRow`-style objects (anything with an
    ``as_tuple`` method) or plain tuples/lists — the latter is what the
    observability layer's metrics summary uses.
    """
    headers = headers or (
        "Pass",
        "Baseline obl.",
        "FP obl.",
        "Rely moves",
        "Rely exhausted",
        "Msgs",
        "Src steps",
        "Tgt steps",
        "Time (s)",
    )
    str_rows = [
        [
            "{:.4f}".format(v) if isinstance(v, float) else str(v)
            for v in (
                row.as_tuple() if hasattr(row, "as_tuple") else tuple(row)
            )
        ]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
