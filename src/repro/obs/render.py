"""Plain-text rendering of a metrics snapshot.

Reuses the Fig. 13 table machinery
(:func:`repro.framework.report.format_table`) so the ``--metrics``
summary looks like the rest of the tool's output: one table for
counters and gauges, one for histograms (count/min/max/mean/p50/p95).
"""


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "{:.6f}".format(value)
    return str(value)


def render_metrics(snapshot):
    """Render a :meth:`MetricsRegistry.snapshot` as text tables."""
    # Imported lazily: framework.report pulls in the validator stack,
    # which itself reports through repro.obs.
    from repro.framework.report import format_table

    blocks = []
    scalars = [
        (name, _fmt(value))
        for name, value in snapshot["counters"].items()
    ] + [
        (name, _fmt(value))
        for name, value in snapshot["gauges"].items()
    ]
    if scalars:
        blocks.append(
            format_table(sorted(scalars), headers=("Metric", "Value"))
        )
    hists = [
        (name, summ["count"]) + tuple(
            _fmt(summ.get(key))
            for key in ("min", "max", "mean", "p50", "p95")
        )
        for name, summ in snapshot["histograms"].items()
    ]
    if hists:
        blocks.append(
            format_table(
                hists,
                headers=(
                    "Histogram", "Count", "Min", "Max", "Mean",
                    "P50", "P95",
                ),
            )
        )
    if not blocks:
        return "(no metrics recorded)"
    return "\n\n".join(blocks)
