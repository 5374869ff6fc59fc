"""Prometheus text exposition of metrics snapshots (PR 6)."""

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.prom import (
    bucket_bounds,
    render_prometheus,
    sanitize_name,
)


def test_sanitize_name():
    assert sanitize_name("explore.states_visited") == (
        "repro_explore_states_visited"
    )
    assert sanitize_name("a-b c/d") == "repro_a_b_c_d"
    # Colons are legal in the exposition grammar.
    assert sanitize_name("a:b") == "repro_a:b"
    # A leading digit gains a guard (relevant without a namespace).
    assert sanitize_name("9lives", namespace="") == "_9lives"


def test_counter_exposition():
    text = render_prometheus({"counters": {"explore.states": 42}})
    assert "# HELP repro_explore_states_total" in text
    assert "# TYPE repro_explore_states_total counter" in text
    assert "\nrepro_explore_states_total 42\n" in text


def test_gauge_exposition():
    text = render_prometheus(
        {"gauges": {"parallel.idle_seconds": 0.25}}
    )
    assert "# TYPE repro_parallel_idle_seconds gauge" in text
    assert "repro_parallel_idle_seconds 0.25" in text


def test_bucket_bounds_deterministic_125_ladder():
    bounds = bucket_bounds(0.003, 0.7)
    assert bounds == sorted(bounds)
    # 1-2-5 mantissas only.
    for b in bounds:
        mant = b
        while mant < 1.0 - 1e-12:
            mant *= 10.0
        while mant >= 10.0 - 1e-9:
            mant /= 10.0
        assert min(
            abs(mant - m) for m in (1.0, 2.0, 5.0)
        ) < 1e-9, bounds
    assert bounds[0] <= 0.003
    assert bounds[-1] >= 0.7
    # Same range -> same ladder, every time.
    assert bounds == bucket_bounds(0.003, 0.7)


def test_histogram_exposition_from_dump():
    reg = MetricsRegistry()
    for v in (0.001, 0.002, 0.004, 0.1, 0.5):
        reg.histogram("lat.seconds").observe(v)
    text = render_prometheus(reg.dump())
    assert "# TYPE repro_lat_seconds histogram" in text
    lines = [
        l for l in text.splitlines()
        if l.startswith("repro_lat_seconds_bucket")
    ]
    assert lines[-1] == 'repro_lat_seconds_bucket{le="+Inf"} 5'
    # Cumulative counts are monotone non-decreasing.
    counts = [int(l.rsplit(" ", 1)[1]) for l in lines]
    assert counts == sorted(counts)
    assert "repro_lat_seconds_count 5" in text
    assert "repro_lat_seconds_sum 0.607" in text


def test_histogram_exposition_degrades_from_summary():
    """A summary-only snapshot still exposes honest buckets: p50, p95
    and max are the only cut points a summary supports."""
    snap = {
        "histograms": {
            "h": {
                "count": 100,
                "min": 1.0,
                "max": 9.0,
                "mean": 4.0,
                "p50": 3.0,
                "p95": 8.0,
            }
        }
    }
    text = render_prometheus(snap)
    assert 'repro_h_bucket{le="3"} 50' in text
    assert 'repro_h_bucket{le="8"} 95' in text
    assert 'repro_h_bucket{le="9"} 100' in text
    assert 'repro_h_bucket{le="+Inf"} 100' in text
    assert "repro_h_sum 400" in text


def test_render_prom_via_obs():
    obs.configure(metrics=True)
    obs.inc("c", 3)
    obs.observe("h", 1.0)
    text = obs.render_prom()
    assert "repro_c_total 3" in text
    assert "repro_h_count 1" in text


def test_empty_snapshot_renders_empty():
    assert render_prometheus({}) == ""


def test_help_lines_describe_known_families():
    snap = {
        "counters": {"intern.table.frame.hits": 5},
        "gauges": {
            "heap.graph.sharing_factor": 50.2,
            "some.unknown.metric": 1,
        },
        "histograms": {
            "span.explore.seconds": {
                "count": 1, "min": 0.1, "max": 0.1, "mean": 0.1,
                "p50": 0.1, "p95": 0.1,
            }
        },
    }
    text = render_prometheus(snap)
    assert (
        "# HELP repro_intern_table_frame_hits_total "
        "per-intern-table census (hash-consing) "
        "(intern.table.frame.hits)" in text
    )
    assert "sharing-aware state-graph deep-size census" in text
    assert "wall-clock span timing (span.explore.seconds)" in text
    # Unknown names keep the generic fallback.
    assert (
        "# HELP repro_some_unknown_metric repro gauge "
        "some.unknown.metric" in text
    )
