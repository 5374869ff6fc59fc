"""Tracer: JSON-lines round-trip, span nesting, disabled fast path."""

import io
import json

import pytest

from repro import obs
from repro.obs import ledger
from repro.obs.trace import NULL_SPAN, Tracer, read_trace


def _records(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestDisabledFastPath:
    def test_disabled_by_default(self):
        assert obs.enabled is False
        assert not obs.metrics_enabled()
        assert not obs.trace_enabled()

    def test_span_is_shared_null_singleton(self):
        # The disabled path must not allocate: every span() call
        # returns the same no-op object.
        assert obs.span("explore") is NULL_SPAN
        assert obs.span("other", attr=1) is NULL_SPAN

    def test_null_span_protocol(self):
        with obs.span("x") as sp:
            assert sp.set(anything=1) is sp

    def test_recording_helpers_are_noops(self):
        obs.inc("c")
        obs.set_gauge("g", 1)
        obs.gauge_max("g", 2)
        obs.observe("h", 3)
        obs.event("e")
        assert obs.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_counter_value_default(self):
        assert obs.counter_value("missing") == 0
        assert obs.counter_value("missing", default=-1) == -1


class TestTracer:
    def test_meta_header_first(self):
        buf = io.StringIO()
        Tracer(buf)
        rec = _records(buf)[0]
        assert rec["type"] == "meta"
        assert rec["clock"] == "monotonic"

    def test_span_nesting_parent_ids(self):
        buf = io.StringIO()
        tracer = Tracer(buf)
        with tracer.start("outer") as outer:
            with tracer.start("inner") as inner:
                assert inner.parent == outer.sid
            with tracer.start("inner2") as inner2:
                assert inner2.parent == outer.sid
        assert outer.parent is None
        spans = [r for r in _records(buf) if r["type"] == "span"]
        # Inner spans close (and are written) before the outer one.
        assert [s["name"] for s in spans] == ["inner", "inner2", "outer"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent"] == by_name["outer"]["sid"]
        assert by_name["outer"]["parent"] is None

    def test_monotonic_timestamps_and_durations(self):
        buf = io.StringIO()
        tracer = Tracer(buf)
        with tracer.start("a"):
            pass
        with tracer.start("b"):
            pass
        spans = [r for r in _records(buf) if r["type"] == "span"]
        assert spans[0]["ts"] <= spans[1]["ts"]
        assert all(s["dur"] >= 0 for s in spans)

    def test_event_nested_under_current_span(self):
        buf = io.StringIO()
        tracer = Tracer(buf)
        with tracer.start("outer") as outer:
            tracer.event("tick", {"n": 1})
        recs = _records(buf)
        ev = next(r for r in recs if r["type"] == "event")
        assert ev["parent"] == outer.sid
        assert ev["attrs"] == {"n": 1}

    def test_round_trip_via_read_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(trace=str(path))
        with obs.span("phase", kind="test") as sp:
            sp.set(extra=2)
            obs.event("marker")
        obs.shutdown()
        recs = read_trace(str(path))
        assert recs[0]["type"] == "meta"
        span = next(r for r in recs if r["type"] == "span")
        assert span["name"] == "phase"
        assert span["attrs"] == {"kind": "test", "extra": 2}

    def test_error_spans_marked(self):
        buf = io.StringIO()
        tracer = Tracer(buf)
        try:
            with tracer.start("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        span = next(
            r for r in _records(buf) if r["type"] == "span"
        )
        assert span["error"] == "ValueError"


class TestFacade:
    def test_metrics_only_span_records_duration(self):
        obs.configure(metrics=True)
        with obs.span("phase"):
            pass
        snap = obs.snapshot()
        assert snap["histograms"]["span.phase.seconds"]["count"] == 1

    def test_traced_span_also_feeds_metrics(self):
        buf = io.StringIO()
        obs.configure(metrics=True, trace=buf)
        with obs.span("phase"):
            pass
        assert (
            obs.snapshot()["histograms"]["span.phase.seconds"]["count"]
            == 1
        )
        assert any(
            r["type"] == "span" and r["name"] == "phase"
            for r in _records(buf)
        )

    def test_shutdown_appends_metrics_snapshot(self):
        buf = io.StringIO()
        obs.configure(metrics=True, trace=buf)
        obs.inc("c", 3)
        obs.shutdown()
        tail = _records(buf)[-1]
        assert tail["type"] == "metrics"
        assert tail["data"]["counters"]["c"] == 3
        assert obs.enabled is False

    def test_configure_from_env(self, tmp_path):
        path = tmp_path / "env.jsonl"
        obs.configure_from_env(
            {"REPRO_METRICS": "1", "REPRO_TRACE": str(path)}
        )
        assert obs.metrics_enabled() and obs.trace_enabled()
        obs.shutdown()
        assert read_trace(str(path))[0]["type"] == "meta"

    def test_env_falsy_values_ignored(self):
        obs.configure_from_env({"REPRO_METRICS": "0"})
        assert not obs.enabled

    def test_warn_always_prints(self, capsys):
        obs.warn("something happened")
        assert (
            "repro: warning: something happened"
            in capsys.readouterr().err
        )

    def test_warn_counted_when_enabled(self, capsys):
        obs.configure(metrics=True)
        obs.warn("again")
        assert obs.counter_value("warnings") == 1


class TestWarnRateLimit:
    def test_identical_messages_print_once(self, capsys):
        for _ in range(5):
            obs.warn("same thing")
        err = capsys.readouterr().err
        assert err.count("repro: warning: same thing") == 1

    def test_distinct_messages_all_print(self, capsys):
        obs.warn("first")
        obs.warn("second")
        err = capsys.readouterr().err
        assert "first" in err and "second" in err

    def test_every_occurrence_still_counted(self):
        obs.configure(metrics=True)
        for _ in range(4):
            obs.warn("noisy")
        assert obs.counter_value("warnings") == 4
        assert obs.counter_value("warnings.suppressed") == 3

    def test_every_occurrence_still_traced(self):
        buf = io.StringIO()
        obs.configure(trace=buf)
        for _ in range(3):
            obs.warn("traced")
        events = [
            r for r in _records(buf)
            if r["type"] == "event" and r["name"] == "warning"
        ]
        assert len(events) == 3

    def test_shutdown_prints_suppressed_summary(self, capsys):
        for _ in range(4):
            obs.warn("hot loop")
        obs.shutdown()
        err = capsys.readouterr().err
        assert "suppressed 3 repeat(s)" in err
        assert "hot loop" in err

    def test_shutdown_silent_without_repeats(self, capsys):
        obs.warn("once")
        obs.shutdown()
        err = capsys.readouterr().err
        assert "suppressed" not in err

    def test_reset_clears_dedup(self, capsys):
        obs.warn("resettable")
        obs.reset()
        obs.warn("resettable")
        err = capsys.readouterr().err
        assert err.count("repro: warning: resettable") == 2


class TestLedgerMetrics:
    def test_snapshot_recorded_in_the_ledger(self, tmp_path):
        # The run ledger is the one machine-readable metrics dump.
        path = tmp_path / "run.json"
        ledger.configure(str(path), "run")
        obs.configure(metrics=True)
        obs.inc("c", 7)
        ledger.finalize(0, obs.dump())
        obs.shutdown()
        metrics = json.loads(path.read_text())["metrics"]
        assert metrics["counters"]["c"] == 7
        assert set(metrics) == {"counters", "gauges", "histograms"}


class TestReadTraceHardening:
    def _write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_corrupt_lines_skipped(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"type": "meta", "version": 1}',
                "not json at all {{{",
                '{"type": "span", "name": "x"}',
                '{"torn": "lin',
            ],
        )
        records = read_trace(path)
        assert [r["type"] for r in records] == ["meta", "span"]

    def test_skip_count_and_warning(self, tmp_path, capsys):
        obs.configure(metrics=True)
        path = self._write(
            tmp_path, ['{"ok": 1}', "garbage", "more garbage"]
        )
        records = read_trace(path)
        assert len(records) == 1
        assert obs.counter_value("trace.read.skipped_lines") == 2
        assert "corrupt line(s)" in capsys.readouterr().err

    def test_strict_mode_raises(self, tmp_path):
        import pytest

        path = self._write(tmp_path, ['{"ok": 1}', "garbage"])
        with pytest.raises(ValueError):
            read_trace(path, strict=True)

    def test_clean_trace_untouched(self, tmp_path):
        obs.configure(metrics=True)
        path = self._write(
            tmp_path, ['{"a": 1}', "", '{"b": 2}']
        )
        assert len(read_trace(path)) == 2
        assert obs.counter_value("trace.read.skipped_lines") == 0

    def test_file_object_input(self):
        buf = io.StringIO('{"a": 1}\nbroken\n')
        assert len(read_trace(buf)) == 1

    def test_non_object_lines_are_corrupt(self, tmp_path):
        # Valid JSON that is not a record (a list, a number, null) is
        # skipped like garbage, so no reader sees a non-dict record.
        obs.configure(metrics=True)
        path = self._write(
            tmp_path, ['[1, 2]', '{"type": "span"}', "7", "null"]
        )
        assert read_trace(path) == [{"type": "span"}]
        assert obs.counter_value("trace.read.skipped_lines") == 3
        with pytest.raises(ValueError):
            read_trace(path, strict=True)
