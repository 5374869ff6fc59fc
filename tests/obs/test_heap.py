"""Heap/interning telemetry: censuses, gauges, the CLI gate."""

import pytest

from repro import obs
from repro.cli import main
from repro.common.intern import InternTable
from repro.obs import heap
from repro.obs.prom import render_prometheus
from repro.semantics import GlobalContext, PreemptiveSemantics, explore

from tests.helpers import LOCK_CLIENT, minic_program


@pytest.fixture(autouse=True)
def _reset_heap_flag():
    heap.set_enabled(None)
    yield
    heap.set_enabled(None)


@pytest.fixture(scope="module")
def lock_graph():
    """A real explored graph with genuine cross-world sharing."""
    program, _modules, _genvs, _symbols = minic_program(
        [LOCK_CLIENT], ["inc", "inc"]
    )
    return explore(
        GlobalContext(program), PreemptiveSemantics(),
        max_states=100000, strict=True,
    )


class TestEnabledGate:
    def test_defaults_off(self, monkeypatch):
        monkeypatch.delenv(heap.ENV_HEAP_PROFILE, raising=False)
        assert heap.enabled() is False

    def test_env_var_turns_on(self, monkeypatch):
        monkeypatch.setenv(heap.ENV_HEAP_PROFILE, "1")
        assert heap.enabled() is True

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv(heap.ENV_HEAP_PROFILE, "1")
        heap.set_enabled(False)
        assert heap.enabled() is False
        heap.set_enabled(None)
        assert heap.enabled() is True


class TestInternCensus:
    def test_census_reports_activity(self):
        t = InternTable("heap-census-t1", max_size=4)
        for i in range(10):
            t.intern((i,))
        t.intern((9,))
        entry = heap.intern_census()["heap-census-t1"]
        assert entry["size"] == len(t.table)
        assert entry["hits"] == 1
        assert entry["misses"] == 10
        assert 0.0 < entry["hit_rate"] < 1.0
        assert entry["clears"] >= 1
        assert entry["peak_size"] == 4
        assert entry["capacity_estimate"] >= entry["size"]
        assert entry["table_bytes"] > 0

    def test_publish_needs_metrics(self):
        # Without the registry this must be a silent no-op.
        heap.publish_intern_census()
        obs.configure(metrics=True)
        InternTable("heap-census-t2").intern((1,))
        heap.publish_intern_census()
        gauges = obs.dump()["gauges"]
        assert gauges["intern.table.heap-census-t2.size"] == 1

    def test_collision_estimate_bounds(self):
        t = InternTable("heap-census-t3")
        for i in range(100):
            t.intern((i,))
        est = heap._collision_estimate(t.table)
        assert 0 <= est <= len(t.table)


class TestDictCapacity:
    def test_growth_policy(self):
        assert heap._dict_capacity(0) == 8
        assert heap._dict_capacity(4) == 8
        # The 2/3-full threshold (integer floor: 5 of 8) forces a
        # resize.
        assert heap._dict_capacity(5) > 8
        assert heap._dict_capacity(1000) >= 1500


class TestGraphCensus:
    def test_sharing_factor_on_real_graph(self, lock_graph):
        census = heap.graph_census(lock_graph)
        assert census["worlds"] == lock_graph.state_count()
        assert census["edges"] == sum(
            len(out) for out in lock_graph.edges.values()
        )
        ks = lock_graph.keyspace
        assert census["stacks"] == len(ks.stacks)
        assert census["mems"] == len(ks.mems)
        assert census["objects"] > census["worlds"]
        assert census["bytes_unique"] > 0
        # Hash-consing means copies would cost strictly more.
        assert census["bytes_if_copied"] > census["bytes_unique"]
        assert census["sharing_factor"] > 1.0
        assert census["truncated"] is False
        assert census["per_type"]
        per_type_bytes = sum(
            e["bytes"] for e in census["per_type"].values()
        )
        assert per_type_bytes == census["bytes_unique"]
        # The graph keeps keys, stacks and memories, never a world.
        assert "Frame" in census["per_type"]
        assert "Memory" in census["per_type"]
        assert "World" not in census["per_type"]

    def test_census_decodes_no_world(self, lock_graph, monkeypatch):
        def no_decode(self, k):
            raise AssertionError("the census decoded a state")

        monkeypatch.setattr(type(lock_graph.keyspace), "decode", no_decode)
        assert heap.graph_census(lock_graph)["worlds"] > 0

    def test_publish_exports_gauges_and_prom(self, lock_graph):
        obs.configure(metrics=True)
        census = heap.graph_census(lock_graph)
        heap.publish_graph_census(census)
        heap.publish_intern_census()
        snapshot = obs.dump()
        gauges = snapshot["gauges"]
        assert gauges["heap.graph.sharing_factor"] > 1.0
        assert gauges["heap.graph.worlds"] == census["worlds"]
        assert any(
            name.startswith("heap.type.") for name in gauges
        )
        text = render_prometheus(snapshot)
        assert "repro_heap_graph_sharing_factor" in text
        assert "sharing-aware state-graph deep-size census" in text

    def test_collect_publishes_and_spans(self, lock_graph):
        obs.configure(metrics=True)
        census = heap.collect(lock_graph)
        snapshot = obs.dump()
        assert census["sharing_factor"] > 1.0
        assert "span.heap.census.seconds" in snapshot["histograms"]


class TestTracemalloc:
    def test_phase_snapshot_noop_when_not_tracing(self):
        import tracemalloc

        obs.configure(metrics=True)
        if tracemalloc.is_tracing():  # pragma: no cover
            tracemalloc.stop()
        heap.phase_snapshot("idle")
        assert not any(
            name.startswith("heap.tracemalloc.")
            for name in obs.dump()["gauges"]
        )

    def test_snapshot_records_gauges(self):
        import tracemalloc

        obs.configure(metrics=True)
        heap.start_tracemalloc()
        try:
            _ballast = ["x"] * 1000
            heap.phase_snapshot("test")
            gauges = obs.dump()["gauges"]
            assert gauges["heap.tracemalloc.test.current_bytes"] > 0
            assert gauges["heap.tracemalloc.test.peak_bytes"] > 0
        finally:
            tracemalloc.stop()


QUICKSTART = """
int g = 0;
void main() {
  int i = 0;
  while (i < 4) { g = g + i; i = i + 1; }
  print(g);
}
"""


class TestCliHeapProfile:
    def test_heap_profile_flag_populates_metrics(
        self, tmp_path, capsys
    ):
        import tracemalloc

        src = tmp_path / "p.c"
        src.write_text(QUICKSTART)
        out = tmp_path / "run.json"
        try:
            assert main(
                ["run", str(src), "--heap-profile",
                 "--ledger", str(out)]
            ) == 0
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
        import json

        doc = json.loads(out.read_text())
        gauges = doc["metrics"]["gauges"]
        assert gauges["heap.graph.sharing_factor"] >= 1.0
        assert gauges["heap.graph.worlds"] > 0
        assert gauges["heap.tracemalloc.total.peak_bytes"] > 0
        assert heap.enabled() is False  # the CLI resets the flag
