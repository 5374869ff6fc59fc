"""Heartbeat status: writer gating, atomicity, merging, rendering."""

import json
import os
import threading

import pytest

from repro.cli import main
from repro.framework.build import lock_counter_system
from repro.obs import status
from repro.obs.status import StatusWriter, write_atomic
from repro.semantics import GlobalContext, PreemptiveSemantics, explore
from repro.semantics.explore import _HB_STRIDE


@pytest.fixture(autouse=True)
def _reset_status():
    status.reset()
    yield
    status.reset()


class FakeClock:
    """An injectable monotonic clock the tests advance by hand."""

    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _read(path):
    with open(str(path)) as handle:
        return json.load(handle)


class TestStatusWriter:
    def test_first_beat_is_immediate(self, tmp_path):
        clock = FakeClock()
        hb = StatusWriter(tmp_path / "st.json", interval=1.0,
                          clock=clock)
        assert hb.beat(states=1, frontier=1) is True
        doc = _read(tmp_path / "st.json")
        assert doc["type"] == "heartbeat"
        assert doc["states"] == 1
        assert doc["beats"] == 1

    def test_beat_gates_on_interval(self, tmp_path):
        clock = FakeClock()
        hb = StatusWriter(tmp_path / "st.json", interval=1.0,
                          clock=clock)
        assert hb.beat(states=1) is True
        clock.advance(0.5)
        assert hb.due() is False
        assert hb.beat(states=2) is False
        clock.advance(0.6)
        assert hb.due() is True
        assert hb.beat(states=3) is True
        doc = _read(tmp_path / "st.json")
        assert doc["states"] == 3
        assert doc["beats"] == 2

    def test_force_ignores_the_gate(self, tmp_path):
        clock = FakeClock()
        hb = StatusWriter(tmp_path / "st.json", interval=10.0,
                          clock=clock)
        hb.force(states=1)
        hb.force(states=2, phase="done")
        doc = _read(tmp_path / "st.json")
        assert doc["states"] == 2
        assert doc["phase"] == "done"
        assert doc["beats"] == 2

    def test_sticky_fields_ride_every_beat(self, tmp_path):
        clock = FakeClock()
        hb = StatusWriter(tmp_path / "st.json", interval=0.0,
                          clock=clock)
        hb.update(phase="explore", semantics="preemptive")
        clock.advance(1.0)
        hb.beat(states=5)
        doc = _read(tmp_path / "st.json")
        assert doc["phase"] == "explore"
        assert doc["semantics"] == "preemptive"

    def test_rolling_rate_uses_the_window(self, tmp_path):
        clock = FakeClock()
        hb = StatusWriter(tmp_path / "st.json", interval=1.0,
                          clock=clock)
        hb.beat(states=0)
        for states in (100, 200, 300):
            clock.advance(1.0)
            assert hb.beat(states=states)
        doc = _read(tmp_path / "st.json")
        assert doc["rolling_states_per_second"] == pytest.approx(100.0)
        assert doc["overall_states_per_second"] == pytest.approx(100.0)

    def test_budget_used_and_eta(self, tmp_path):
        clock = FakeClock()
        hb = StatusWriter(tmp_path / "st.json", interval=1.0,
                          clock=clock)
        hb.update(budget=1000)
        hb.beat(states=0)
        clock.advance(1.0)
        hb.beat(states=100)
        doc = _read(tmp_path / "st.json")
        assert doc["budget_used"] == pytest.approx(0.1)
        # 900 remaining at 100 states/s rolling.
        assert doc["eta_budget_seconds"] == pytest.approx(9.0)

    def test_states_and_frontier_are_sticky_when_omitted(
        self, tmp_path
    ):
        clock = FakeClock()
        hb = StatusWriter(tmp_path / "st.json", interval=0.0,
                          clock=clock)
        hb.beat(states=7, frontier=3)
        clock.advance(1.0)
        hb.force(phase="done")
        doc = _read(tmp_path / "st.json")
        assert doc["states"] == 7
        assert doc["frontier"] == 3

    def test_wid_appears_in_shard_documents(self, tmp_path):
        hb = StatusWriter(tmp_path / "st.json.w2", interval=0.0, wid=2)
        hb.beat(states=1)
        assert _read(tmp_path / "st.json.w2")["wid"] == 2

    def test_intern_census_is_sampled(self, tmp_path):
        hb = StatusWriter(tmp_path / "st.json", interval=0.0)
        hb.beat(states=1)
        doc = _read(tmp_path / "st.json")
        assert "frame" in doc["intern"]


class TestWriteAtomic:
    def test_no_tmp_left_behind(self, tmp_path):
        target = tmp_path / "doc.json"
        write_atomic(str(target), {"a": 1})
        assert _read(target) == {"a": 1}
        assert os.listdir(str(tmp_path)) == ["doc.json"]

    def test_rewrite_never_tears(self, tmp_path):
        """A concurrent reader must always parse a complete document."""
        target = tmp_path / "doc.json"
        payload = {"filler": "x" * 4096, "n": 0}
        write_atomic(str(target), payload)
        stop = threading.Event()
        failures = []
        reads = [0]

        def poll():
            while not stop.is_set():
                try:
                    doc = _read(target)
                except ValueError:
                    failures.append("torn")
                    continue
                reads[0] += 1
                if len(doc.get("filler", "")) != 4096:
                    failures.append("truncated")

        thread = threading.Thread(target=poll)
        thread.start()
        try:
            for n in range(300):
                payload["n"] = n
                write_atomic(str(target), payload)
        finally:
            stop.set()
            thread.join()
        assert failures == []
        assert reads[0] > 0


class TestSingleton:
    def test_configure_and_reset(self, tmp_path):
        hb = status.configure(tmp_path / "st.json", interval=0.25)
        assert status.writer is hb
        assert hb.interval == 0.25
        status.reset()
        assert status.writer is None

    def test_configure_reads_interval_from_env(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(status.ENV_STATUS_INTERVAL, "0.5")
        hb = status.configure(tmp_path / "st.json")
        assert hb is status.writer
        assert hb.interval == 0.5

    def test_interval_from_env_bad_value(self, monkeypatch):
        monkeypatch.setenv(status.ENV_STATUS_INTERVAL, "not-a-float")
        assert status.interval_from_env() == status.DEFAULT_INTERVAL

    def test_finalize_stamps_done_and_drops_writer(self, tmp_path):
        status.configure(tmp_path / "st.json", interval=10.0)
        status.writer.beat(states=5)
        status.finalize(exit_status=1)
        doc = _read(tmp_path / "st.json")
        assert doc["phase"] == "done"
        assert doc["exit_status"] == 1
        assert status.writer is None

    def test_finalize_without_writer_is_noop(self):
        status.reset()
        status.finalize(exit_status=0)


class TestHotLoopCost:
    """The exploration loops touch the writer once per stride, and a
    long interval keeps the file writes to the first and last beat."""

    @pytest.mark.parametrize("reduce", [False, True],
                             ids=["full", "por"])
    def test_beats_per_stride_and_writes(self, tmp_path, monkeypatch,
                                         reduce):
        calls = []
        writes = []
        beat = StatusWriter.beat
        write = status.write_atomic

        def counting_beat(self, *args, **kw):
            calls.append(1)
            return beat(self, *args, **kw)

        def counting_write(*args, **kw):
            writes.append(1)
            return write(*args, **kw)

        monkeypatch.setattr(StatusWriter, "beat", counting_beat)
        monkeypatch.setattr(status, "write_atomic", counting_write)
        status.configure(tmp_path / "st.json", interval=3600.0)
        graph = explore(
            GlobalContext(lock_counter_system(2).source_program()),
            PreemptiveSemantics(), reduce=reduce,
        )
        states = graph.state_count()
        assert states > 4 * _HB_STRIDE
        assert 1 <= len(calls) <= states // _HB_STRIDE + 1
        # The first beat, then the closing one explore() forces.
        assert len(writes) <= 2
        assert _read(tmp_path / "st.json")["states"] == states


class TestCleanupArtifacts:
    """The stale-artifact sweep on main-writer init (regression for
    leaked ``FILE.<pid>.tmp`` temps and phantom ``FILE.w<wid>`` shard
    heartbeats surviving into the next run's merge)."""

    def _litter(self, tmp_path):
        st = tmp_path / "st.json"
        stale = [
            tmp_path / "st.json.1234.tmp",      # orphaned temp write
            tmp_path / "st.json.w0",            # old shard heartbeat
            tmp_path / "st.json.w7",
            tmp_path / "st.json.w7.5678.tmp",   # a shard's own temp
        ]
        for path in stale:
            path.write_text("{}")
        keep = [
            tmp_path / "st.json.bak",           # not ours: keep
            tmp_path / "other.json.w0",         # different heartbeat
        ]
        for path in keep:
            path.write_text("{}")
        return st, stale, keep

    def test_sweep_removes_only_our_artifacts(self, tmp_path):
        st, stale, keep = self._litter(tmp_path)
        removed = status.cleanup_artifacts(st)
        assert sorted(removed) == sorted(str(p) for p in stale)
        for path in stale:
            assert not path.exists()
        for path in keep:
            assert path.exists()

    def test_main_configure_sweeps(self, tmp_path):
        st, stale, _keep = self._litter(tmp_path)
        status.configure(st, interval=0.0)
        for path in stale:
            assert not path.exists()

    def test_shard_configure_does_not_sweep(self, tmp_path):
        """By the time a worker configures its own shard file the
        parent already swept; a worker sweeping again would race its
        siblings' live shard documents."""
        st, stale, _keep = self._litter(tmp_path)
        status.configure(status.shard_path(st, 3), interval=0.0,
                         wid=3)
        for path in stale:
            assert path.exists()

    def test_phantom_shards_do_not_haunt_the_merge(self, tmp_path):
        # A previous --jobs 4 run left shards w0..w3; the next run is
        # --jobs 1. Without the sweep, merge_shards(jobs=1) still only
        # reads w0, but a watcher globbing FILE.w* would see ghosts —
        # and a *wider* merge would read stale state counts.
        st = tmp_path / "st.json"
        for wid in range(4):
            old = StatusWriter(status.shard_path(st, wid),
                               interval=0.0, wid=wid)
            old.beat(states=100)
        hb = status.configure(st, interval=0.0)
        shard = StatusWriter(status.shard_path(st, 0), interval=0.0,
                             wid=0)
        shard.beat(states=7)
        status.merge_shards(hb, jobs=2)
        doc = _read(st)
        assert doc["states"] == 7
        rows = {row["wid"]: row for row in doc["shards"]}
        # w1 exists as a never-beaten row, not the stale 100-state one.
        assert rows[1]["beats"] == 0

    def test_missing_directory_is_harmless(self, tmp_path):
        assert status.cleanup_artifacts(
            tmp_path / "nowhere" / "st.json"
        ) == []


class TestMergeShards:
    def test_totals_and_rows(self, tmp_path):
        clock = FakeClock()
        hb = StatusWriter(tmp_path / "st.json", interval=0.0,
                          clock=clock)
        for wid, states in ((0, 10), (1, 32)):
            shard = StatusWriter(
                status.shard_path(hb.path, wid), interval=0.0, wid=wid
            )
            shard.update(phase="expand")
            shard.beat(states=states, frontier=wid)
        status.merge_shards(hb, jobs=3, alive={0: True, 1: True,
                                               2: False})
        doc = _read(tmp_path / "st.json")
        assert doc["states"] == 42
        assert doc["frontier"] == 1
        assert doc["jobs"] == 3
        rows = {row["wid"]: row for row in doc["shards"]}
        assert rows[0]["states"] == 10 and rows[0]["alive"] is True
        assert rows[1]["phase"] == "expand"
        # The never-beaten shard appears rather than vanishing.
        assert rows[2]["beats"] == 0 and rows[2]["alive"] is False
        assert rows[2]["age_seconds"] is None

    def test_shard_rows_survive_finalize(self, tmp_path):
        hb = status.configure(tmp_path / "st.json", interval=0.0)
        shard = StatusWriter(status.shard_path(hb.path, 0),
                             interval=0.0, wid=0)
        shard.beat(states=9)
        status.merge_shards(hb, jobs=1, phase="merged")
        status.finalize(exit_status=0)
        doc = _read(tmp_path / "st.json")
        assert doc["phase"] == "done"
        assert doc["shards"][0]["states"] == 9


class TestRenderStatus:
    def _doc(self, **extra):
        doc = {
            "type": "heartbeat", "version": 1, "pid": 42,
            "time": 1000.0, "uptime_seconds": 3.5,
            "interval_seconds": 1.0, "beats": 4, "states": 5028,
            "frontier": 17, "rolling_states_per_second": 1500.0,
            "overall_states_per_second": 1436.6, "phase": "explore",
        }
        doc.update(extra)
        return doc

    def test_basic_render(self):
        out = status.render_status(self._doc(), now=1001.0)
        assert "phase=explore" in out
        assert "5,028 state(s)" in out
        assert "1,500.0 states/s rolling" in out
        assert "WARNING" not in out

    def test_stale_beat_warns(self):
        out = status.render_status(self._doc(), now=1100.0)
        assert "WARNING" in out and "100.0s old" in out

    def test_done_never_warns_stale(self):
        out = status.render_status(
            self._doc(phase="done", exit_status=0), now=1100.0
        )
        assert "WARNING" not in out
        assert "exit status: 0" in out

    def test_budget_and_eta_render(self):
        out = status.render_status(
            self._doc(budget=30000, budget_used=0.1676,
                      eta_budget_seconds=17.0),
            now=1001.0,
        )
        assert "budget 5,028/30,000 (16.8%)" in out
        assert "budget exhausted in ~17s" in out

    def test_shard_table_renders(self):
        doc = self._doc(jobs=2, shards=[
            {"wid": 0, "states": 10, "frontier": 1, "phase": "expand",
             "beats": 3, "age_seconds": 0.2, "alive": True},
            {"wid": 1, "states": 0, "frontier": 0, "phase": None,
             "beats": 0, "age_seconds": None, "alive": False},
        ])
        out = status.render_status(doc, now=1001.0)
        assert "Shard" in out and "Beat age" in out
        assert "w0" in out and "yes" in out
        assert "w1" in out and "NO" in out

    def test_intern_tables_line(self):
        out = status.render_status(
            self._doc(intern={"world": 6330, "frame": 90}), now=1001.0
        )
        assert "intern tables:" in out
        assert "world=6,330" in out


QUICKSTART = """
int g = 0;
void main() {
  int i = 0;
  while (i < 5) { g = g + i; i = i + 1; }
  print(g);
}
"""


class TestCliStatus:
    def test_run_writes_heartbeat_under_poller(
        self, tmp_path, capsys, monkeypatch
    ):
        """jobs=1 run with a tiny interval plus a concurrent poller:
        every successful read parses; the final doc says done."""
        monkeypatch.setenv(status.ENV_STATUS_INTERVAL, "0.01")
        src = tmp_path / "p.c"
        src.write_text(QUICKSTART)
        st = tmp_path / "st.json"
        stop = threading.Event()
        failures = []
        reads = [0]

        def poll():
            while not stop.is_set():
                try:
                    with open(str(st)) as handle:
                        json.load(handle)
                except OSError:
                    continue
                except ValueError:
                    failures.append("torn")
                    continue
                reads[0] += 1

        thread = threading.Thread(target=poll)
        thread.start()
        try:
            code = main(["run", str(src), "--status", str(st)])
        finally:
            stop.set()
            thread.join()
        assert code == 0
        assert failures == []
        doc = _read(st)
        assert doc["phase"] == "done"
        assert doc["exit_status"] == 0
        assert doc["states"] > 0

    def test_inspect_renders_heartbeat(self, tmp_path, capsys):
        st = tmp_path / "st.json"
        write_atomic(str(st), {
            "type": "heartbeat", "version": 1, "pid": 1,
            "time": 0.0, "uptime_seconds": 1.0,
            "interval_seconds": 1.0, "beats": 2, "states": 10,
            "frontier": 0, "rolling_states_per_second": None,
            "overall_states_per_second": 10.0, "phase": "done",
            "exit_status": 0,
        })
        assert main(["inspect", str(st)]) == 0
        out = capsys.readouterr().out
        assert "phase=done" in out

    def test_inspect_prints_what_render_status_renders(
        self, tmp_path, capsys, monkeypatch
    ):
        doc = {
            "type": "heartbeat", "version": 1, "pid": 1,
            "time": 50.0, "uptime_seconds": 3.0,
            "interval_seconds": 1.0, "beats": 4, "states": 40,
            "frontier": 2, "rolling_states_per_second": 12.0,
            "overall_states_per_second": 13.0, "phase": "explore",
            "shards": [
                {"wid": 0, "states": 20, "frontier": 1, "beats": 2,
                 "age_seconds": 0.5},
                {"wid": 1, "states": 20, "frontier": 1, "beats": 2,
                 "age_seconds": 0.5},
            ],
        }
        st = tmp_path / "st.json"
        write_atomic(str(st), doc)
        monkeypatch.setattr(status.time, "time", lambda: 51.0)
        assert main(["inspect", str(st)]) == 0
        assert capsys.readouterr().out == (
            status.render_status(doc, now=51.0) + "\n"
        )

    def test_inspect_missing_heartbeat_is_usage_error(
        self, tmp_path, capsys
    ):
        assert main(["inspect", str(tmp_path / "nope.json")]) == 2
        assert "cannot inspect" in capsys.readouterr().err

