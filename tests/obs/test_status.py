"""The run ledger in progress: writer gating, atomicity, merging,
rendering."""

import json
import os
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.framework.build import lock_counter_system
from repro.obs import explain, ledger
from repro.obs.explain import render_manifest_summary
from repro.obs.ledger import ProgressWriter, write_atomic
from repro.semantics import GlobalContext, PreemptiveSemantics, explore
from repro.semantics.explore import _HB_STRIDE


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


class TestProgressWriter:
    def test_first_beat_is_immediate(self, tmp_path):
        run = ledger.configure(tmp_path / "run.json", "drf",
                               interval=1.0)
        run.set_config(jobs=1)
        assert ledger.writer.beat(states=1, frontier=1) is True
        doc = _read(tmp_path / "run.json")
        assert doc["type"] == "run-manifest"
        assert doc["status"] == "running"
        assert doc["command"] == "drf"
        assert doc["config"] == {"jobs": 1}
        assert doc["progress"]["states"] == 1
        assert doc["progress"]["beats"] == 1

    def test_beat_gates_on_interval(self, tmp_path):
        clock = FakeClock()
        hb = ProgressWriter(tmp_path / "p.json", interval=1.0,
                            clock=clock)
        assert hb.beat(states=1) is True
        clock.advance(0.5)
        assert hb.due() is False
        assert hb.beat(states=2) is False
        clock.advance(0.6)
        assert hb.due() is True
        assert hb.beat(states=3) is True
        doc = _read(tmp_path / "p.json")
        assert doc["states"] == 3
        assert doc["beats"] == 2

    def test_force_ignores_the_gate(self, tmp_path):
        clock = FakeClock()
        hb = ProgressWriter(tmp_path / "p.json", interval=10.0,
                            clock=clock)
        hb.force(states=1)
        hb.force(states=2, phase="done")
        doc = _read(tmp_path / "p.json")
        assert doc["states"] == 2
        assert doc["phase"] == "done"
        assert doc["beats"] == 2

    def test_sticky_fields_ride_every_beat(self, tmp_path):
        clock = FakeClock()
        hb = ProgressWriter(tmp_path / "p.json", interval=0.0,
                            clock=clock)
        hb.update(phase="explore", semantics="preemptive")
        clock.advance(1.0)
        hb.beat(states=5)
        doc = _read(tmp_path / "p.json")
        assert doc["phase"] == "explore"
        assert doc["semantics"] == "preemptive"

    def test_rolling_rate_uses_the_window(self, tmp_path):
        clock = FakeClock()
        hb = ProgressWriter(tmp_path / "p.json", interval=1.0,
                            clock=clock)
        hb.beat(states=0)
        for states in (100, 200, 300):
            clock.advance(1.0)
            assert hb.beat(states=states)
        doc = _read(tmp_path / "p.json")
        assert doc["rolling_states_per_second"] == pytest.approx(100.0)
        assert doc["overall_states_per_second"] == pytest.approx(100.0)

    def test_budget_used_and_eta(self, tmp_path):
        clock = FakeClock()
        hb = ProgressWriter(tmp_path / "p.json", interval=1.0,
                            clock=clock)
        hb.update(budget=1000)
        hb.beat(states=0)
        clock.advance(1.0)
        hb.beat(states=100)
        doc = _read(tmp_path / "p.json")
        assert doc["budget_used"] == pytest.approx(0.1)
        # 900 remaining at 100 states/s rolling.
        assert doc["eta_budget_seconds"] == pytest.approx(9.0)

    def test_states_and_frontier_are_sticky_when_omitted(
        self, tmp_path
    ):
        clock = FakeClock()
        hb = ProgressWriter(tmp_path / "p.json", interval=0.0,
                            clock=clock)
        hb.beat(states=7, frontier=3)
        clock.advance(1.0)
        hb.force(phase="done")
        doc = _read(tmp_path / "p.json")
        assert doc["states"] == 7
        assert doc["frontier"] == 3

    def test_wid_appears_in_shard_documents(self, tmp_path):
        hb = ledger.configure_shard(tmp_path / "run.json", 2, 0.0)
        hb.beat(states=1)
        doc = _read(tmp_path / "run.json.w2")
        assert doc["wid"] == 2
        assert "progress" not in doc

    def test_intern_census_is_sampled(self, tmp_path):
        hb = ProgressWriter(tmp_path / "p.json", interval=0.0)
        hb.beat(states=1)
        doc = _read(tmp_path / "p.json")
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
        run = ledger.configure(tmp_path / "run.json", "run",
                               interval=0.25)
        assert ledger.active is run
        assert ledger.writer is run.progress
        assert run.progress.interval == 0.25
        ledger.reset()
        assert ledger.active is None and ledger.writer is None

    def test_configure_reads_interval_from_env(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(ledger.ENV_STATUS_INTERVAL, "0.5")
        ledger.configure(tmp_path / "run.json", "run")
        assert ledger.writer.interval == 0.5

    def test_interval_from_env_bad_value(self, monkeypatch):
        monkeypatch.setenv(ledger.ENV_STATUS_INTERVAL, "not-a-float")
        assert ledger.interval_from_env() == ledger.DEFAULT_INTERVAL

    def test_finalize_stamps_done_and_drops_the_record(self, tmp_path):
        ledger.configure(tmp_path / "run.json", "run", interval=10.0)
        ledger.writer.beat(states=5)
        ledger.finalize(1)
        doc = _read(tmp_path / "run.json")
        assert doc["status"] == "done"
        assert doc["exit_status"] == 1
        assert doc["progress"]["phase"] == "done"
        assert doc["progress"]["states"] == 5
        assert doc["progress"]["beats"] == 2
        assert ledger.active is None and ledger.writer is None

    def test_shard_finalize_writes_the_closing_block(self, tmp_path):
        ledger.configure_shard(tmp_path / "run.json", 0, 10.0)
        ledger.writer.beat(states=5)
        ledger.finalize()
        doc = _read(tmp_path / "run.json.w0")
        assert doc["phase"] == "done" and doc["states"] == 5
        assert ledger.writer is None
        assert not (tmp_path / "run.json").exists()

    def test_finalize_without_record_is_noop(self):
        ledger.reset()
        ledger.finalize(0)


class TestHotLoopCost:
    """The exploration loops touch the writer once per stride, a long
    interval keeps the file writes to the first and the final one, and
    no rewrite snapshots the metrics registry."""

    @pytest.mark.parametrize("reduce", [False, True],
                             ids=["full", "por"])
    def test_beats_per_stride_and_writes(self, tmp_path, monkeypatch,
                                         reduce):
        calls = []
        writes = []
        snapshots = []
        beat = ProgressWriter.beat
        write = ledger.write_atomic
        snapshot = obs.snapshot

        def counting_beat(self, *args, **kw):
            calls.append(1)
            return beat(self, *args, **kw)

        def counting_write(*args, **kw):
            writes.append(1)
            return write(*args, **kw)

        def counting_snapshot(*args, **kw):
            snapshots.append(1)
            return snapshot(*args, **kw)

        monkeypatch.setattr(ProgressWriter, "beat", counting_beat)
        monkeypatch.setattr(ledger, "write_atomic", counting_write)
        monkeypatch.setattr(obs, "snapshot", counting_snapshot)
        obs.configure(metrics=True)
        ledger.configure(tmp_path / "run.json", "explore",
                         interval=3600.0)
        graph = explore(
            GlobalContext(lock_counter_system(2).source_program()),
            PreemptiveSemantics(), reduce=reduce,
        )
        states = graph.state_count()
        assert states > 4 * _HB_STRIDE
        assert 1 <= len(calls) <= states // _HB_STRIDE + 1
        # The first beat, then the closing one explore() forces.
        assert len(writes) <= 2
        assert snapshots == []
        doc = _read(tmp_path / "run.json")
        assert doc["status"] == "running"
        assert "metrics" not in doc
        assert doc["progress"]["states"] == states


class TestCleanupArtifacts:
    """The stale-artifact sweep when a record opens (regression for
    leaked ``FILE.<pid>.tmp`` temps and phantom ``FILE.w<wid>`` shard
    files surviving into the next run's merge)."""

    def _litter(self, tmp_path):
        run = tmp_path / "run.json"
        stale = [
            tmp_path / "run.json.1234.tmp",      # orphaned temp write
            tmp_path / "run.json.w0",            # old shard file
            tmp_path / "run.json.w7",
            tmp_path / "run.json.w7.5678.tmp",   # a shard's own temp
        ]
        for path in stale:
            path.write_text("{}")
        keep = [
            tmp_path / "run.json.bak",           # not ours: keep
            tmp_path / "other.json.w0",          # a different record
        ]
        for path in keep:
            path.write_text("{}")
        return run, stale, keep

    def test_sweep_removes_only_our_artifacts(self, tmp_path):
        run, stale, keep = self._litter(tmp_path)
        removed = ledger.cleanup_artifacts(run)
        assert sorted(removed) == sorted(str(p) for p in stale)
        for path in stale:
            assert not path.exists()
        for path in keep:
            assert path.exists()

    def test_configure_sweeps(self, tmp_path):
        run, stale, _keep = self._litter(tmp_path)
        ledger.configure(run, "run", interval=0.0)
        for path in stale:
            assert not path.exists()

    def test_shard_configure_does_not_sweep(self, tmp_path):
        """By the time a worker configures its own shard file the
        parent already swept; a worker sweeping again would race its
        siblings' live shard documents."""
        run, stale, _keep = self._litter(tmp_path)
        ledger.configure_shard(run, 3, 0.0)
        for path in stale:
            assert path.exists()

    def test_phantom_shards_do_not_haunt_the_merge(self, tmp_path):
        # A previous --jobs 4 run left shards w0..w3; the next run is
        # --jobs 1. Without the sweep, merge_shards(jobs=1) still only
        # reads w0, but a watcher globbing FILE.w* would see ghosts —
        # and a *wider* merge would read stale state counts.
        run = tmp_path / "run.json"
        for wid in range(4):
            old = ProgressWriter(ledger.shard_path(run, wid),
                                 interval=0.0, wid=wid)
            old.beat(states=100)
        hb = ledger.configure(run, "run", interval=0.0).progress
        shard = ProgressWriter(ledger.shard_path(run, 0), interval=0.0,
                               wid=0)
        shard.beat(states=7)
        ledger.merge_shards(hb, jobs=2)
        progress = _read(run)["progress"]
        assert progress["states"] == 7
        rows = {row["wid"]: row for row in progress["shards"]}
        # w1 exists as a never-beaten row, not the stale 100-state one.
        assert rows[1]["beats"] == 0

    def test_missing_directory_is_harmless(self, tmp_path):
        assert ledger.cleanup_artifacts(
            tmp_path / "nowhere" / "run.json"
        ) == []


class TestMergeShards:
    def test_totals_and_rows(self, tmp_path):
        clock = FakeClock()
        hb = ProgressWriter(tmp_path / "p.json", interval=0.0,
                            clock=clock)
        for wid, states in ((0, 10), (1, 32)):
            shard = ProgressWriter(
                ledger.shard_path(hb.path, wid), interval=0.0, wid=wid
            )
            shard.update(phase="expand")
            shard.beat(states=states, frontier=wid)
        ledger.merge_shards(hb, jobs=3, alive={0: True, 1: True,
                                               2: False})
        doc = _read(tmp_path / "p.json")
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
        hb = ledger.configure(tmp_path / "run.json", "run",
                              interval=0.0).progress
        shard = ProgressWriter(ledger.shard_path(hb.path, 0),
                               interval=0.0, wid=0)
        shard.beat(states=9)
        ledger.merge_shards(hb, jobs=1, phase="merged")
        ledger.finalize(0)
        progress = _read(tmp_path / "run.json")["progress"]
        assert progress["phase"] == "done"
        assert progress["shards"][0]["states"] == 9


def _running(**progress):
    """A running ledger document whose progress block carries
    ``progress``."""
    block = {
        "pid": 42, "time": 1000.0, "uptime_seconds": 3.5,
        "interval_seconds": 1.0, "beats": 4, "states": 5028,
        "frontier": 17, "rolling_states_per_second": 1500.0,
        "overall_states_per_second": 1436.6, "phase": "explore",
    }
    block.update(progress)
    return {
        "type": "run-manifest", "version": 1, "command": "drf",
        "argv": ["drf", "p.c"], "started_at": "t0",
        "config": {"jobs": 2}, "status": "running", "progress": block,
    }


class TestRenderProgress:
    def test_basic_render(self):
        out = render_manifest_summary(_running(), now=1001.0)
        assert "status=running" in out
        assert "phase=explore" in out
        assert "(1.0s ago)" in out
        assert "5,028 state(s)" in out
        assert "1,500.0 states/s rolling" in out
        assert "WARNING" not in out

    def test_stale_beat_warns(self):
        out = render_manifest_summary(_running(), now=1100.0)
        assert "WARNING" in out and "100.0s old" in out

    def test_finished_record_never_warns_stale(self):
        doc = _running(phase="done")
        doc.update(status="done", exit_status=0, verdict="drf")
        out = render_manifest_summary(doc, now=1100.0)
        assert "WARNING" not in out and "ago" not in out
        assert "exit=0" in out and "phase=done" in out

    def test_budget_and_eta_render(self):
        out = render_manifest_summary(
            _running(budget=30000, budget_used=0.1676,
                     eta_budget_seconds=17.0),
            now=1001.0,
        )
        assert "budget 5,028/30,000 (16.8%)" in out
        assert "budget exhausted in ~17s" in out

    def test_shard_table_renders(self):
        doc = _running(jobs=2, shards=[
            {"wid": 0, "states": 10, "frontier": 1, "phase": "expand",
             "beats": 3, "age_seconds": 0.2, "alive": True},
            {"wid": 1, "states": 0, "frontier": 0, "phase": None,
             "beats": 0, "age_seconds": None, "alive": False},
        ])
        out = render_manifest_summary(doc, now=1001.0)
        assert "Shard" in out and "Beat age" in out
        assert "w0" in out and "yes" in out
        assert "w1" in out and "NO" in out

    def test_intern_tables_line(self):
        out = render_manifest_summary(
            _running(intern={"world": 6330, "frame": 90}), now=1001.0
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


class TestCliLedgerProgress:
    def test_run_writes_progress_under_poller(
        self, tmp_path, capsys, monkeypatch
    ):
        """jobs=1 run with a tiny interval plus a concurrent poller:
        every successful read parses as a running or final ledger; the
        final one says done."""
        monkeypatch.setenv(ledger.ENV_STATUS_INTERVAL, "0.01")
        src = tmp_path / "p.c"
        src.write_text(QUICKSTART)
        run = tmp_path / "run.json"
        stop = threading.Event()
        failures = []
        statuses = []

        def poll():
            while not stop.is_set():
                try:
                    with open(str(run)) as handle:
                        doc = json.load(handle)
                except OSError:
                    continue
                except ValueError:
                    failures.append("torn")
                    continue
                statuses.append(doc["status"])

        thread = threading.Thread(target=poll)
        thread.start()
        try:
            code = main(["run", str(src), "--ledger", str(run)])
        finally:
            stop.set()
            thread.join()
        assert code == 0
        assert failures == []
        assert set(statuses) <= {"running", "done"}
        doc = _read(run)
        assert doc["status"] == "done"
        assert doc["progress"]["phase"] == "done"
        assert doc["exit_status"] == 0
        assert doc["progress"]["states"] > 0

    def test_inspect_renders_a_running_ledger(self, tmp_path, capsys,
                                              monkeypatch):
        run = tmp_path / "run.json"
        write_atomic(str(run), _running(budget=30000,
                                        budget_used=0.1676))
        monkeypatch.setattr(explain.time, "time", lambda: 1100.0)
        assert main(["inspect", str(run)]) == 0
        out = capsys.readouterr().out
        assert "status=running" in out
        assert "phase=explore" in out
        assert "budget 5,028/30,000" in out
        assert "WARNING: last beat is 100.0s old" in out

    def test_inspect_prints_what_render_manifest_summary_renders(
        self, tmp_path, capsys, monkeypatch
    ):
        doc = _running(time=50.0, shards=[
            {"wid": 0, "states": 20, "frontier": 1, "beats": 2,
             "age_seconds": 0.5},
            {"wid": 1, "states": 20, "frontier": 1, "beats": 2,
             "age_seconds": 0.5},
        ])
        run = tmp_path / "run.json"
        write_atomic(str(run), doc)
        monkeypatch.setattr(explain.time, "time", lambda: 51.0)
        assert main(["inspect", str(run)]) == 0
        assert capsys.readouterr().out == (
            render_manifest_summary(doc, now=51.0) + "\n"
        )

    def test_inspect_missing_ledger_is_usage_error(
        self, tmp_path, capsys
    ):
        assert main(["inspect", str(tmp_path / "nope.json")]) == 2
        assert "cannot inspect" in capsys.readouterr().err
