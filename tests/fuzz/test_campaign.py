"""Campaign driver: clean runs, resume, crash robustness, injection.

The expensive end-to-end properties live here: a campaign killed with
``kill -9`` resumes past everything its checkpoint recorded, a forked
pool produces the byte-identical corpus a sequential run does, and an
injected broken lock client is detected, minimized and replayable.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main
from repro.fuzz import campaign as campaign_mod
from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.corpus import Corpus, CorpusError
from repro.obs import ledger
from repro.semantics.parallel import available as fork_available

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    return env


def _cfg(tmp_path, **kw):
    kw.setdefault("seed", 1)
    kw.setdefault("count", 6)
    kw.setdefault("out", str(tmp_path / "corpus"))
    return CampaignConfig(**kw)


class TestSequentialCampaign:
    def test_clean_run_and_resume(self, tmp_path):
        cfg = _cfg(tmp_path)
        stats = run_campaign(cfg)
        assert stats.executed == 6
        assert stats.skipped == 0
        assert stats.unexpected == 0
        assert stats.stopped == "done"

        corpus = Corpus(cfg.out)
        assert corpus.program_count() == stats.programs_added > 0
        state = corpus.load_checkpoint()
        assert len(state["done"]) == 6
        assert corpus.load_findings()["findings"] == []

        # The resume: everything in the checkpoint is skipped, nothing
        # re-executes.
        again = run_campaign(_cfg(tmp_path))
        assert again.executed == 0
        assert again.skipped == 6

    def test_resume_extends_a_grown_count(self, tmp_path):
        run_campaign(_cfg(tmp_path, count=4))
        stats = run_campaign(_cfg(tmp_path, count=8))
        assert stats.skipped == 4
        assert stats.executed == 4

    def test_foreign_checkpoint_rejected(self, tmp_path):
        run_campaign(_cfg(tmp_path, seed=1))
        with pytest.raises(CorpusError, match="--fresh"):
            run_campaign(_cfg(tmp_path, seed=2))
        # --fresh discards it and runs.
        stats = run_campaign(_cfg(tmp_path, seed=2, fresh=True))
        assert stats.executed == 6

    def test_duration_budget_stops_admission(self, tmp_path):
        stats = run_campaign(_cfg(tmp_path, duration=0.0))
        assert stats.stopped == "duration"
        assert stats.executed == 0
        # Nothing finished, so the next run still has all the work.
        resumed = run_campaign(_cfg(tmp_path))
        assert resumed.executed == 6

    def test_findings_log_schema(self, tmp_path):
        cfg = _cfg(tmp_path, count=2,
                   kinds=("minic-lock-broken",))
        run_campaign(cfg)
        doc = Corpus(cfg.out).load_findings()
        assert doc["type"] == "fuzz-findings"
        assert doc["campaign"]["seed"] == 1
        assert doc["campaign"]["kinds"] == ["minic-lock-broken"]
        for finding in doc["findings"]:
            assert finding["kind"] == "race"
            assert finding["expected"] is True
            assert set(finding["input"]) == \
                {"kind", "index", "seed", "hash"}
            assert os.path.exists(finding["witness"])


class TestInjectedDivergence:
    def test_broken_client_minimized_and_replayable(self, tmp_path):
        cfg = _cfg(tmp_path, count=2, kinds=("minic-lock-broken",))
        stats = run_campaign(cfg)
        assert stats.findings == 2
        assert stats.unexpected == 0  # expected: we injected them

        corpus = Corpus(cfg.out)
        for finding in corpus.load_findings()["findings"]:
            assert finding["schedule_steps"] <= \
                finding["original_steps"]
            witness = finding["witness"]
            program = corpus.program_path(
                finding["input"]["hash"], ".c"
            )
            record = json.loads(open(witness).read())
            assert record["program"]["file"] == program
            assert record["program"]["lock"] is True
            # The replay harness accepts the artifact end to end.
            assert main(["replay", program, "--witness",
                         witness]) == 0


class TestHarnessCrash:
    def test_crash_becomes_a_finding(self, tmp_path, monkeypatch):
        def boom(inp, cfg):
            raise RuntimeError("synthetic harness crash")

        monkeypatch.setattr(campaign_mod, "_check_minic_seq", boom)
        cfg = _cfg(tmp_path, count=2, kinds=("minic-seq",))
        stats = run_campaign(cfg)
        assert stats.executed == 2  # the campaign did not die
        assert stats.unexpected == 2
        findings = Corpus(cfg.out).load_findings()["findings"]
        assert all(f["kind"] == "crash" for f in findings)
        assert "synthetic harness crash" in findings[0]["detail"]

    def test_unexpected_divergence_reported(self, tmp_path,
                                            monkeypatch):
        def diverge(inp, cfg):
            return campaign_mod._finding(
                "divergence", inp, "synthetic divergence"
            )

        monkeypatch.setattr(campaign_mod, "_check_minic_seq", diverge)
        cfg = _cfg(tmp_path, count=1, kinds=("minic-seq",))
        stats = run_campaign(cfg)
        assert stats.unexpected == 1


class TestBoundsAreInconclusive:
    """A bound is never a finding against the program: a ``cut``
    behaviour set or a strict search over ``max_states`` gives an
    expected ``inconclusive`` finding that names the bound."""

    @pytest.mark.parametrize("kinds, bounds, names", [
        (("minic-seq", "cimp-pair"), {"max_events": 1, "count": 6},
         "max_events"),
        (("minic-lock", "cimp-pair"), {"max_states": 40, "count": 4},
         "state bound 40"),
    ])
    def test_bound_gives_inconclusive_not_a_failure(
        self, tmp_path, kinds, bounds, names
    ):
        stats = run_campaign(_cfg(tmp_path, seed=3, kinds=kinds, **bounds))
        assert stats.unexpected == 0  # `repro fuzz` exits 0
        findings = Corpus(str(tmp_path / "corpus")).load_findings()
        by_kind = {}
        for finding in findings["findings"]:
            by_kind.setdefault(finding["kind"], []).append(finding)
        assert not {"crash", "divergence", "lemma"} & set(by_kind)
        assert by_kind["inconclusive"]
        for finding in by_kind["inconclusive"]:
            assert finding["expected"] is True
            assert finding["detail"].startswith("inconclusive: ")
        assert any(names in f["detail"] for f in by_kind["inconclusive"])


@pytest.mark.skipif(not fork_available(),
                    reason="platform cannot fork workers")
class TestForkedPool:
    def test_parallel_corpus_matches_sequential(self, tmp_path):
        seq = _cfg(tmp_path, count=9, out=str(tmp_path / "seq"))
        par = _cfg(tmp_path, count=9, out=str(tmp_path / "par"),
                   jobs=2)
        a = run_campaign(seq)
        b = run_campaign(par)
        assert a.executed == b.executed == 9

        def snapshot(out):
            root = os.path.join(out, "programs")
            return {
                name: open(os.path.join(root, name)).read()
                for name in os.listdir(root)
            }

        assert snapshot(seq.out) == snapshot(par.out)
        assert Corpus(seq.out).load_checkpoint()["done"] == \
            Corpus(par.out).load_checkpoint()["done"]

    def test_kill9_then_resume_skips_finished_inputs(self, tmp_path):
        """The headline crash-robustness contract: SIGKILL mid-campaign
        loses at most in-flight inputs; the checkpoint survives and the
        resume never re-runs finished work."""
        out = str(tmp_path / "corpus")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fuzz",
             "--out", out, "--seed", "3", "--count", "400",
             "--kinds", "minic-lock"],
            env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        corpus = Corpus(out)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    pytest.fail(
                        "campaign finished before it could be killed"
                    )
                try:
                    state = corpus.load_checkpoint()
                except CorpusError:
                    state = None  # mid-write is impossible (atomic
                    # rename), but a stale partial dir read is not
                if state and len(state["done"]) >= 2:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("campaign never checkpointed progress")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        state = corpus.load_checkpoint()
        finished = len(state["done"])
        assert finished >= 2
        # Resume over a prefix of the original plan: every finished
        # index is skipped, only genuinely new work runs.
        target = finished + 2
        stats = run_campaign(CampaignConfig(
            seed=3, count=target, kinds=("minic-lock",), out=out,
        ))
        pending_before = [
            i for i in range(target) if str(i) not in state["done"]
        ]
        assert stats.skipped == target - len(pending_before)
        assert stats.executed == len(pending_before)
        after = corpus.load_checkpoint()["done"]
        assert all(str(i) in after for i in range(target))
        # Finished hashes were not recomputed differently.
        for key, value in state["done"].items():
            assert after[key] == value


@pytest.mark.skipif(not fork_available(),
                    reason="platform cannot fork workers")
class TestForkedPoolObservability:
    def test_workers_ship_their_metrics(self, tmp_path, capsys):
        counts = {}
        for jobs in (1, 2):
            run = tmp_path / "run{}.json".format(jobs)
            assert main([
                "fuzz", "--out", str(tmp_path / "c{}".format(jobs)),
                "--seed", "3", "--count", "6", "--jobs", str(jobs),
                "--ledger", str(run),
            ]) == 0
            doc = json.loads(run.read_text())
            counts[jobs] = doc["metrics"]["counters"]
        capsys.readouterr()
        for name in ("fuzz.inputs", "explore.states_visited",
                     "race.witnesses"):
            assert counts[2].get(name) == counts[1].get(name), name
        assert counts[2]["explore.states_visited"] > 0
        assert counts[2]["closure.modules_staged"] > 0

    def test_worker_traces_are_readable(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main([
            "fuzz", "--out", str(tmp_path / "c"), "--seed", "3",
            "--count", "4", "--jobs", "2", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        for wid in (0, 1):
            path = tmp_path / "t.jsonl.w{}".format(wid)
            records = [
                json.loads(line)
                for line in path.read_text().splitlines()
            ]
            assert records
            spans = [r for r in records if r.get("type") == "span"]
            assert spans
            assert all(r["attrs"]["wid"] == wid for r in spans)


class _FullDisk:
    """A file handle whose every write fails with ENOSPC."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.skipif(not fork_available(),
                    reason="platform cannot fork workers")
def test_full_disk_during_a_checkpoint_write(tmp_path, capsys,
                                             monkeypatch):
    """The third checkpoint write of a jobs=2 campaign hits a full
    disk: exit 2 with one line, the second checkpoint still loads, no
    temp file is left, and a rerun resumes past what it recorded."""
    out = str(tmp_path / "corpus")
    checkpoint = Corpus(out).checkpoint_path
    writes = []
    real_open = open

    def open_on_a_full_disk(path, mode="r", *args, **kwargs):
        handle = real_open(path, mode, *args, **kwargs)
        if "w" in mode and str(path).startswith(checkpoint + "."):
            writes.append(path)
            if len(writes) == 3:
                return _FullDisk(handle)
        return handle

    monkeypatch.setattr(ledger, "open", open_on_a_full_disk,
                        raising=False)
    argv = ["fuzz", "--out", out, "--seed", "3", "--count", "6",
            "--kinds", "minic-lock", "--jobs", "2"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("repro: internal error: OSError:")
    assert "No space left" in lines[0]
    state = Corpus(out).load_checkpoint()
    assert len(state["done"]) == 2
    leftovers = [
        name for _dirs, _subdirs, names in os.walk(out)
        for name in names if name.endswith(".tmp")
    ]
    assert leftovers == []

    monkeypatch.undo()
    assert main(argv) == 0
    assert "4 input(s) executed, 2 resumed" in capsys.readouterr().out
    after = Corpus(out).load_checkpoint()["done"]
    assert len(after) == 6
    assert all(after[k] == v for k, v in state["done"].items())


class TestCliFuzz:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        assert main(["fuzz", "--out", out, "--seed", "1",
                     "--count", "4"]) == 0
        text = capsys.readouterr().out
        assert "fuzz: 4 input(s) executed" in text
        assert "findings: 0" in text

    def test_resume_reported(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        assert main(["fuzz", "--out", out, "--count", "3"]) == 0
        capsys.readouterr()
        assert main(["fuzz", "--out", out, "--count", "3"]) == 0
        assert "0 input(s) executed, 3 resumed" in \
            capsys.readouterr().out

    def test_expected_findings_keep_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        assert main(["fuzz", "--out", out, "--count", "1",
                     "--kinds", "minic-lock-broken"]) == 0
        assert "findings: 1 (0 unexpected)" in \
            capsys.readouterr().out

    def test_unexpected_findings_exit_one(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(
            campaign_mod, "_check_minic_seq",
            lambda inp, cfg: campaign_mod._finding(
                "divergence", inp, "synthetic"
            ),
        )
        out = str(tmp_path / "corpus")
        assert main(["fuzz", "--out", out, "--count", "1",
                     "--kinds", "minic-seq"]) == 1
        assert "(1 unexpected)" in capsys.readouterr().out

    def test_bad_kind_is_usage_error(self, tmp_path, capsys):
        assert main(["fuzz", "--out", str(tmp_path / "c"),
                     "--kinds", "bogus"]) == 2
        assert "repro: error" in capsys.readouterr().err

    def test_checkpoint_mismatch_is_usage_error(self, tmp_path,
                                                capsys):
        out = str(tmp_path / "corpus")
        assert main(["fuzz", "--out", out, "--count", "2"]) == 0
        capsys.readouterr()
        assert main(["fuzz", "--out", out, "--count", "2",
                     "--seed", "9"]) == 2
        assert "--fresh" in capsys.readouterr().err
        assert main(["fuzz", "--out", out, "--count", "2",
                     "--seed", "9", "--fresh"]) == 0
        capsys.readouterr()

    def test_inspect_renders_fuzz_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        assert main(["fuzz", "--out", out, "--count", "1",
                     "--kinds", "minic-lock-broken"]) == 0
        capsys.readouterr()
        assert main(["inspect",
                     os.path.join(out, "findings.json")]) == 0
        text = capsys.readouterr().out
        assert "fuzz findings" in text
        assert main(["inspect",
                     os.path.join(out, "checkpoint.json")]) == 0
        assert "campaign complete" in capsys.readouterr().out

    def test_ledger_records_campaign(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        ledger_path = tmp_path / "run.json"
        assert main(["fuzz", "--out", out, "--count", "2",
                     "--ledger", str(ledger_path)]) == 0
        capsys.readouterr()
        doc = json.loads(ledger_path.read_text())
        assert doc["command"] == "fuzz"
        assert doc["verdict"] == "fuzz-clean"
        assert doc["executed"] == 2
