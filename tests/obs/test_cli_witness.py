"""The witness workflow through the CLI: drf --witness-out, replay,
inspect — smoke-tested on a deliberately racy MiniC program."""

import json

import pytest

from repro.cli import main

RACY = """
int x = 0;
void t1() { x = 1; }
void t2() { x = 2; }
"""

#: A lock client that writes ``y`` outside its critical section.
RACY_LOCK_CLIENT = """
extern void lock();
extern void unlock();
int x = 0;
int y = 0;
void inc() {
  int tmp;
  lock();
  tmp = x;
  x ++;
  unlock();
  y = tmp;
  print(tmp);
}
"""

SAFE = """
int g = 0;
void main() { g = 1; print(g); }
"""


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY)
    return str(path)


@pytest.fixture
def safe_file(tmp_path):
    path = tmp_path / "safe.c"
    path.write_text(SAFE)
    return str(path)


class TestDrfWitnessOut:
    def test_witness_written_on_race(
        self, racy_file, tmp_path, capsys
    ):
        out = tmp_path / "w.json"
        assert main(
            ["drf", racy_file, "--threads", "t1,t2",
             "--witness-out", str(out)]
        ) == 1
        stdout = capsys.readouterr().out
        assert "DRF: False" in stdout
        assert "witness:" in stdout
        record = json.loads(out.read_text())
        assert record["type"] == "witness"
        assert record["verdict"] == "race"
        assert record["program"]["threads"] == "t1,t2"

    def test_no_witness_when_drf(self, safe_file, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(
            ["drf", safe_file, "--witness-out", str(out)]
        ) == 0
        assert "DRF: True" in capsys.readouterr().out
        assert not out.exists()

    def test_minimize_flag(self, racy_file, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        small = tmp_path / "small.json"
        main(["drf", racy_file, "--threads", "t1,t2",
              "--witness-out", str(plain)])
        main(["drf", racy_file, "--threads", "t1,t2",
              "--witness-out", str(small), "--minimize"])
        rec_plain = json.loads(plain.read_text())
        rec_small = json.loads(small.read_text())
        assert rec_small["minimized"] is True
        assert len(rec_small["schedule"]["steps"]) <= len(
            rec_plain["schedule"]["steps"]
        )


class TestWitnessDecodesNoState:
    """Witness capture checks each replayed step against the graph's
    keys, so neither the race search nor the replay reads
    ``StateGraph.states`` (the graph keeps keys, not worlds)."""

    def test_drf_witness_and_replay(self, tmp_path, monkeypatch, capsys):
        from repro.semantics.explore import StateGraph

        path = tmp_path / "racy_lock.c"
        path.write_text(RACY_LOCK_CLIENT)
        reads = []
        real_states = StateGraph.states

        def counting_states(self):
            reads.append(self)
            return real_states.fget(self)

        monkeypatch.setattr(StateGraph, "states", property(counting_states))
        out = tmp_path / "w.json"
        assert main(
            ["drf", str(path), "--threads", "inc,inc", "--lock",
             "--witness-out", str(out)]
        ) == 1
        assert json.loads(out.read_text())["verdict"] == "race"
        assert main(["replay", str(path), "--witness", str(out)]) == 0
        assert "replay: OK" in capsys.readouterr().out
        assert reads == []


class TestReplayCommand:
    def _witness(self, racy_file, tmp_path):
        out = tmp_path / "w.json"
        main(["drf", racy_file, "--threads", "t1,t2",
              "--witness-out", str(out)])
        return str(out)

    def test_replay_verifies(self, racy_file, tmp_path, capsys):
        witness = self._witness(racy_file, tmp_path)
        # --threads comes from the witness's recorded program info.
        assert main(
            ["replay", racy_file, "--witness", witness]
        ) == 0
        assert "replay: OK" in capsys.readouterr().out

    def test_replay_divergence_exits_nonzero(
        self, racy_file, tmp_path, capsys
    ):
        witness = self._witness(racy_file, tmp_path)
        rec = json.loads(open(witness).read())
        rec["race"]["ws1"] = [424242]
        with open(witness, "w") as handle:
            json.dump(rec, handle)
        assert main(
            ["replay", racy_file, "--witness", witness]
        ) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_replay_minimize_and_resave(
        self, racy_file, tmp_path, capsys
    ):
        witness = self._witness(racy_file, tmp_path)
        out = tmp_path / "min.json"
        assert main(
            ["replay", racy_file, "--witness", witness,
             "--minimize", "--witness-out", str(out)]
        ) == 0
        rec = json.loads(out.read_text())
        assert rec["minimized"] is True
        # The minimized artifact replays too.
        assert main(
            ["replay", racy_file, "--witness", str(out)]
        ) == 0


class TestReplayTristateFlags:
    """Replay merges --lock/-O with the witness's program info as a
    tri-state: explicit CLI wins (including the negative forms), an
    omitted flag defers to the witness. The old truthy-or merge made a
    ``lock: true`` witness impossible to replay unlocked."""

    def _locked_witness(self, racy_file, tmp_path):
        out = tmp_path / "w.json"
        main(["drf", racy_file, "--threads", "t1,t2", "--lock",
              "--witness-out", str(out)])
        return str(out)

    def test_replay_flags_default_to_none(self):
        from repro.cli import make_parser

        args = make_parser().parse_args(["replay", "f.c", "--witness", "w"])
        assert args.lock is None and args.optimize is None
        args = make_parser().parse_args(
            ["replay", "f.c", "--witness", "w", "--no-lock",
             "--no-optimize"]
        )
        assert args.lock is False and args.optimize is False
        args = make_parser().parse_args(
            ["replay", "f.c", "--witness", "w", "--lock", "-O"]
        )
        assert args.lock is True and args.optimize is True
        # Other subcommands keep the plain flags: omitted means off.
        args = make_parser().parse_args(["drf", "f.c"])
        assert args.lock is False and args.optimize is False

    def test_locked_witness_replays_without_flags(
        self, racy_file, tmp_path, capsys
    ):
        witness = self._locked_witness(racy_file, tmp_path)
        record = json.loads(open(witness).read())
        assert record["program"]["lock"] is True
        assert main(["replay", racy_file, "--witness", witness]) == 0
        assert "replay: OK" in capsys.readouterr().out

    def test_explicit_no_lock_overrides_the_witness(
        self, racy_file, tmp_path, monkeypatch
    ):
        """--no-lock must actually build the unlocked program even
        when the witness says ``lock: true``."""
        from repro import cli

        witness = self._locked_witness(racy_file, tmp_path)
        seen = {}
        real_build = cli._build

        def spy(path, use_lock):
            seen["lock"] = use_lock
            return real_build(path, use_lock)

        monkeypatch.setattr(cli, "_build", spy)
        main(["replay", racy_file, "--witness", witness, "--no-lock"])
        assert seen["lock"] is False
        main(["replay", racy_file, "--witness", witness])
        assert seen["lock"] is True


class TestInspectCommand:
    def test_inspect_witness(self, racy_file, tmp_path, capsys):
        out = tmp_path / "w.json"
        main(["drf", racy_file, "--threads", "t1,t2",
              "--witness-out", str(out)])
        capsys.readouterr()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdict=race" in text
        assert "t0" in text and "t1" in text

    def test_inspect_trace(self, racy_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["drf", racy_file, "--threads", "t1,t2",
              "--trace", str(trace)])
        capsys.readouterr()
        assert main(["inspect", str(trace)]) == 0
        text = capsys.readouterr().out
        assert "trace:" in text
        assert "race.find" in text
