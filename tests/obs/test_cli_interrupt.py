"""Ctrl-C on the sequential paths: exploration, compile/validate and
witness capture each exit 130 within a bound, print only
``repro: interrupted`` and leave their run ledger stamped with the 130.

Each test starts the CLI in a subprocess, waits for a sign that the
command is past start-up and inside its slow phase, sends SIGINT and
times the exit.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.obs import status

from tests.helpers import EXAMPLES_DIR

#: Seconds from SIGINT to exit that count as prompt.
EXIT_BOUND = 10.0

#: Seconds a command may take to reach its slow phase.
START_BOUND = 60.0

#: A lock client whose race comes after 25 locked rounds per thread:
#: the race is found within a second, and validating or minimizing
#: its long schedule takes tens of seconds.
SLOW_RACY = """
extern void lock();
extern void unlock();
int x = 0;
int y = 0;
void t1() { int i = 25; while (i > 0) { lock(); x = x + 1; unlock(); i = i - 1; } y = 1; }
void t2() { int i = 25; while (i > 0) { lock(); x = x + 2; unlock(); i = i - 1; } y = 2; }
"""


def _start(argv, **env):
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)
    ))
    return subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv,
        env=dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1",
                 **env),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def _wait_for(proc, ready):
    deadline = time.monotonic() + START_BOUND
    while not ready():
        if proc.poll() is not None:
            pytest.fail("the command finished before it could be "
                        "interrupted (rc={})".format(proc.returncode))
        assert time.monotonic() < deadline, "the command never got going"
        time.sleep(0.01)


def _interrupt(proc, ledger_path):
    """SIGINT ``proc``; assert the documented exit."""
    try:
        proc.send_signal(signal.SIGINT)
        sent = time.monotonic()
        _, err = proc.communicate(timeout=60)
        took = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)
    assert proc.returncode == 130
    assert err.decode().splitlines() == ["repro: interrupted"]
    assert took < EXIT_BOUND, took
    with open(ledger_path) as handle:
        assert json.load(handle)["exit_status"] == 130


def test_sequential_drf(tmp_path):
    hb = tmp_path / "hb.json"
    run = tmp_path / "run.json"
    proc = _start(
        ["drf", os.path.join(EXAMPLES_DIR, "counter.c"), "--lock",
         "--threads", "inc,inc,inc,inc", "--no-por", "--status", str(hb),
         "--ledger", str(run)],
        REPRO_STATUS_INTERVAL="0.05",
    )

    def exploring():
        doc = status.load(str(hb))
        return bool(doc and doc.get("phase") == "explore"
                    and doc.get("states"))

    _wait_for(proc, exploring)
    _interrupt(proc, run)


def test_validate_optimized(tmp_path):
    src = tmp_path / "slow.c"
    src.write_text(SLOW_RACY)
    trace = tmp_path / "t.jsonl"
    run = tmp_path / "run.json"
    proc = _start(["validate", "-O", str(src), "--lock", "--trace",
                   str(trace), "--ledger", str(run)])
    # The trace opens after start-up; validation then runs for tens of
    # seconds.
    _wait_for(proc, trace.exists)
    time.sleep(0.5)
    _interrupt(proc, run)


def test_drf_witness_minimize(tmp_path):
    src = tmp_path / "slow.c"
    src.write_text(SLOW_RACY)
    witness = tmp_path / "w.json"
    run = tmp_path / "run.json"
    proc = _start(["drf", str(src), "--lock", "--threads", "t1,t2",
                   "--witness-out", str(witness), "--minimize",
                   "--ledger", str(run)])
    # The verdict line comes before the witness is recorded and shrunk.
    assert proc.stdout.readline() == b"DRF: False\n"
    _interrupt(proc, run)
    assert not witness.exists()
