"""Fault injection: a forked worker SIGKILLed mid-run.

Both forking commands, ``run --jobs 2`` (the sharded explorer) and
``fuzz --jobs 2`` (the campaign), must notice the dead worker, exit 2
with one ``repro: internal error:`` line within 10 s of the kill, and
leave no process of their process group behind — with or without a
``--status`` heartbeat.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.obs import status
from repro.semantics.parallel import available

from tests.semantics.test_parallel_status import SLOW_LOCK_CLIENT

pytestmark = pytest.mark.skipif(
    not available() or not os.path.isdir("/proc"),
    reason="needs forked workers and /proc",
)

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Seconds from the kill to the CLI's exit, all workers included.
_BOUND = 10.0


def _children(pid):
    """Live (non-zombie) child pids of ``pid``, from /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            kids.append(int(entry))
    return kids


def _worker_pids(proc, hb):
    if hb is None:
        return _children(proc.pid)
    pids = []
    for wid in (0, 1):
        doc = status.load(status.shard_path(hb, wid))
        if doc and "pid" in doc:
            pids.append(doc["pid"])
    return pids


def _kill_a_worker(argv, hb):
    env = dict(os.environ, PYTHONPATH=_SRC, REPRO_STATUS_INTERVAL="0.05")
    if hb is not None:
        argv = argv + ["--status", str(hb)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv,
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    pgid = proc.pid
    try:
        deadline = time.monotonic() + 60
        pids = []
        while len(pids) < 2:
            if proc.poll() is not None:
                pytest.fail("run ended before its workers were seen "
                            "(rc={})".format(proc.returncode))
            assert time.monotonic() < deadline, "workers never appeared"
            time.sleep(0.02)
            pids = _worker_pids(proc, hb)
        time.sleep(1.0)  # let the run get going
        os.kill(pids[0], signal.SIGKILL)
        killed_at = time.monotonic()
        # stderr is inherited by the workers: EOF means they are gone.
        _, err = proc.communicate(timeout=60)
        elapsed = time.monotonic() - killed_at
    finally:
        if proc.poll() is None:
            os.killpg(pgid, signal.SIGKILL)
            proc.communicate(timeout=30)
    lines = err.decode().splitlines()
    assert proc.returncode == 2, lines
    assert len(lines) == 1, lines
    assert lines[0].startswith("repro: internal error:")
    assert "died without reporting" in lines[0]
    assert elapsed <= _BOUND, elapsed
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


@pytest.mark.parametrize("with_status", [True, False])
def test_killed_explorer_worker_fails_the_run(tmp_path, with_status):
    program = tmp_path / "slow.c"
    program.write_text(SLOW_LOCK_CLIENT)
    _kill_a_worker(
        ["run", str(program), "--lock", "--threads", "t1,t2",
         "--jobs", "2", "--max-states", "2000000"],
        tmp_path / "hb.json" if with_status else None,
    )


@pytest.mark.parametrize("with_status", [True, False])
def test_killed_fuzz_worker_fails_the_campaign(tmp_path, with_status):
    _kill_a_worker(
        ["fuzz", "--out", str(tmp_path / "corpus"), "--seed", "3",
         "--count", "3000", "--kinds", "minic-lock", "--jobs", "2"],
        tmp_path / "hb.json" if with_status else None,
    )
