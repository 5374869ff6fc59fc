"""The run ledger's progress under the parallel explorer.

The properties that matter: every worker writes its own shard file
(the fork-inherited parent writer never clobbers the main document),
a concurrent poller never sees a torn JSON document at any
parallelism, and the final merged progress block accounts for every
shard.
"""

import glob
import json
import threading

import pytest

from repro import obs
from repro.framework.build import lock_counter_system
from repro.obs import ledger
from repro.semantics import GlobalContext, PreemptiveSemantics, explore
from repro.semantics.parallel import available

from tests.helpers import SUITE, minic_program

pytestmark = pytest.mark.skipif(
    not available(), reason="platform cannot fork workers"
)


@pytest.fixture(autouse=True)
def _reset():
    obs.reset()
    ledger.reset()
    yield
    obs.reset()
    ledger.reset()


class _Poller:
    """Reads the record in a tight loop, counting torn reads."""

    def __init__(self, path):
        self.path = str(path)
        self.stop = threading.Event()
        self.failures = 0
        self.reads = 0
        self.docs = []
        self.thread = threading.Thread(target=self._run)

    def _run(self):
        while not self.stop.is_set():
            try:
                with open(self.path) as handle:
                    doc = json.load(handle)
            except OSError:
                continue
            except ValueError:
                self.failures += 1
                continue
            self.reads += 1
            self.docs.append(doc)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join()


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_no_torn_reads_and_full_shard_coverage(tmp_path, jobs):
    st = tmp_path / "run.json"
    ledger.configure(st, "explore", interval=0.01)
    program = lock_counter_system(2).source_program()
    ctx = GlobalContext(program)
    with _Poller(st) as poller:
        graph = explore(
            ctx, PreemptiveSemantics(), reduce=False, jobs=jobs,
            max_states=100000,
        )
    assert poller.failures == 0
    assert poller.reads > 0
    assert {doc["status"] for doc in poller.docs} == {"running"}

    final = json.loads(st.read_text())["progress"]
    assert final["states"] == graph.state_count()
    if jobs > 1:
        # The coordinator's final merge accounts for every worker.
        assert final["phase"] == "merged"
        assert final["jobs"] == jobs
        wids = {row["wid"] for row in final["shards"]}
        assert wids == set(range(jobs))
        assert all(row["beats"] > 0 for row in final["shards"])
        assert sum(
            row["states"] for row in final["shards"]
        ) == graph.state_count()
        # Every worker wrote (and left) its own shard file: a bare
        # progress block.
        shard_files = glob.glob(str(st) + ".w*")
        assert len(shard_files) == jobs
        for path in shard_files:
            doc = json.loads(open(path).read())
            assert "wid" in doc
            assert "type" not in doc and "progress" not in doc


def test_workers_do_not_write_the_main_file(tmp_path):
    """Shard docs carry wids; the main file is only ever the parent's
    (its pid) — the fork-inherited writer was reset in the child."""
    st = tmp_path / "run.json"
    ledger.configure(st, "explore", interval=0.01)
    program, _m, _g, _s = minic_program([SUITE["loops"]], ["main"])
    explore(
        GlobalContext(program), PreemptiveSemantics(), reduce=False,
        jobs=2, max_states=100000,
    )
    import os

    main_doc = json.loads(st.read_text())["progress"]
    assert main_doc["pid"] == os.getpid()
    assert "wid" not in main_doc
    for path in glob.glob(str(st) + ".w*"):
        shard = json.loads(open(path).read())
        assert shard["pid"] != os.getpid()


SLOW_LOCK_CLIENT = """
extern void lock();
extern void unlock();
int x = 0;
void t1() { int i = 25; while (i > 0) { lock(); x = x + 1; unlock(); i = i - 1; } }
void t2() { int i = 25; while (i > 0) { lock(); x = x + 2; unlock(); i = i - 1; } }
"""


def _pid_alive(pid):
    import os

    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def test_sigint_exits_130_and_reaps_forked_workers(tmp_path):
    """Ctrl-C mid-parallel-exploration: the CLI exits 130 with a
    one-line message, and the coordinator's ``finally`` reaps every
    forked worker (previously the reap was skipped on the interrupt
    path and live workers leaked)."""
    import os
    import signal
    import subprocess
    import sys
    import time

    import repro

    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)
    ))
    program = tmp_path / "slow.c"
    program.write_text(SLOW_LOCK_CLIENT)
    hb = tmp_path / "run.json"
    env = dict(os.environ, PYTHONPATH=src_dir,
               REPRO_STATUS_INTERVAL="0.05")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", str(program),
         "--lock", "--threads", "t1,t2", "--jobs", "2",
         "--max-states", "2000000", "--ledger", str(hb)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    worker_pids = []
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and len(worker_pids) < 2:
            if proc.poll() is not None:
                pytest.fail(
                    "run finished before workers could be observed "
                    "(rc={})".format(proc.returncode)
                )
            worker_pids = []
            for wid in (0, 1):
                doc = ledger.load(ledger.shard_path(hb, wid))
                if doc and "pid" in doc:
                    worker_pids.append(doc["pid"])
            time.sleep(0.02)
        assert len(worker_pids) == 2, "workers never wrote shards"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)

    assert proc.returncode == 130
    assert b"repro: interrupted" in err
    # The coordinator's finally reaped both forked workers.
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and \
            any(_pid_alive(pid) for pid in worker_pids):
        time.sleep(0.05)
    assert not any(_pid_alive(pid) for pid in worker_pids)
    # The ledger finalizer still stamped the interrupt.
    final = json.loads(hb.read_text())
    assert final["progress"]["phase"] == "done"
    assert final["exit_status"] == 130


def test_fuzz_sigint_exits_130_and_keeps_a_resumable_checkpoint(
        tmp_path):
    """Ctrl-C mid-campaign at ``--jobs 2``: exit 130 with a one-line
    message, every forked worker reaped, and a checkpoint a resume can
    start from."""
    import os
    import signal
    import subprocess
    import sys
    import time

    import repro
    from repro.fuzz.corpus import Corpus

    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)
    ))
    out = tmp_path / "corpus"
    hb = tmp_path / "run.json"
    env = dict(os.environ, PYTHONPATH=src_dir,
               REPRO_STATUS_INTERVAL="0.05")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fuzz", "--out", str(out),
         "--seed", "7", "--count", "3000", "--kinds", "minic-lock",
         "--jobs", "2", "--ledger", str(hb)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    corpus = Corpus(str(out))
    worker_pids = []
    try:
        deadline = time.monotonic() + 60
        while True:
            if proc.poll() is not None:
                pytest.fail(
                    "campaign finished before it could be interrupted "
                    "(rc={})".format(proc.returncode)
                )
            assert time.monotonic() < deadline, "no progress to interrupt"
            worker_pids = []
            for wid in (0, 1):
                doc = ledger.load(ledger.shard_path(hb, wid))
                if doc and "pid" in doc:
                    worker_pids.append(doc["pid"])
            state = corpus.load_checkpoint() \
                if os.path.exists(corpus.checkpoint_path) else None
            if len(worker_pids) == 2 and state and state["done"]:
                break
            time.sleep(0.02)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)

    assert proc.returncode == 130
    assert err.decode().splitlines() == ["repro: interrupted"]
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and \
            any(_pid_alive(pid) for pid in worker_pids):
        time.sleep(0.05)
    assert not any(_pid_alive(pid) for pid in worker_pids)
    assert len(corpus.load_checkpoint()["done"]) > 0


def test_reduced_mode_parallel_also_beats(tmp_path):
    st = tmp_path / "run.json"
    ledger.configure(st, "explore", interval=0.01)
    program = lock_counter_system(2).source_program()
    with _Poller(st) as poller:
        graph = explore(
            GlobalContext(program), PreemptiveSemantics(),
            reduce=True, jobs=2, max_states=100000,
        )
    assert poller.failures == 0
    final = json.loads(st.read_text())["progress"]
    assert final["states"] == graph.state_count()
    assert {row["wid"] for row in final["shards"]} == {0, 1}
