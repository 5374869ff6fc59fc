"""The fork pool shared by the parallel explorer and the fuzz campaign.

The contracts that matter: a worker that dies without its bye is
reported within two liveness polls even while its peers keep the
coordinator queue busy; a worker wedged after a halt is terminated;
crashes and metrics both reach the coordinator; and whatever happens,
no forked process outlives the pool.
"""

import multiprocessing
import os
import time

import pytest

from repro import obs
from repro.common import pool as _pool
from repro.framework.build import lock_counter_system
from repro.semantics import (
    GlobalContext,
    PreemptiveSemantics,
    parallel_explore,
)

pytestmark = pytest.mark.skipif(
    not _pool.available(), reason="platform cannot fork workers"
)


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.reset()


def _assert_no_children(deadline=10.0):
    end = time.monotonic() + deadline
    while any(p.is_alive() for p in multiprocessing.active_children()):
        assert time.monotonic() < end, "pool left live worker processes"
        time.sleep(0.05)


def _halted(inbox):
    try:
        return inbox.get_nowait() == _pool.HALT
    except Exception:
        return False


def _dies_while_peer_sends(pool, wid):
    if wid == 0:
        time.sleep(0.3)
        pool.coord.put(("dying", 0))
        # Flush the message before dying: os._exit kills the feeder.
        pool.coord.close()
        pool.coord.join_thread()
        os._exit(7)
    inbox = pool.inboxes[wid]
    while not _halted(inbox):
        pool.coord.put(("tick", wid))
        time.sleep(0.005)
    return {}


def test_dead_worker_reported_within_two_polls():
    with _pool.Pool(2, _dies_while_peer_sends) as pool:
        dying_at = None
        ticks = 0
        for msg in pool.messages():
            if msg[0] == "tick":
                ticks += 1
            elif msg[0] == "dying":
                dying_at = time.monotonic()
            elif msg[0] == "err":
                reported_at = time.monotonic()
                break
        else:
            pytest.fail("the dead worker was never reported")
    assert dying_at is not None
    assert msg[1] == 0
    assert "died without reporting" in msg[2][1]
    assert "exit code 7" in msg[2][1]
    assert reported_at - dying_at <= 2 * _pool.POLL
    # The peer really did keep the queue busy the whole time.
    assert ticks > 10
    assert pool.byes[1] is not None
    _assert_no_children()


def _one_wedges(pool, wid):
    if wid == 0:
        return {}
    while True:  # never reads its inbox, never says bye
        time.sleep(60)


def test_watchdog_terminates_wedged_worker(monkeypatch):
    monkeypatch.setattr(_pool, "POLL", 0.2)
    monkeypatch.setattr(_pool, "HALT_GRACE", 0.5)
    t0 = time.monotonic()
    with _pool.Pool(2, _one_wedges) as pool:
        pool.halt()
        errors = [msg for msg in pool.messages() if msg[0] == "err"]
    assert time.monotonic() - t0 < 10.0
    assert len(errors) == 1
    assert errors[0][1] == 1
    assert "unresponsive" in errors[0][2][1]
    assert pool.byes[1] is None
    _assert_no_children()


def _crashes(pool, wid):
    raise ValueError("boom {}".format(wid))


def test_crash_becomes_err_and_bye_still_arrives():
    with _pool.Pool(2, _crashes) as pool:
        errors = [msg for msg in pool.messages() if msg[0] == "err"]
    assert sorted(msg[1] for msg in errors) == [0, 1]
    assert all("ValueError: boom" in msg[2][1] for msg in errors)
    assert pool.byes == {0: {}, 1: {}}
    _assert_no_children()


def _counts(pool, wid):
    obs.inc("pool.test.units", wid + 1)
    return {"wid": wid}


def test_bye_carries_the_child_metrics():
    obs.configure(metrics=True)
    with _pool.Pool(2, _counts) as pool:
        assert list(pool.messages()) == []
    for wid, stats in pool.byes.items():
        assert stats["wid"] == wid
        obs.merge_dump(stats["metrics"])
    assert obs.counter_value("pool.test.units") == 3


def test_drain_inbox_empties_and_returns():
    q = multiprocessing.get_context("fork").Queue()
    for i in range(5):
        q.put(("w", 0, i, b"x"))
    time.sleep(0.1)  # let the feeder publish
    t0 = time.monotonic()
    _pool._drain_inbox(q, time.monotonic() + 5.0)
    # Everything consumed, and the quiet-pipe return fired well before
    # the deadline backstop.
    assert time.monotonic() - t0 < 2.0
    with pytest.raises(Exception):
        q.get_nowait()
    q.cancel_join_thread()
    q.close()


def test_explorer_fails_fast_on_a_dead_worker(monkeypatch):
    from repro.semantics import parallel as par

    real_main = par._worker_main

    def dies(pool, wid, *args):
        if wid == 1:
            os._exit(9)
        return real_main(pool, wid, *args)

    monkeypatch.setattr(par, "_worker_main", dies)
    ctx = GlobalContext(lock_counter_system(3).source_program())
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="died without reporting"):
        parallel_explore(ctx, PreemptiveSemantics(), jobs=2)
    assert time.monotonic() - t0 < 2 * _pool.POLL + _pool.REAP_GRACE
    _assert_no_children()
