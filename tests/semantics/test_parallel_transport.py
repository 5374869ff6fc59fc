"""Forked-run contracts of the PR 7 channel transport.

The unit surface is covered in ``tests/common/test_serialize_channels``;
these tests drive real forked explorations and assert what only a whole
run shows: delta metrics flow through the cross-process merge, a
channel over budget resets mid-run without corrupting the merged graph,
the wire cost per shipped world stays under a fixed bound, and a pool
worker whose trace file is unwritable stays metered.
"""

import pytest

from repro import obs
from repro.common import serialize
from repro.common.pool import _configure_worker_obs
from repro.framework.build import lock_counter_system
from repro.semantics import (
    GlobalContext,
    PreemptiveSemantics,
    explore,
    parallel_explore,
)
from repro.semantics.parallel import available

pytestmark = pytest.mark.skipif(
    not available(), reason="platform cannot fork workers"
)


@pytest.fixture(autouse=True)
def _reset_obs():
    obs.reset()
    yield
    obs.reset()


def _ctx(nthreads=2):
    return GlobalContext(lock_counter_system(nthreads).source_program())


def _sequential():
    return explore(_ctx(), PreemptiveSemantics(), 4000000)


def test_delta_metrics_flow_through_the_merge():
    obs.configure(metrics=True)
    graph = parallel_explore(_ctx(), PreemptiveSemantics(), jobs=2)
    snap = obs.snapshot()
    counters = snap["counters"]
    assert counters["parallel.wire.delta_hits"] > 0
    assert counters["parallel.wire.base_registrations"] > 0
    assert (
        counters["parallel.wire.full_sends"]
        >= counters["parallel.wire.base_registrations"]
    )
    seq = _sequential()
    assert list(graph.states) == list(seq.states)
    assert graph.edges == seq.edges


def test_channel_resets_preserve_the_graph(monkeypatch):
    # A tiny byte budget forces epoch resets mid-run; workers fork
    # after the patch, so every channel inherits it.
    monkeypatch.setattr(serialize, "CHANNEL_BYTES_LIMIT", 8 << 10)
    obs.configure(metrics=True)
    graph = parallel_explore(_ctx(), PreemptiveSemantics(), jobs=2)
    snap = obs.snapshot()
    assert snap["counters"]["parallel.wire.channel_resets"] > 0
    seq = _sequential()
    assert list(graph.states) == list(seq.states)
    assert graph.edges == seq.edges


def test_packed_worlds_stay_under_the_byte_bound():
    # Cross-shard wire bytes per shipped world on the 2-thread lock
    # counter: the channel format measures 46-49 under PYTHONHASHSEED
    # 0, 1 and 12345 (the stateless format it replaced measured
    # 172-189), so 85 leaves headroom for hash-seed variation while
    # still failing if the packed records or delta encoding regress.
    obs.configure(metrics=True)
    parallel_explore(_ctx(), PreemptiveSemantics(), jobs=2)
    counters = obs.snapshot()["counters"]
    per_world = (
        counters["parallel.wire.bytes_out"]
        / counters["parallel.cross_edges"]
    )
    assert per_world <= 85


def test_unwritable_worker_trace_keeps_metrics(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("plain file")
    cfg = {
        "metrics": True,
        "trace_path": str(blocker / "trace.jsonl"),
    }
    _configure_worker_obs(3, cfg)
    try:
        assert not obs.trace_enabled()
        obs.inc("still.metered")
        snap = obs.snapshot()
        assert snap["counters"]["still.metered"] == 1
        assert snap["counters"]["warnings"] == 1
    finally:
        obs.reset()
