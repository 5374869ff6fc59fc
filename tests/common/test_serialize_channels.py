"""The stateful channel transport (PR 7).

A directed channel owns a persistent pickle memo, a memory base cache,
packed-world component tables and an epoch counter; these tests pin the
wire format's contracts: delta/full equivalence (decoded states equal
the originals, hashes recomputed locally), base-miss fallback across a
reset, the epoch protocol (implicit forward reset, loud stale
rejection), packed-record sync errors, schema-v2 rejection of v1
batches, and the pre-shared static segment.
"""

import pickle

import pytest

from repro.common import serialize
from repro.common.memory import Memory
from repro.common.serialize import (
    ChannelDecoder,
    ChannelEncoder,
    SerializationError,
    clear_static_table,
    collect_static_objects,
    decode_batch,
    install_static_table,
)
from repro.framework.build import lock_counter_system
from repro.semantics import GlobalContext, PreemptiveSemantics, explore


@pytest.fixture(scope="module")
def graph():
    ctx = GlobalContext(lock_counter_system(2).source_program())
    return explore(ctx, PreemptiveSemantics(), 4000)


@pytest.fixture(scope="module")
def worlds(graph):
    return list(graph.states)


def _channel():
    return ChannelEncoder(), ChannelDecoder()


# ----- delta/full equivalence ----------------------------------------------


def test_channel_roundtrip_equals_originals(worlds):
    enc, dec = _channel()
    for start in range(0, len(worlds), 64):
        batch = worlds[start:start + 64]
        epoch, data = enc.encode(batch)
        back = dec.decode(epoch, data)
        assert back == batch
        assert [hash(w) for w in back] == [hash(w) for w in batch]


def test_memory_delta_roundtrip_recomputes_hashes():
    base = Memory({1: 10, 2: 20})
    stored = base.store(1, 11)
    written_back = stored.store(1, 10)  # overlay entry equal to base
    assert written_back == base
    enc, dec = _channel()
    epoch, data = enc.encode([base, stored, written_back])
    b, s, w = dec.decode(epoch, data)
    assert (b, s, w) == (base, stored, written_back)
    assert hash(b) == hash(base)
    assert hash(s) == hash(stored)
    assert hash(w) == hash(base)
    assert enc.base_registrations == 1
    assert enc.full_sends == 1
    assert enc.delta_hits == 2


def test_persistent_memo_shrinks_repeats(worlds):
    enc, dec = _channel()
    batch = worlds[:20]
    _, first = enc.encode(batch)
    epoch, second = enc.encode(batch)
    assert len(second) < len(first) / 3
    # Both messages decode in order on the paired decoder.
    assert dec.decode(0, first) == batch
    assert dec.decode(epoch, second) == batch


# ----- packed world records -------------------------------------------------


def test_packed_worlds_roundtrip(worlds):
    enc, dec = _channel()
    sizes = []
    for start in range(0, len(worlds), 32):
        batch = worlds[start:start + 32]
        epoch, data = enc.encode_worlds(batch)
        back = dec.decode(epoch, data)
        assert back == batch
        assert [hash(w) for w in back] == [hash(w) for w in batch]
        sizes.append(len(data) / len(batch))
    # Steady state: worlds whose components all sit in the channel
    # tables cost a few varints each, far below the opening batch.
    assert len(sizes) > 4
    assert min(sizes[1:]) < sizes[0] / 3


def test_packed_worlds_reference_beyond_table_rejected():
    dec = ChannelDecoder()
    # 1 world, threads index 5 against empty channel tables.
    with pytest.raises(SerializationError, match="out of sync"):
        dec._expand_worlds([], bytes([1, 5, 0, 0, 0]))


def test_packed_worlds_exhausted_novel_rejected():
    dec = ChannelDecoder()
    # Index == table size claims a novel component, but none rode along.
    with pytest.raises(SerializationError, match="novel"):
        dec._expand_worlds([], bytes([1, 0, 0, 0, 0]))


def test_packed_worlds_truncated_record_rejected():
    dec = ChannelDecoder()
    with pytest.raises(SerializationError, match="truncated"):
        dec._expand_worlds([], bytes([1]))


def test_varint_roundtrip():
    for n in (0, 1, 127, 128, 300, 1 << 20, (1 << 40) + 12345):
        out = bytearray()
        serialize._pack_uint(out, n)
        value, pos = serialize._read_uint(bytes(out), 0)
        assert (value, pos) == (n, len(out))


# ----- the epoch protocol ---------------------------------------------------


def test_base_miss_after_reset_falls_back_to_full_send():
    m = Memory({1: 10}).store(1, 11)
    enc, dec = _channel()
    e1, d1 = enc.encode([m])
    assert dec.decode(e1, d1) == [m]
    assert enc.base_registrations == 1
    enc.reset()
    # The base cache is gone: the same memory re-registers its base.
    e2, d2 = enc.encode([m])
    assert enc.base_registrations == 2
    assert e2 == e1 + 1
    assert dec.decode(e2, d2) == [m]  # implicit forward reset
    assert dec.resets == 1


def test_stale_epoch_rejected_loudly(worlds):
    enc, dec = _channel()
    e1, d1 = enc.encode(worlds[:2])
    enc.reset()
    e2, d2 = enc.encode(worlds[:2])
    assert dec.decode(e2, d2) == worlds[:2]
    with pytest.raises(SerializationError, match="stale channel epoch"):
        dec.decode(e1, d1)


def test_unknown_base_token_rejected():
    dec = ChannelDecoder()
    with pytest.raises(SerializationError, match="unknown base"):
        dec.apply_delta(7, ((1, 2),))


def test_encode_failure_poisons_the_epoch(worlds):
    enc, dec = _channel()
    e1, d1 = enc.encode(worlds[:2])
    with pytest.raises(SerializationError, match="encode"):
        enc.encode(lambda: None)
    # The half-written memo died with the old epoch; the next message
    # opens a new one and decodes cleanly after the implicit reset.
    e2, d2 = enc.encode(worlds[:2])
    assert e2 == e1 + 1
    assert dec.decode(e1, d1) == worlds[:2]
    assert dec.decode(e2, d2) == worlds[:2]


def test_over_budget_triggers_on_tiny_limits(worlds, monkeypatch):
    enc = ChannelEncoder()
    assert not enc.over_budget()
    monkeypatch.setattr(serialize, "CHANNEL_BYTES_LIMIT", 64)
    enc.encode(worlds[:4])
    assert enc.over_budget()
    enc.reset()
    assert not enc.over_budget()


# ----- versioning -----------------------------------------------------------


def test_v1_batches_rejected():
    data = pickle.dumps(
        (1, serialize._SEED_PROBE, ["payload"]),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    with pytest.raises(SerializationError, match="schema version"):
        decode_batch(data)


# ----- the static segment ---------------------------------------------------


def test_collect_static_objects_covers_initial_state(worlds):
    ctx = GlobalContext(lock_counter_system(2).source_program())
    initial = ctx.load()
    objs = collect_static_objects(ctx, initial)
    assert any(obj is initial[0] for obj in objs)
    assert any(obj is initial[0].mem for obj in objs)
    frame = initial[0].threads[0][0]
    assert any(obj is frame for obj in objs)
    assert len({id(obj) for obj in objs}) == len(objs)


def test_static_members_cross_as_table_indexes(worlds):
    w = worlds[0]
    try:
        install_static_table([w])
        enc, dec = _channel()
        epoch, data = enc.encode([w])
        # Proof the wire carried an index, not the world: resolving
        # without the table fails loudly ...
        clear_static_table()
        with pytest.raises(SerializationError, match="static segment"):
            ChannelDecoder().decode(epoch, data)
        # ... and with it, the receiver's own table member comes back.
        install_static_table([w])
        assert dec.decode(epoch, data)[0] is w
    finally:
        clear_static_table()


def test_static_ref_out_of_range():
    clear_static_table()
    with pytest.raises(SerializationError, match="static segment"):
        serialize._static_ref(3)
