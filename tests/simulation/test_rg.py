"""Unit tests for µ, FPmatch and the rely/guarantee conditions (Fig. 8)."""

from repro.common.footprint import EMP, Footprint
from repro.common.memory import Memory
from repro.common.values import VInt, VPtr
from repro.simulation.rg import (
    RELY_BUDGET,
    Mu,
    RelyBudget,
    fp_match,
    hg,
    inv,
    lg,
    rely,
    rely_moves,
    rely_one,
    rely_one_moves,
    segment_cells,
)

SHARED = {10, 11, 12}


def identity_mu():
    return Mu.identity(SHARED)


class TestMu:
    def test_identity_well_formed(self):
        assert identity_mu().well_formed()

    def test_shifted_mapping(self):
        mu = Mu({1, 2}, {101, 102}, {1: 101, 2: 102})
        assert mu.well_formed()
        assert mu.map_addr(1) == 101
        assert mu.map_region({1, 2}) == {101, 102}

    def test_non_injective_rejected(self):
        mu = Mu({1, 2}, {101}, {1: 101, 2: 101})
        assert not mu.well_formed()

    def test_partial_domain_rejected(self):
        mu = Mu({1, 2}, {101}, {1: 101})
        assert not mu.well_formed()

    def test_map_value(self):
        mu = Mu({1}, {101}, {1: 101})
        assert mu.map_value(VPtr(1)) == VPtr(101)
        assert mu.map_value(VInt(5)) == VInt(5)
        assert mu.map_value(VPtr(99)) is None


class TestFPmatch:
    def test_equal_footprints_match(self):
        mu = identity_mu()
        fp = Footprint({10}, {11})
        assert fp_match(mu, fp, fp)

    def test_smaller_target_matches(self):
        mu = identity_mu()
        assert fp_match(mu, Footprint({10, 11}, {12}), EMP)
        assert fp_match(
            mu, Footprint({10, 11}, {12}), Footprint({10}, ())
        )

    def test_extra_target_read_rejected(self):
        mu = identity_mu()
        assert not fp_match(
            mu, Footprint({10}, ()), Footprint({11}, ())
        )

    def test_write_weakened_to_read_allowed(self):
        # δ.rs may come from Δ.ws.
        mu = identity_mu()
        assert fp_match(
            mu, Footprint((), {10}), Footprint({10}, ())
        )

    def test_read_strengthened_to_write_rejected(self):
        mu = identity_mu()
        assert not fp_match(
            mu, Footprint({10}, ()), Footprint((), {10})
        )

    def test_local_addresses_unconstrained(self):
        # Footprints outside the shared region are invisible to µ.
        mu = identity_mu()
        local = 1 << 21
        assert fp_match(
            mu, EMP, Footprint({local}, {local})
        )

    def test_mapping_applied(self):
        mu = Mu({1}, {101}, {1: 101})
        assert fp_match(
            mu, Footprint((), {1}), Footprint((), {101})
        )
        # A target write at a shared address with no mapped source
        # counterpart must be rejected.
        assert not fp_match(
            mu, EMP, Footprint((), {101})
        )


class TestInv:
    def test_related_contents(self):
        mu = Mu({1}, {101}, {1: 101})
        src = Memory({1: VInt(5)})
        tgt = Memory({101: VInt(5)})
        assert inv(mu, src, tgt)

    def test_differing_contents_rejected(self):
        mu = Mu({1}, {101}, {1: 101})
        assert not inv(
            mu, Memory({1: VInt(5)}), Memory({101: VInt(6)})
        )

    def test_pointer_contents_mapped(self):
        mu = Mu({1, 2}, {101, 102}, {1: 101, 2: 102})
        src = Memory({1: VPtr(2), 2: VInt(0)})
        tgt = Memory({101: VPtr(102), 102: VInt(0)})
        assert inv(mu, src, tgt)
        tgt_bad = Memory({101: VPtr(101), 102: VInt(0)})
        assert not inv(mu, src, tgt_bad)

    def test_missing_target_address(self):
        mu = Mu({1}, {101}, {1: 101})
        assert not inv(mu, Memory({1: VInt(0)}), Memory())


class TestGuarantees:
    def test_hg_in_scope(self):
        mem = Memory({10: VInt(0), 11: VInt(0), 12: VInt(0)})
        assert hg(Footprint({10}, {11}), mem, frozenset(), SHARED)

    def test_hg_out_of_scope(self):
        mem = Memory({10: VInt(0)})
        assert not hg(Footprint({99}, ()), mem, frozenset(), SHARED)

    def test_hg_closedness(self):
        leaky = Memory(
            {10: VPtr(1 << 21), 11: VInt(0), 12: VInt(0)}
        )
        assert not hg(EMP, leaky, frozenset(), SHARED)

    def test_lg_bundles_all_conditions(self):
        mu = identity_mu()
        mem = Memory({10: VInt(0), 11: VInt(0), 12: VInt(0)})
        assert lg(mu, Footprint({10}, ()), mem, frozenset(),
                  Footprint({10}, ()), mem)
        # FPmatch failure propagates.
        assert not lg(mu, Footprint({11}, ()), mem, frozenset(),
                      Footprint({10}, ()), mem)


class TestRely:
    def test_local_memory_untouched(self):
        fl = frozenset({1000})
        a = Memory({10: VInt(0), 1000: VInt(5)})
        good = a.store(10, VInt(9))
        bad = a.store(1000, VInt(9))
        assert rely_one(a, good, fl, SHARED)
        assert not rely_one(a, bad, fl, SHARED)

    def test_closedness_required(self):
        a = Memory({10: VInt(0), 11: VInt(0), 12: VInt(0)})
        leaked = a.store(10, VPtr(1 << 21))
        assert not rely_one(a, leaked, frozenset(), SHARED)

    def test_forward_required(self):
        a = Memory({10: VInt(0), 11: VInt(0), 12: VInt(0)})
        shrunk = Memory({11: VInt(0), 12: VInt(0)})
        assert not rely_one(a, shrunk, frozenset(), {11, 12})

    def test_two_sided_rely(self):
        mu = Mu({1}, {101}, {1: 101})
        src = Memory({1: VInt(0)})
        tgt = Memory({101: VInt(0)})
        src2 = src.store(1, VInt(7))
        tgt2 = tgt.store(101, VInt(7))
        assert rely(mu, src, src2, frozenset(), tgt, tgt2, frozenset())
        tgt_bad = tgt.store(101, VInt(8))
        assert not rely(
            mu, src, src2, frozenset(), tgt, tgt_bad, frozenset()
        )


class TestRelyMoves:
    """The checkers' one generator of environment moves."""

    MU = Mu({1, 2, 3, 4}, {101, 102, 103, 104},
            {1: 101, 2: 102, 3: 103, 4: 104})
    FL = frozenset({1000})
    SRC = Memory({1: VInt(0), 2: VInt(5), 3: VPtr(1), 4: VInt(9),
                  1000: VInt(1)})
    TGT = Memory({101: VInt(0), 102: VInt(5), 103: VPtr(101),
                  104: VInt(9), 1000: VInt(1)})

    def test_every_move_satisfies_rely(self):
        assert inv(self.MU, self.SRC, self.TGT)
        moves = list(rely_moves(self.MU, self.SRC, self.TGT,
                                {1, 2, 3, 4, 1000}))
        assert len(moves) == 3
        for src2, tgt2 in moves:
            assert rely(self.MU, self.SRC, src2, self.FL, self.TGT, tgt2,
                        self.FL)

    def test_one_move_per_shared_int_cell_in_footprint(self):
        # 3 holds a pointer and 1000 is not shared: neither is moved;
        # 4 is outside the cells asked for.
        moves = list(rely_moves(self.MU, self.SRC, self.TGT,
                                {3, 2, 1, 1000}))
        changed = [
            [a for a in (1, 2, 3, 4) if src2.load(a) != self.SRC.load(a)]
            for src2, _tgt2 in moves
        ]
        assert changed == [[1], [2]]

    def test_no_cells_no_moves(self):
        assert list(rely_moves(self.MU, self.SRC, self.TGT, ())) == []

    def test_one_sided_moves_satisfy_rely_one(self):
        shared = self.MU.src_shared
        moves = list(rely_one_moves(self.SRC, shared, {1, 2, 3, 4}))
        assert [addr for addr, _ in moves] == [1, 2, 4]
        assert [m.load(4) for _, m in moves] == [VInt(9), VInt(9), VInt(12)]
        for _addr, src2 in moves:
            assert rely_one(self.SRC, src2, self.FL, shared)

    def test_aborted_segment_moves_every_shared_cell(self):
        fp = Footprint({1}, {2})
        shared = self.MU.src_shared
        assert segment_cells(fp, False, shared) == {1, 2}
        assert segment_cells(fp, True, shared) == shared


class TestRelyBudget:
    class Counts:
        rely_moves = 0
        rely_budget_exhausted = 0

    def test_moves_spent_then_exhaustion_counted_once(self):
        counts = self.Counts()
        budget = RelyBudget(counts)
        assert len(list(budget.take(range(RELY_BUDGET - 1)))) == \
            RELY_BUDGET - 1
        assert list(budget.take(range(3))) == [0]
        assert not budget.spend()
        assert list(budget.take(range(3))) == []
        assert counts.rely_moves == RELY_BUDGET
        assert counts.rely_budget_exhausted == 2
