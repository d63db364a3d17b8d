"""Metadata caches (MDC): traffic generation and the victim path,
asserted on the transfers each access passes to its ``emit`` sink."""

import pytest

from repro.common.config import GPUConfig, MDCConfig
from repro.memory.l2 import PartitionL2
from repro.metadata.caches import (
    KIND_CTR,
    KIND_MAC,
    MetadataCaches,
)
from tests.conftest import EmitLog


def make_mdc():
    return MetadataCaches(MDCConfig(), partition_id=0, emit=EmitLog())


def access(mdc, *args, **kwargs):
    """One access: (the transfers it emitted, hit)."""
    start = len(mdc.emit)
    hit = mdc.access(*args, **kwargs)
    return mdc.emit[start:], hit


@pytest.fixture
def mdc():
    return make_mdc()


class TestAccess:
    def test_miss_generates_one_sector_fetch(self, mdc):
        transfers, hit = access(mdc, KIND_CTR, 0, 0)
        assert not hit
        assert len(transfers) == 1
        assert transfers[0].kind == KIND_CTR
        assert transfers[0].size == 32
        assert not transfers[0].is_write
        assert transfers[0].critical  # a counter read blocks decryption

    def test_hit_generates_no_traffic(self, mdc):
        mdc.access(KIND_CTR, 0, 0)
        transfers, hit = access(mdc, KIND_CTR, 0, 0)
        assert hit and not transfers

    def test_unsectored_fill_fetches_whole_line(self, mdc):
        transfers, _ = access(mdc, KIND_MAC, 0, 0, sectors_on_miss=4)
        assert transfers[0].size == 128
        assert not transfers[0].critical
        # All four sectors now resident.
        for s in range(4):
            _, hit = access(mdc, KIND_MAC, 0, s)
            assert hit

    def test_write_no_fetch(self, mdc):
        transfers, hit = access(mdc, KIND_MAC, 1, 0, is_write=True,
                                fetch_on_miss=False)
        assert not hit and not transfers  # produced in place

    def test_dirty_eviction_writes_back(self, mdc):
        # Fill one set (4 ways) with dirty lines, then overflow it.
        keys = []
        k = 0
        while len(keys) < 5:
            if mdc.counter.set_index(k) == 0:
                keys.append(k)
            k += 1
        for key in keys[:4]:
            mdc.access(KIND_CTR, key, 0, is_write=True, fetch_on_miss=False)
        transfers, _ = access(mdc, KIND_CTR, keys[4], 0)
        # Demand fetch first, the displaced dirty line second.
        assert [t.is_write for t in transfers] == [False, True]
        writes = [t for t in transfers if t.is_write]
        assert len(writes) == 1
        assert writes[0].size == 32
        assert writes[0].line_key == keys[0] and not writes[0].critical

    def test_kinds_use_separate_caches(self, mdc):
        mdc.access(KIND_CTR, 0, 0)
        _, hit = access(mdc, KIND_MAC, 0, 0)
        assert not hit

    def test_unknown_kind_rejected(self, mdc):
        with pytest.raises(ValueError):
            mdc.access("bogus", 0, 0)

    def test_clean(self, mdc):
        mdc.access(KIND_MAC, 2, 1, is_write=True, fetch_on_miss=False)
        assert mdc.clean(KIND_MAC, 2, 1)
        assert not mdc.clean(KIND_MAC, 2, 1)


class TestFlush:
    def test_flush_emits_dirty_only(self, mdc):
        mdc.access(KIND_CTR, 0, 0, is_write=True, fetch_on_miss=False)
        mdc.access(KIND_MAC, 0, 0)  # clean
        start = len(mdc.emit)
        mdc.flush()
        transfers = mdc.emit[start:]
        assert len(transfers) == 1
        assert transfers[0].kind == KIND_CTR and transfers[0].is_write


class TestVictimPath:
    @pytest.fixture
    def victim_mdc(self):
        mdc = make_mdc()
        mdc.l2 = PartitionL2(GPUConfig(), 0)
        mdc.victim_enabled = lambda: True
        return mdc

    def test_eviction_parks_in_l2_or_writes_back(self, victim_mdc):
        keys = []
        k = 0
        while len(keys) < 5:
            if victim_mdc.mac.set_index(k) == 0:
                keys.append(k)
            k += 1
        for key in keys[:4]:
            victim_mdc.access(KIND_MAC, key, 0, is_write=True, fetch_on_miss=False)
        transfers, _ = access(victim_mdc, KIND_MAC, keys[4], 0)
        inserted = sum(b.victim_insertions for b in victim_mdc.l2.banks)
        wrote_back = any(t.is_write for t in transfers)
        # The dirty victim either parked in the L2 or (if its set is a
        # sampled data-only set) became a DRAM write - never dropped.
        assert inserted >= 1 or wrote_back

    @staticmethod
    def parkable_key(mdc):
        """A counter line whose victim set is not a sampled one."""
        from repro.memory.l2 import SAMPLE_STRIDE
        return next(
            k for k in range(10_000)
            if mdc.l2.bank_for(k).cache.set_index(("v", (KIND_CTR, k)))
            % SAMPLE_STRIDE != 0
        )

    def test_miss_served_from_victim(self, victim_mdc):
        key = self.parkable_key(victim_mdc)
        bank = victim_mdc.l2.bank_for(key)
        bank.victim_insert((KIND_CTR, key), valid_sectors=4, dirty=False)
        transfers, hit = access(victim_mdc, KIND_CTR, key, 0)
        assert not transfers  # no DRAM fetch: the L2 had it
        # And the line moved out of the L2.
        assert not bank.victim_probe((KIND_CTR, key), 0)

    def test_victim_hit_restores_the_whole_dirty_line(self, victim_mdc):
        key = self.parkable_key(victim_mdc)
        victim_mdc.l2.bank_for(key).victim_insert(
            (KIND_CTR, key), valid_sectors=4, dirty=True)
        transfers, hit = access(victim_mdc, KIND_CTR, key, 0)
        assert not hit and not transfers
        assert victim_mdc.counter.accesses == 1  # one access, counted once
        for sector in range(4):  # every parked sector is resident again
            assert victim_mdc.access(KIND_CTR, key, sector)
        start = len(victim_mdc.emit)
        victim_mdc.flush()
        # All four dirty sectors reach DRAM, not just the demanded one.
        assert [(t.line_key, t.size, t.is_write)
                for t in victim_mdc.emit[start:]] == [(key, 128, True)]

    def test_victim_disabled_goes_to_dram(self):
        mdc = make_mdc()
        mdc.l2 = PartitionL2(GPUConfig(), 0)
        mdc.victim_enabled = lambda: False
        transfers, _ = access(mdc, KIND_CTR, 3, 0)
        assert len(transfers) == 1

