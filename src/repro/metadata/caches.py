"""The per-partition security-metadata caches (MDC, Table VI).

Three 2 KB sectored caches — counters, MACs (block- and chunk-level
share one cache under disjoint key spaces) and BMT nodes — filter
metadata traffic before it reaches DRAM.  When the L2 victim-cache mode
is active (Section IV-D), lines evicted from an MDC are parked in the
partition's L2 and misses probe the L2 before going to DRAM.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common import constants
from repro.common.config import MDCConfig
from repro.memory.cache import Eviction, SectoredCache, stable_hash
from repro.memory.l2 import PartitionL2
from repro.obs.observer import NULL_OBSERVER
from repro.perf.hostprof import NULL_PROFILER

KIND_CTR = "ctr"
KIND_MAC = "mac"
KIND_BMT = "bmt"


class DisplacedData:
    """A dirty data line displaced from the L2 by a victim insertion;
    the owner must route it through the secure write path."""

    __slots__ = ("line_key", "dirty_sectors")

    def __init__(self, line_key: int, dirty_sectors: int) -> None:
        self.line_key = line_key
        self.dirty_sectors = dirty_sectors


#: The DRAM-transfer sink a :class:`MetadataCaches` reports to:
#: ``emit(kind, line_key, size, is_write, critical)`` places one
#: transfer and returns its completion cycle.
Emit = Callable[[str, int, int, bool, bool], float]


class MetadataCaches:
    """Counter, MAC and BMT caches of one memory partition.

    Every DRAM transfer the caches cause — a demand fetch, a dirty
    eviction, a dirty line a victim insertion pushes out of the L2, the
    teardown flush — goes to the ``emit`` sink the owner hands over at
    construction, the moment it happens.  Dirty *data* lines a victim
    insertion displaces queue on :attr:`displaced` for the owner's
    secure write path.
    """

    def __init__(self, mdc: MDCConfig, partition_id: int, emit: Emit,
                 observer=None, profiler=None) -> None:
        self.partition_id = partition_id
        self.counter = SectoredCache(mdc.counter, name=f"ctr-p{partition_id}")
        self.mac = SectoredCache(mdc.mac, name=f"mac-p{partition_id}")
        self.bmt = SectoredCache(mdc.bmt, name=f"bmt-p{partition_id}")
        self._caches = {
            KIND_CTR: self.counter,
            KIND_MAC: self.mac,
            KIND_BMT: self.bmt,
        }
        # Victim-cache plumbing (set by the partition when SHM_vL2).
        self.l2: Optional[PartitionL2] = None
        self.victim_enabled = lambda: False
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._observe = self.obs.enabled
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._profile = self.profiler.enabled
        #: Host seconds spent inside ``emit`` (profiled runs only): the
        #: ``metadata_caches`` component excludes it, since the sink
        #: times its own DRAM-scheduler work.
        self._emit_s = 0.0
        self._sink = emit
        self.emit = self._timed_emit if self._profile else emit
        #: Dirty data lines a victim insertion displaced from the L2.
        self.displaced: List[DisplacedData] = []
        #: Current access cycle, maintained by the owning MEE when
        #: observation is on (the MDC interface itself is cycle-free).
        self.now = 0.0

    def _cache_for(self, kind: str) -> SectoredCache:
        cache = self._caches.get(kind)
        if cache is None:
            raise ValueError(f"unknown metadata kind: {kind}")
        return cache

    def access(
        self,
        kind: str,
        line_key: int,
        sector: int,
        is_write: bool = False,
        fetch_on_miss: bool = True,
        sectors_on_miss: int = 1,
    ) -> bool:
        """Access one metadata sector; returns True on a hit.

        A hit is probed inline (statistics, dirty bit and LRU motion
        exactly as :meth:`SectoredCache.access`'s resident branch).  A
        miss allocates the sector through :meth:`SectoredCache.access`,
        then emits the demand fetch (unless the L2 victim store serves
        it) and the eviction's write back, in that order.  Only a
        counter *read*'s fetch blocks decryption (``critical``).
        ``sectors_on_miss`` models non-sectored metadata handling
        (Naive fetches the whole 128 B line on a miss; PSSM fetches one
        32 B sector).
        """
        profile = self._profile
        if profile:
            t0 = self.profiler.now()
            e0 = self._emit_s
        cache = self._caches.get(kind)
        if cache is None:
            raise ValueError(f"unknown metadata kind: {kind}")
        lines = cache._sets[line_key % cache.num_sets if type(line_key) is int
                            else cache.set_index(line_key)]
        line = lines.get(line_key)
        bit = 1 << sector
        if line is not None and line.valid_mask & bit:
            cache.accesses += 1
            cache.hits += 1
            if is_write:
                line.dirty_mask |= bit
            if next(reversed(lines)) is not line_key:
                del lines[line_key]
                lines[line_key] = line
            if self._observe:
                self.obs.mdc_access(self.now, self.partition_id, kind, True)
            hit = True
        else:
            hit = False
            result = cache.access(line_key, sector, is_write=is_write,
                                  fetch_on_miss=fetch_on_miss)
            if self._observe:
                self.obs.mdc_access(self.now, self.partition_id, kind, False)
            if result.needs_fetch and not (
                self.l2 is not None and self.victim_enabled()
                and self._victim_fetch(kind, line_key, sector, cache)
            ):
                size = constants.SECTOR_SIZE
                if sectors_on_miss > 1:
                    # Whole-line fill: account the additional sectors.
                    size += (sectors_on_miss - 1) * constants.SECTOR_SIZE
                    cache.fill_all_sectors(line_key)
                self.emit(kind, line_key, size, False,
                          cache is self.counter and not is_write)
            eviction = result.eviction
            if eviction is not None:
                if (self.l2 is not None and self.victim_enabled()
                        and eviction.valid_sectors):
                    self._park(kind, eviction)
                elif eviction.dirty_sectors:
                    self.emit(kind, eviction.key,
                              eviction.dirty_sectors * constants.SECTOR_SIZE,
                              True, False)
        if profile:
            self.profiler.add_component(
                "metadata_caches",
                self.profiler.now() - t0 - (self._emit_s - e0))
        return hit

    def clean(self, kind: str, line_key: int, sector: int) -> bool:
        """Drop a resident sector's dirty bit (write traffic averted)."""
        return self._cache_for(kind).clean(line_key, sector)

    def flush(self) -> float:
        """End-of-run flush of all dirty metadata (bypasses the victim
        path: at context teardown everything must reach DRAM).  Returns
        the last completion cycle (0.0 when nothing was dirty)."""
        last = 0.0
        for kind in (KIND_CTR, KIND_MAC, KIND_BMT):
            for ev in self._cache_for(kind).flush():
                if ev.dirty_sectors:
                    done = self.emit(kind, ev.key,
                                     ev.dirty_sectors * constants.SECTOR_SIZE,
                                     True, False)
                    if done > last:
                        last = done
        return last

    # -- Internals ------------------------------------------------------------

    def _victim_fetch(
        self, kind: str, line_key: int, sector: int, cache: SectoredCache
    ) -> bool:
        """Try to serve a miss from the L2 victim store."""
        bank = self.l2.bank_for(
            line_key if isinstance(line_key, int) else stable_hash(line_key)
        )
        hit = bank.victim_probe((kind, line_key), sector)
        if self._observe:
            self.obs.victim_probe(self.now, self.partition_id, hit)
        if not hit:
            return False
        evicted = bank.victim_remove((kind, line_key))
        if evicted is not None:
            # The whole parked line moves back into the MDC: its valid
            # sectors, dirty if it was dirty.
            cache.insert_line(line_key, evicted.valid_sectors,
                              dirty=evicted.dirty_sectors > 0)
        return True

    def _park(self, kind: str, eviction: Eviction) -> None:
        """Park an evicted line in the L2 victim store.  A line the
        insertion displaces from the L2 is either dirty victim metadata
        (written to DRAM) or dirty data (queued on :attr:`displaced`)."""
        key = eviction.key
        bank = self.l2.bank_for(
            key if isinstance(key, int) else stable_hash(key)
        )
        for disp in bank.victim_insert(
            (kind, key), eviction.valid_sectors, dirty=eviction.dirty_sectors > 0
        ):
            dkey = disp.key
            if isinstance(dkey, tuple) and len(dkey) == 2 and dkey[0] == "v":
                vkind, vkey = dkey[1]
                self.emit(vkind, vkey,
                          disp.dirty_sectors * constants.SECTOR_SIZE,
                          True, False)
            else:
                self.displaced.append(DisplacedData(dkey, disp.dirty_sectors))

    def _timed_emit(self, kind: str, line_key: int, size: int,
                    is_write: bool, critical: bool) -> float:
        """``emit`` on profiled runs: its host time is kept out of the
        ``metadata_caches`` component (see :meth:`access`)."""
        t0 = self.profiler.now()
        done = self._sink(kind, line_key, size, is_write, critical)
        self._emit_s += self.profiler.now() - t0
        return done
