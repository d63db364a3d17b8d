"""A sectored, set-associative, write-back cache model.

Used for the L2 data banks and for the three security-metadata caches
(counter / MAC / BMT — Table VI).  Lines are tracked at sector
granularity: a miss fills only the requested sector (PSSM's sectored
organisation), and a dirty eviction writes back only the dirty sectors.

The model is timing-free: it answers *what traffic an access causes*
(fill needed?  victim write-back bytes?); the caller attaches timing.

Host-performance notes (the fast-path invariants the bench gate
protects):

* each set is a dict ordered LRU -> MRU (dict insertion order), so a
  lookup is one hash probe instead of a way scan;
* the no-eviction access outcomes are shared singletons — the hot path
  allocates nothing on a hit or an eviction-free miss;
* :meth:`access_range` and :meth:`fill_all_sectors` are bulk forms of
  sequential per-sector access loops; they update ``accesses`` /
  ``hits`` / ``sector_fills`` / masks / LRU *exactly* as the
  equivalent loop would, so simulated results stay bit-identical.
"""

from __future__ import annotations

import zlib
from typing import Dict, Hashable, List, Optional, Tuple

from repro.common.config import CacheConfig

try:  # Python >= 3.10: one CPython instruction.
    _popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - Python 3.9 fallback
    def _popcount(value: int) -> int:
        return bin(value).count("1")


class Eviction:
    """A victim line leaving the cache.

    A ``__slots__`` class rather than a dataclass: one is allocated
    per capacity eviction, which on warmed L2 banks is nearly every
    miss."""

    __slots__ = ("key", "dirty_sectors", "valid_sectors")

    def __init__(self, key: Hashable, dirty_sectors: int,
                 valid_sectors: int) -> None:
        self.key = key
        #: Number of dirty sectors to write back.
        self.dirty_sectors = dirty_sectors
        #: Total resident sectors (victim-cache insertion).
        self.valid_sectors = valid_sectors

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Eviction):
            return NotImplemented
        return (self.key == other.key
                and self.dirty_sectors == other.dirty_sectors
                and self.valid_sectors == other.valid_sectors)

    __hash__ = None  # type: ignore[assignment]  # same as the dataclass it replaced

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Eviction(key={self.key!r}, "
                f"dirty_sectors={self.dirty_sectors}, "
                f"valid_sectors={self.valid_sectors})")


class AccessResult:
    """Outcome of one cache access (``__slots__``: allocated per
    evicting access; the eviction-free outcomes are shared)."""

    __slots__ = ("hit", "needs_fetch", "eviction")

    def __init__(self, hit: bool, needs_fetch: bool,
                 eviction: Optional[Eviction] = None) -> None:
        self.hit = hit
        #: True when the access must fetch the sector from the next
        #: level.  (False for hits and write-no-fetch allocations.)
        self.needs_fetch = needs_fetch
        self.eviction = eviction


#: Shared no-allocation outcomes for the three eviction-free cases.
#: Treat as immutable — every no-eviction access returns one of these.
_HIT = AccessResult(hit=True, needs_fetch=False)
_MISS_FETCH = AccessResult(hit=False, needs_fetch=True)
_MISS_NO_FETCH = AccessResult(hit=False, needs_fetch=False)


def stable_hash(key: Hashable) -> int:
    """Deterministic replacement for ``hash()`` on composite cache keys.

    Victim-cache lines are keyed by tuples containing strings, and
    Python salts ``str`` hashes per process (PYTHONHASHSEED): built-in
    ``hash()`` would make set indexing — and therefore every
    ``shm_vl2`` result — vary from one process to the next.  CRC32 of
    the canonical repr is stable everywhere.
    """
    return zlib.crc32(repr(key).encode())


class _Line:
    __slots__ = ("key", "valid_mask", "dirty_mask")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.valid_mask = 0
        self.dirty_mask = 0


class SectoredCache:
    """Set-associative sectored cache with per-set LRU replacement.

    Keys are arbitrary hashable block identifiers; the set index is
    derived from ``hash(key)``.  Distinct metadata kinds can therefore
    share one cache by namespacing their keys, or use separate
    instances (the paper's MDC uses separate 2 KB caches).
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.sectors_per_block = config.sectors_per_block
        self._full_mask = (1 << self.sectors_per_block) - 1
        # Each set is a dict key -> _Line ordered LRU -> MRU.
        self._sets: List[Dict[Hashable, _Line]] = [
            {} for _ in range(self.num_sets)
        ]
        # Statistics.
        self.accesses = 0
        self.hits = 0
        self.sector_fills = 0
        self.writebacks = 0

    # -- Indexing --------------------------------------------------------------

    def set_index(self, key: Hashable) -> int:
        if isinstance(key, int):
            return key % self.num_sets
        return stable_hash(key) % self.num_sets

    # -- Main access path --------------------------------------------------------

    def access(
        self,
        key: Hashable,
        sector: int,
        is_write: bool = False,
        fetch_on_miss: bool = True,
        set_filter=None,
    ) -> AccessResult:
        """Access one sector of one line.

        ``fetch_on_miss=False`` models produce-in-place writes (e.g. a
        freshly computed MAC): on a miss the sector is allocated
        valid+dirty without reading the old value from memory.

        ``set_filter`` (predicate on set index) lets the victim-cache
        controller exclude the sampled data-only sets from metadata
        insertion.
        """
        if not 0 <= sector < self.sectors_per_block:
            raise ValueError(f"sector {sector} out of range for {self.name}")
        self.accesses += 1
        sector_bit = 1 << sector
        if type(key) is int:
            set_idx = key % self.num_sets
        else:
            set_idx = self.set_index(key)
        lines = self._sets[set_idx]

        line = lines.get(key)
        if line is not None and line.valid_mask & sector_bit:
            self.hits += 1
            if is_write:
                line.dirty_mask |= sector_bit
            if next(reversed(lines)) is not key:
                del lines[key]
                lines[key] = line
            return _HIT

        eviction = None
        if line is None:
            if set_filter is not None and not set_filter(set_idx):
                # Insertion suppressed (e.g. data-only sampled set):
                # treat as an uncached pass-through access.
                return _MISS_FETCH if fetch_on_miss else _MISS_NO_FETCH
            line, eviction = self._allocate(lines, key)
        if fetch_on_miss:
            self.sector_fills += 1
        line.valid_mask |= sector_bit
        if is_write:
            line.dirty_mask |= sector_bit
        if next(reversed(lines)) is not key:
            del lines[key]
            lines[key] = line
        if eviction is None:
            return _MISS_FETCH if fetch_on_miss else _MISS_NO_FETCH
        return AccessResult(hit=False, needs_fetch=fetch_on_miss,
                            eviction=eviction)

    def access_range(
        self,
        key: Hashable,
        first: int,
        last: int,
        is_write: bool = False,
        fetch_on_miss: bool = True,
    ) -> Tuple[int, int, Optional[Eviction]]:
        """Access sectors ``[first, last)`` of one line in bulk.

        Equivalent — in statistics, masks, LRU order and eviction
        choice — to calling :meth:`access` once per sector in
        ascending order, provided nothing else touches the cache
        between those calls (the pipeline's per-request sector loops).

        Returns ``(hit_mask, fetch_mask, eviction)``: which of the
        requested sectors were resident, which must be fetched from
        the next level, and the (at most one) victim displaced by
        allocating the line.
        """
        n = last - first
        if n <= 0:
            return 0, 0, None
        if not (0 <= first and last <= self.sectors_per_block):
            raise ValueError(
                f"sectors [{first}, {last}) out of range for {self.name}"
            )
        range_mask = ((1 << n) - 1) << first
        self.accesses += n
        if type(key) is int:
            set_idx = key % self.num_sets
        else:
            set_idx = self.set_index(key)
        lines = self._sets[set_idx]

        line = lines.get(key)
        eviction = None
        if line is None:
            hit_mask = 0
            line, eviction = self._allocate(lines, key)
        else:
            hit_mask = line.valid_mask & range_mask
            self.hits += _popcount(hit_mask)
        fetch_mask = 0
        if fetch_on_miss:
            fetch_mask = range_mask & ~hit_mask
            self.sector_fills += _popcount(fetch_mask)
        line.valid_mask |= range_mask
        if is_write:
            line.dirty_mask |= range_mask
        if next(reversed(lines)) is not key:
            del lines[key]
            lines[key] = line
        return hit_mask, fetch_mask, eviction

    def write_range_resident(self, key: Hashable, first: int,
                             last: int) -> bool:
        """Bulk store to a line *if it is resident*: one set probe
        decides residency and performs the write.

        Equivalent to ``access_range(key, first, last, is_write=True,
        fetch_on_miss=False)`` when the line is allocated — same
        statistics, masks and LRU motion; returns False (cache
        untouched) when it is not, in which case the caller must run
        the allocating per-sector store path.  Sectors must lie in
        ``[0, sectors_per_block]`` (the pipeline's translate step
        already clamps them).
        """
        n = last - first
        if n <= 0:
            return True
        lines = self._sets[key % self.num_sets if type(key) is int
                           else self.set_index(key)]
        line = lines.get(key)
        if line is None:
            return False
        range_mask = ((1 << n) - 1) << first
        self.accesses += n
        self.hits += _popcount(line.valid_mask & range_mask)
        line.valid_mask |= range_mask
        line.dirty_mask |= range_mask
        if next(reversed(lines)) is not key:
            del lines[key]
            lines[key] = line
        return True

    def fill_all_sectors(self, key: Hashable) -> None:
        """Mark every sector of a *resident* line valid, in bulk.

        Equivalent to accessing each sector once with
        ``fetch_on_miss=True`` (the non-sectored whole-line fill of
        :class:`~repro.metadata.caches.MetadataCaches`): already-valid
        sectors count as hits, the rest as sector fills.  The line must
        be resident (the demand miss just allocated it), so no
        eviction can occur.
        """
        n = self.sectors_per_block
        lines = self._sets[key % self.num_sets if type(key) is int
                           else self.set_index(key)]
        line = lines[key]
        present = _popcount(line.valid_mask & self._full_mask)
        self.accesses += n
        self.hits += present
        self.sector_fills += n - present
        line.valid_mask |= self._full_mask
        if next(reversed(lines)) is not key:
            del lines[key]
            lines[key] = line

    def clean(self, key: Hashable, sector: int) -> bool:
        """Clear a sector's dirty bit without writing it back (the
        dual-granularity design re-marks a streaming chunk's block MACs
        'not dirty' once the chunk MAC covers them).  Returns True when
        a dirty resident sector was cleaned."""
        line = self._sets[self.set_index(key)].get(key)
        if line is None:
            return False
        bit = 1 << sector
        if line.dirty_mask & bit:
            line.dirty_mask &= ~bit
            return True
        return False

    def probe(self, key: Hashable, sector: int) -> bool:
        """Non-allocating, non-LRU-updating lookup (victim-cache probe)."""
        line = self._sets[self.set_index(key)].get(key)
        return line is not None and bool(line.valid_mask & (1 << sector))

    def invalidate(self, key: Hashable) -> Optional[Eviction]:
        """Remove a line, returning its write-back obligation if dirty."""
        lines = self._sets[self.set_index(key)]
        line = lines.pop(key, None)
        if line is None:
            return None
        dirty = _popcount(line.dirty_mask)
        valid = _popcount(line.valid_mask)
        if dirty:
            self.writebacks += dirty
        return Eviction(key=line.key, dirty_sectors=dirty, valid_sectors=valid)

    def insert_line(
        self,
        key: Hashable,
        valid_sectors: int,
        dirty: bool = False,
        set_filter=None,
    ) -> Optional[Eviction]:
        """Insert a whole line (victim-cache fill path).

        ``valid_sectors`` counts resident sectors; they are populated
        from sector 0 upward, which is sufficient for the byte-
        accounting this model performs.
        """
        valid_sectors = min(valid_sectors, self.sectors_per_block)
        set_idx = self.set_index(key)
        if set_filter is not None and not set_filter(set_idx):
            return None
        lines = self._sets[set_idx]
        line = lines.get(key)
        eviction = None
        if line is None:
            line, eviction = self._allocate(lines, key)
        mask = (1 << valid_sectors) - 1
        line.valid_mask |= mask
        if dirty:
            line.dirty_mask |= mask
        if next(reversed(lines)) is not key:
            del lines[key]
            lines[key] = line
        return eviction

    def flush(self) -> List[Eviction]:
        """Evict everything, returning the dirty write-back obligations."""
        evictions = []
        for lines in self._sets:
            for line in lines.values():
                dirty = _popcount(line.dirty_mask)
                if dirty:
                    self.writebacks += dirty
                    evictions.append(
                        Eviction(
                            key=line.key,
                            dirty_sectors=dirty,
                            valid_sectors=_popcount(line.valid_mask),
                        )
                    )
            lines.clear()
        return evictions

    # -- Introspection ----------------------------------------------------------

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.hits / self.accesses

    def resident_lines(self) -> int:
        return sum(len(lines) for lines in self._sets)

    def reset_stats(self) -> None:
        self.accesses = self.hits = self.sector_fills = self.writebacks = 0

    # -- Internals ----------------------------------------------------------------

    def _allocate(
        self, lines: Dict[Hashable, _Line], key: Hashable
    ) -> Tuple[_Line, Optional[Eviction]]:
        eviction = None
        if len(lines) >= self.ways:
            victim_key = next(iter(lines))  # LRU = oldest insertion
            victim = lines.pop(victim_key)
            dirty = _popcount(victim.dirty_mask)
            valid = _popcount(victim.valid_mask)
            if dirty:
                self.writebacks += dirty
            eviction = Eviction(key=victim.key, dirty_sectors=dirty,
                                valid_sectors=valid)
        line = _Line(key)
        lines[key] = line
        return line, eviction
