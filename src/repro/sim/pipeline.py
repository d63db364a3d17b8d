"""The memory-request pipeline (the request layer).

Every warp memory access walks the lifecycle the paper studies —
issued → L2 → metadata (MEE) → DRAM → complete — through one
:class:`MemoryPipeline` that owns the L2 partitions, the per-partition
MEEs and the DRAM channels.  :class:`~repro.sim.gpu.GPUSimulator`
shrinks to wiring (construct the components, sequence the kernels)
plus result assembly.

There is one execution path: :meth:`MemoryPipeline.run_batch` runs a
kernel's accesses in one fused loop, and the MEE places each metadata
transfer on its channel the moment a policy emits it.  Observed,
profiled, ledgered and victim-cache runs take the same path; the
observer hooks fire under a hoisted ``observe`` local.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mee import MemoryEncryptionEngine

from repro.common import constants
from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import TrafficCounters
from repro.memory.cache import Eviction
from repro.memory.dram import DRAMChannel
from repro.memory.l2 import SAMPLE_STRIDE, PartitionL2
from repro.obs.observer import NULL_OBSERVER
from repro.perf.hostprof import NULL_PROFILER, HostProfiler
from repro.sim.events import CompletionWindow
from repro.sim.stats import L2Stats, LatencyStats

#: Completion latency of an L2 hit (core <-> L2 round trip).
L2_HIT_LATENCY = 90

def _displaced_evictions(mee: "MemoryEncryptionEngine",
                         queue: Optional[deque]) -> deque:
    """Move the MEE's victim-displaced dirty data lines onto a
    write-back queue (created on first use)."""
    if queue is None:
        queue = deque()
    for disp in mee.displaced:
        queue.append(Eviction(key=disp.line_key,
                              dirty_sectors=disp.dirty_sectors,
                              valid_sectors=disp.dirty_sectors))
    mee.displaced.clear()
    return queue


class MemoryPipeline:
    """L2 → MEE → DRAM for one simulation instance.

    The pipeline owns the traffic/L2 accounting and the (optional)
    address-stream recording; the simulator owns workload sequencing
    and result assembly.
    """

    def __init__(
        self,
        config: SimConfig,
        mapper: AddressMapper,
        channels: List[DRAMChannel],
        l2: List[PartitionL2],
        mees: List["MemoryEncryptionEngine"],
        observer=None,
        record_stream: bool = False,
        profiler: Optional[HostProfiler] = None,
    ) -> None:
        self.config = config
        self.mapper = mapper
        self.channels = channels
        self.l2 = l2
        self.mees = mees
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._observe = self.obs.enabled
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._profile = self.profiler.enabled
        self.record_stream = record_stream
        self.streams: Dict[int, List[Tuple[int, bool, int]]] = {
            p: [] for p in range(config.gpu.num_partitions)
        }
        self.traffic = TrafficCounters()
        self.l2_stats = L2Stats()
        self.kernel_idx = 0
        self._hash_latency = config.gpu.hash_latency
        self._victim_mode = config.scheme.l2_victim_cache
        # Metadata transfers occupy their channel at emission time and
        # book their bytes on the pipeline's counters.
        for mee in mees:
            mee.attach_channels(channels, self.traffic)
        #: Translate/classify memo: access tuple ``(addr, is_write,
        #: nsectors)`` -> its precomputed route (see
        #: :meth:`translate_batch`).  Address mapping, bank selection
        #: and sector arithmetic are pure functions of the access and
        #: the (fixed) topology, so each distinct access is resolved
        #: once per pipeline.
        self._xlate: Dict[Tuple[int, bool, int], tuple] = {}

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, issue: float, addr: int, is_write: bool,
               nsectors: int) -> float:
        """Run one access issued at exactly cycle ``issue`` through
        :meth:`run_batch`; returns its completion cycle."""
        if issue > 0:
            # Program-order slot 1 of a gap-``issue`` window is the
            # cycle itself (``1 * issue`` is exact).
            window = CompletionWindow(1, issue)
            window.seq = 1
        else:
            window = CompletionWindow(1, 1.0)
        self.run_batch(window, [(addr, is_write, nsectors)], LatencyStats())
        return window.last_completion

    # ------------------------------------------------------------------
    # The fused batch loop
    # ------------------------------------------------------------------

    def translate_batch(self, accesses) -> list:
        """Translate + classify one kernel batch in a single pass.

        Each access tuple resolves to ``(is_write, line_addr,
        line_key, partition, local_offset, bank, cache, first, last,
        n, range_mask, sampled, lines, mshr)`` — the physical-to-local
        mapping, home L2 bank (resolved down to the bank's set dict and
        MSHR file, so the hot loop does no partition/bank/set
        indexing), the clamped sector range and its bitmask, and
        whether the line falls in a miss-rate-sampled set.  Distinct
        accesses are memoised in :attr:`_xlate`; repeated addresses
        (the common case in the suite's strided kernels) cost one dict
        probe.
        """
        memo = self._xlate
        out = []
        append = out.append
        miss = memo.get
        mapper = self.mapper
        ilv_shift = mapper._ilv_shift
        ilv_mask = mapper._ilv_mask
        ilv = mapper.interleave_bytes
        nparts = mapper.num_partitions
        l2 = self.l2
        block = constants.BLOCK_SIZE
        sector_size = constants.SECTOR_SIZE
        spb = constants.SECTORS_PER_BLOCK
        for acc in accesses:
            entry = miss(acc)
            if entry is None:
                addr, is_write, nsectors = acc
                line_addr = addr - addr % block
                line_key = line_addr // block
                # AddressMapper.to_local, inlined (skips its memo and
                # the LocalAddress wrapper — the translation memo above
                # already caches per distinct access).
                chunk = line_addr >> ilv_shift
                partition = chunk % nparts
                local_offset = ((chunk // nparts) * ilv
                                + (line_addr & ilv_mask))
                bank = l2[partition].bank_for(line_key)
                cache = bank.cache
                first = (addr % block) // sector_size
                last = first + nsectors
                if last > spb:
                    last = spb
                n = last - first
                set_idx = line_key % cache.num_sets
                entry = (is_write, line_addr, line_key, partition,
                         local_offset, bank, cache, first, last, n,
                         ((1 << n) - 1) << first if n > 0 else 0,
                         set_idx % SAMPLE_STRIDE == 0,
                         cache._sets[set_idx], bank.mshr)
                memo[acc] = entry
            append(entry)
        return out

    def run_batch(self, window: CompletionWindow, accesses,
                  latency: LatencyStats) -> None:
        """Run one kernel batch through the full lifecycle.

        Semantically this is ``for each access: window.issue() -> L2
        -> MEE -> DRAM -> latency.record -> window.complete()``, with
        the window state, the L2 fast paths and the latency
        accumulators hoisted into locals.  Under an observer the hooks
        fire per access in lifecycle order: the clamped ``stall`` span,
        ``l2_access`` (reads), the MEE's ``traffic``/``mee_op`` pairs,
        data ``traffic`` and ``read_latency``; the channels then run
        their ``service`` path, so every ``dram`` event is emitted.
        """
        if not accesses:
            return
        profile = self._profile
        prof = self.profiler
        if profile:
            t0 = prof.now()
        translated = self.translate_batch(accesses)
        if profile:
            prof.add_component("translate", prof.now() - t0)
            prof.mark("issued")
            mark = prof.mark
        # Window state (the event queue), hoisted.
        heap = window.inflight
        cap = window.max_inflight
        gap = window.gap
        seq = window.seq
        stall_cycles = window.stall_cycles
        last_stall = window.last_stall
        last_completion = window.last_completion
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Pipeline state, hoisted.
        hit_latency = L2_HIT_LATENCY
        store_alloc = self._store_alloc
        writeback = self.writeback
        mees = self.mees
        channels = self.channels
        traffic = self.traffic
        l2_stats = self.l2_stats
        streams = self.streams
        record_stream = self.record_stream
        kernel_idx = self.kernel_idx
        hash_latency = self._hash_latency
        sector_size = constants.SECTOR_SIZE
        observe = self._observe
        obs = self.obs
        # The stall clamp's horizon: the previous access's issue.
        prev_issue = window.last_issue
        latencies: List[float] = []
        record = latencies.append
        l2_stats.accesses += len(translated)
        issue = window.last_issue

        for entry in translated:
            (is_write, line_addr, line_key, partition, local_offset,
             bank, cache, first, last, n, range_mask, sampled, lines,
             mshr) = entry
            # -- issue: jump the clock to the next ready event --------
            issue = seq * gap
            seq += 1
            last_stall = 0.0
            if len(heap) >= cap:
                freed = heappop(heap)
                if freed > issue:
                    last_stall = freed - issue
                    stall_cycles += last_stall
                    issue = freed
            if observe:
                if last_stall > 0.0:
                    # Clamp to the stall's non-overlapping portion:
                    # with a near-zero issue gap every queued access
                    # nominally waits from cycle ~0, but only the
                    # advance past the previous issue is new stall.
                    start = issue - last_stall
                    if start < prev_issue:
                        start = prev_issue
                    if issue > start:
                        obs.stall(start, issue)
                prev_issue = issue
            if profile:
                mark("issued")
            # -- L2 ---------------------------------------------------
            completion = issue + hit_latency
            if is_write:
                if not cache.write_range_resident(line_key, first, last):
                    completion = store_alloc(issue, line_key, bank, first,
                                             last, completion)
                if profile:
                    mark("l2")
            else:
                line = lines.get(line_key)
                if (line is not None and range_mask
                        and line.valid_mask & range_mask == range_mask):
                    # Full hit: inlined from L2Bank.access_data_range's
                    # all-resident outcome — same stats, sampling, LRU
                    # motion and MSHR merges, no call layers.
                    if sampled:
                        bank.sampled_accesses += n
                    cache.accesses += n
                    cache.hits += n
                    if next(reversed(lines)) is not line_key:
                        del lines[line_key]
                        lines[line_key] = line
                    outstanding = mshr._outstanding
                    if outstanding:
                        merged_done = 0.0
                        lookup = mshr.lookup
                        for sector in range(first, last):
                            sector_key = (line_key, sector)
                            if sector_key in outstanding:
                                merged = lookup(sector_key, issue)
                                if (merged is not None
                                        and merged > merged_done):
                                    merged_done = merged
                        if merged_done > completion:
                            completion = merged_done
                    if observe:
                        obs.l2_access(issue, partition, False)
                    if profile:
                        mark("l2")
                else:
                    merged_done, fetch_sectors, eviction = \
                        bank.access_data_range(line_key, first, last, issue)
                    if merged_done > completion:
                        completion = merged_done
                    if observe:
                        obs.l2_access(issue, partition,
                                      fetch_sectors is not None)
                    if profile:
                        mark("l2")
                    if fetch_sectors is not None:
                        # Read miss: MEE metadata walk, demand DRAM
                        # fetch, MSHR fill burst.
                        l2_stats.misses += 1
                        ctr_done = 0.0
                        if mees:
                            mee = mees[partition]
                            ctr_done = mee.on_read_miss(
                                issue, line_addr, local_offset
                            )
                            if ctr_done:
                                # Pad generation (AES) starts when the
                                # counter arrives; decryption cannot
                                # complete before it.
                                ctr_done += hash_latency
                        if profile:
                            mark("metadata")
                            t_svc = prof.now()
                        size = len(fetch_sectors) * sector_size
                        channel = channels[partition]
                        if channel.fifo_fast:
                            # DRAMChannel.occupy, inlined (fifo_fast
                            # is off under an observer, so no dram
                            # event can be owed).
                            start = channel._next_free
                            if issue > start:
                                start = issue
                            occupancy = (channel.request_overhead
                                         + size / channel.bytes_per_cycle)
                            if channel._last_was_write:
                                occupancy += channel.turnaround
                                channel._last_was_write = False
                            next_free = start + occupancy
                            channel._next_free = next_free
                            ch_stats = channel.stats
                            ch_stats.requests += 1
                            ch_stats.busy_cycles += occupancy
                            ch_stats.read_bytes += size
                            data_done = next_free + channel.latency
                        else:
                            data_done = channel.service(
                                issue, size, address=line_addr
                            )
                        if profile:
                            prof.add_component("sched_data",
                                               prof.now() - t_svc)
                        traffic.data_bytes += size
                        if observe:
                            obs.traffic(issue, partition, "data", size,
                                        False)
                        done = (data_done if data_done >= ctr_done
                                else ctr_done)
                        mshr.allocate_burst(line_key, fetch_sectors,
                                            done, issue)
                        if completion < done:
                            completion = done
                        if record_stream:
                            streams[partition].append(
                                (local_offset, False, kernel_idx)
                            )
                        if profile:
                            mark("dram")
                        if mees and mee.displaced:
                            # Victim insertions during the metadata
                            # walk pushed dirty data out of the L2: it
                            # leaves through the secure write path,
                            # posted behind the demand fetch.
                            queue = _displaced_evictions(mee, None)
                            writeback(issue, queue.popleft(), queue)
                    if eviction is not None and eviction.dirty_sectors:
                        writeback(issue, eviction)
                record(completion - issue)
                if observe:
                    obs.read_latency(issue, completion - issue)
            # -- complete: push the completion event ------------------
            heappush(heap, completion)
            if completion > last_completion:
                last_completion = completion
            if profile:
                mark("complete")

        window.seq = seq
        window.stall_cycles = stall_cycles
        window.last_stall = last_stall
        window.last_issue = issue
        window.last_completion = last_completion
        latency.record_batch(latencies)
        if profile:
            prof.mark("complete")

    def _store_alloc(self, issue: float, line_key: int, bank, first: int,
                     last: int, completion: float) -> float:
        """The batch loop's store-allocate slow path: the line must be
        allocated.  With the victim cache off, the displaced line's
        write-back cannot touch any L2 data set, so the whole sector
        loop collapses to one bulk allocate with at most one victim;
        in victim mode the write-back can reshape this very set
        between sector accesses, so the loop stays sequential per
        sector."""
        profile = self._profile
        if profile:
            prof = self.profiler
        cache = bank.cache
        if not self._victim_mode:
            _, _, eviction = cache.access_range(
                line_key, first, last, is_write=True, fetch_on_miss=False
            )
            if eviction is not None and eviction.dirty_sectors:
                if profile:
                    prof.mark("l2")
                wb_done = self.writeback(issue, eviction)
                if wb_done > completion:
                    completion = wb_done
            return completion
        for sector in range(first, last):
            result = cache.access(
                line_key, sector, is_write=True, fetch_on_miss=False
            )
            if result.eviction is not None and result.eviction.dirty_sectors:
                if profile:
                    prof.mark("l2")
                wb_done = self.writeback(issue, result.eviction)
                completion = max(completion, wb_done)
        return completion

    # ------------------------------------------------------------------
    # Write-back path
    # ------------------------------------------------------------------

    def writeback(self, issue: float, eviction: Eviction,
                  queue: Optional[deque] = None) -> float:
        """Process dirty L2 lines reaching memory (iteratively: victim
        insertions may displace further dirty data lines, which queue
        behind ``eviction``).  Returns the completion time of the last
        data write (store backpressure).

        Self-attributing under host profiling (callers mark their own
        segment closed before calling): the data write is DRAM-stage
        time, the secure write path through the MEE is METADATA-stage
        time.
        """
        profile = self._profile
        if profile:
            prof = self.profiler
        observe = self._observe
        last_done = issue
        ev: Optional[Eviction] = eviction
        while ev is not None:
            key = ev.key
            size = ev.dirty_sectors * constants.SECTOR_SIZE
            # Victim metadata lines (non-int keys) are already
            # accounted; clean lines cause no traffic.
            if isinstance(key, int) and size > 0:
                phys = key * constants.BLOCK_SIZE
                # AddressMapper.to_local, inlined (skips its memo and
                # the LocalAddress wrapper on the per-eviction path).
                mapper = self.mapper
                nparts = mapper.num_partitions
                chunk = phys >> mapper._ilv_shift
                partition = chunk % nparts
                local_offset = ((chunk // nparts) * mapper.interleave_bytes
                                + (phys & mapper._ilv_mask))
                if profile:
                    t_svc = prof.now()
                channel = self.channels[partition]
                if channel.fifo_fast:
                    done = channel.occupy(issue, size, True)
                else:
                    done = channel.service(
                        issue, size, is_write=True, address=phys
                    )
                if profile:
                    prof.add_component("sched_data", prof.now() - t_svc)
                if done > last_done:
                    last_done = done
                self.traffic.data_bytes += size
                self.l2_stats.writebacks += 1
                if observe:
                    self.obs.traffic(issue, partition, "data", size, True)
                if self.record_stream:
                    self.streams[partition].append(
                        (local_offset, True, self.kernel_idx)
                    )
                if self.mees:
                    if profile:
                        prof.mark("dram")
                    mee = self.mees[partition]
                    mee.on_writeback(issue, phys, local_offset)
                    if mee.displaced:
                        queue = _displaced_evictions(mee, queue)
                    if profile:
                        prof.mark("metadata")
            ev = queue.popleft() if queue else None
        if profile:
            prof.mark("dram")
        return last_done

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def final_flush(self, end: float) -> float:
        """Context teardown: dirty data leaves the L2 through the
        secure write path, dirty metadata drains to DRAM, and any
        writes a scheduler was still deferring are issued.  Returns the
        completion cycle of the last teardown transfer (>= ``end``)."""
        profile = self._profile
        if profile:
            prof = self.profiler
        last = end
        for partition in range(self.config.gpu.num_partitions):
            for eviction in self.l2[partition].flush():
                if profile:
                    prof.mark("l2")
                last = max(last, self.writeback(end, eviction))
        if profile:
            prof.mark("l2")
        for mee in self.mees:
            last = max(last, mee.flush(end))
        if profile:
            prof.mark("metadata")
        for channel in self.channels:
            last = max(last, channel.drain())
        if profile:
            prof.mark("dram")
        return last
