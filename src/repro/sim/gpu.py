"""The top-level GPU simulator (the assembly layer).

Trace-driven and cycle-approximate: an SM frontend with bounded
memory-level parallelism issues a workload's access trace into the
:class:`~repro.sim.pipeline.MemoryPipeline` — partitioned L2, per-
partition MEE (which generates security-metadata traffic per the
active scheme) and a bandwidth-limited GDDR channel behind a pluggable
scheduler.  Execution time emerges from the interplay of issue rate,
queueing and decrypt-critical counter fetches — the same contention
mechanism the paper measures on GPGPU-Sim.

This module only *wires* the pipeline (construct components per
``SimConfig``, sequence kernels and host events) and assembles the
:class:`~repro.sim.stats.RunResult`; the request lifecycle itself
lives in :mod:`repro.sim.pipeline`, the scheme behaviour in
:mod:`repro.core.policies`, and the DRAM service discipline in
:mod:`repro.memory.sched`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.address import AddressMapper
from repro.common.config import SimConfig
from repro.common.types import PredictionStats
from repro.core.mee import MemoryEncryptionEngine, TruthProvider
from repro.core.victim import VictimController
from repro.memory.dram import DRAMChannel
from repro.memory.l2 import PartitionL2
from repro.memory.sched import build_scheduler
from repro.obs.decisions import NULL_LEDGER
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.perf.hostprof import NULL_PROFILER, HostProfiler
from repro.sim.events import CompletionWindow
from repro.sim.pipeline import L2_HIT_LATENCY, MemoryPipeline
from repro.sim.stats import LatencyStats, RunResult
from repro.workloads.base import HostEvent, Workload

__all__ = ["GPUSimulator", "L2_HIT_LATENCY"]


class GPUSimulator:
    """One simulation instance (one workload x scheme run)."""

    def __init__(
        self,
        config: SimConfig,
        truth: Optional[TruthProvider] = None,
        record_stream: bool = False,
        observer: Optional[Observer] = None,
        profiler: Optional[HostProfiler] = None,
        ledger=None,
    ) -> None:
        self.config = config
        self.scheme = config.scheme
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._observe = self.obs.enabled
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._profile = self.profiler.enabled
        # Decision ledger (decision-granularity provenance).
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        gpu = config.gpu
        if self.ledger.enabled:
            self.ledger.configure(
                gpu.dram_request_overhead, gpu.dram_bytes_per_cycle,
                config.scheme.detectors.blocks_per_chunk,
            )
        self.mapper = AddressMapper(gpu.num_partitions, gpu.interleave_bytes)
        self.channels = [
            DRAMChannel(gpu.dram_bytes_per_cycle, gpu.dram_latency,
                        gpu.dram_request_overhead, gpu.dram_turnaround,
                        partition=p, observer=self.obs,
                        scheduler=build_scheduler(gpu))
            for p in range(gpu.num_partitions)
        ]
        self.l2 = [PartitionL2(gpu, p, observer=self.obs)
                   for p in range(gpu.num_partitions)]

        self.mees: List[MemoryEncryptionEngine] = []
        self.victims: List[VictimController] = []
        if self.scheme.is_secure:
            from repro.metadata.counters import SharedCounter

            shared = SharedCounter()
            for p in range(gpu.num_partitions):
                mee = MemoryEncryptionEngine(p, config, self.mapper, shared,
                                             truth, observer=self.obs,
                                             profiler=profiler,
                                             ledger=self.ledger)
                if self.scheme.l2_victim_cache:
                    victim = VictimController(
                        self.l2[p], self.scheme.victim_missrate_threshold
                    )
                    mee.caches.l2 = self.l2[p]
                    mee.caches.victim_enabled = victim.enabled
                    self.victims.append(victim)
                self.mees.append(mee)

        self.pipeline = MemoryPipeline(
            config, self.mapper, self.channels, self.l2, self.mees,
            observer=self.obs, record_stream=record_stream,
            profiler=profiler,
        )
        self._latency = LatencyStats()

    @property
    def streams(self) -> Dict[int, List[Tuple[int, bool, int]]]:
        """Recorded per-partition (offset, is_write, kernel) streams."""
        return self.pipeline.streams

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(
        self,
        workload: Workload,
        gap: float = 0.001,
        max_inflight: Optional[int] = None,
    ) -> RunResult:
        """Simulate the workload.

        ``max_inflight`` is the calibrated memory-level parallelism of
        this workload (the knob the runner tunes to hit the published
        bandwidth utilisation); ``gap`` adds a per-access compute floor
        and is usually left at its near-zero default — the paper's
        suite is memory bound.

        Each kernel is one batch: host events and detector/victim
        updates happen between kernels, and within a kernel the access
        stream runs through :meth:`MemoryPipeline.run_batch`, whose
        completion window skips idle cycles by jumping to the next
        completion event.
        """
        window = CompletionWindow(
            max_inflight or self.config.gpu.max_inflight_requests, gap)
        pipeline = self.pipeline
        observe = self._observe
        profile = self._profile
        # .label, not .scheme.value: a custom registry scheme must not
        # collide with its base design's run in the exports.
        run_label = f"{workload.name}/{self.scheme.label}"
        if observe:
            self.obs.begin_run(run_label, self.config.gpu.num_partitions)
        if profile:
            prof = self.profiler
            prof.begin_run(run_label)

        if self.mees:
            for event in workload.init_copies():
                self._host_copy(event, at_init=True)
        if profile:
            # Host-side copies walk the MEE metadata state.
            prof.mark("metadata")

        latency = self._latency
        for kernel_idx, kernel in enumerate(workload.kernels):
            pipeline.kernel_idx = kernel_idx
            self._kernel_boundary(kernel_idx, kernel.host_events,
                                  window.last_issue)
            if profile:
                prof.mark("metadata")
            if observe:
                self.obs.kernel(kernel_idx, window.last_issue)
            pipeline.run_batch(window, kernel.accesses, latency)

        end = window.drain()
        if profile:
            prof.mark("issued")
        end = pipeline.final_flush(end)
        cycles = max(
            end,
            max((ch.next_free + ch.latency for ch in self.channels
                 if ch.stats.requests), default=0.0),
        )
        result = self._result(workload, cycles)
        if profile:
            prof.mark("complete")
            prof.end_run()
        if observe:
            self.obs.end_run(result)
        return result

    # ------------------------------------------------------------------
    # Kernel boundaries and host events
    # ------------------------------------------------------------------

    def _kernel_boundary(self, kernel_idx: int, events: List[HostEvent],
                         cycle: float = 0.0) -> None:
        if self.mees:
            for event in events:
                if event.kind == "copy":
                    self._host_copy(event, at_init=False, cycle=cycle)
                elif event.kind == "readonly_reset":
                    self._reset_api(event, cycle=cycle)
                else:
                    raise ValueError(f"unknown host event kind: {event.kind}")
            for mee in self.mees:
                mee.on_kernel_boundary(kernel_idx, cycle)
        for victim in self.victims:
            victim.on_kernel_boundary()

    def _host_copy(self, event: HostEvent, at_init: bool,
                   cycle: float = 0.0) -> None:
        for p, mee in enumerate(self.mees):
            lo, hi = self.mapper.local_span(event.start, event.size, p)
            if hi > lo:
                mee.on_host_copy(lo, hi, at_init=at_init, cycle=cycle)

    def _reset_api(self, event: HostEvent, cycle: float = 0.0) -> None:
        for p, mee in enumerate(self.mees):
            lo, hi = self.mapper.local_span(event.start, event.size, p)
            if hi > lo:
                mee.input_read_only_reset(lo, hi, cycle=cycle)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _result(self, workload: Workload, cycles: float) -> RunResult:
        readonly_stats = PredictionStats()
        streaming_stats = PredictionStats()
        shared_reads = 0
        common_hits = 0
        mdc_accesses = 0
        verdicts = 0
        transitions = 0
        for mee in self.mees:
            readonly_stats.merge(mee.readonly_stats)
            streaming_stats.merge(mee.streaming_stats)
            shared_reads += mee.shared_counter_reads
            common_hits += mee.common_counter_hits
            mdc_accesses += (mee.caches.counter.accesses
                             + mee.caches.mac.accesses
                             + mee.caches.bmt.accesses)
            verdicts += mee.streaming.verdicts
            transitions += mee.readonly.transitions

        victim_hits = sum(
            bank.victim_hits for part in self.l2 for bank in part.banks
        )
        victim_insertions = sum(
            bank.victim_insertions for part in self.l2 for bank in part.banks
        )
        utilization = (
            sum(ch.utilization(cycles) for ch in self.channels)
            / len(self.channels)
        )
        return RunResult(
            workload=workload.name,
            scheme=self.scheme.scheme,
            cycles=cycles,
            instructions=workload.instructions,
            traffic=self.pipeline.traffic,
            l2=self.pipeline.l2_stats,
            dram_utilization=utilization,
            latency=self._latency,
            readonly_stats=readonly_stats,
            streaming_stats=streaming_stats,
            shared_counter_reads=shared_reads,
            common_counter_hits=common_hits,
            mdc_accesses=mdc_accesses,
            victim_hits=victim_hits,
            victim_insertions=victim_insertions,
            stream_verdicts=verdicts,
            readonly_transitions=transitions,
        )
