"""Per-run statistics and result containers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.common.types import PredictionStats, Scheme, TrafficCounters
from repro.obs.metrics import LogHistogram


@dataclass
class L2Stats:
    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class LatencyStats:
    """Completion-minus-issue accounting for demand reads.

    Backed by a streaming log histogram, so p50/p95/p99 are available
    without retaining samples.
    """

    total_cycles: float = 0.0
    count: int = 0
    max_cycles: float = 0.0
    histogram: LogHistogram = field(
        default_factory=lambda: LogHistogram("demand_read_latency")
    )

    def record(self, latency: float) -> None:
        self.total_cycles += latency
        self.count += 1
        if latency > self.max_cycles:
            self.max_cycles = latency
        self.histogram.record(latency)

    def record_batch(self, latencies) -> None:
        """Record a whole kernel batch of latencies in one pass (the
        batch loop).  Accumulation order matches per-value
        :meth:`record` calls — the float totals are bit-identical."""
        if not latencies:
            return
        total = self.total_cycles
        max_cycles = self.max_cycles
        for latency in latencies:
            total += latency
            if latency > max_cycles:
                max_cycles = latency
        self.total_cycles = total
        self.max_cycles = max_cycles
        self.count += len(latencies)
        self.histogram.record_many(latencies)

    @property
    def average(self) -> float:
        return self.total_cycles / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated p-th percentile (within one histogram bucket,
        ~19 %, of the true order statistic)."""
        return self.histogram.percentile(p)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)


@dataclass
class RunResult:
    """Everything one (workload, scheme) simulation produced."""

    workload: str
    scheme: Scheme
    cycles: float
    instructions: int
    traffic: TrafficCounters
    l2: L2Stats
    dram_utilization: float
    latency: LatencyStats = field(default_factory=LatencyStats)
    readonly_stats: PredictionStats = field(default_factory=PredictionStats)
    streaming_stats: PredictionStats = field(default_factory=PredictionStats)
    shared_counter_reads: int = 0
    common_counter_hits: int = 0
    mdc_accesses: int = 0
    victim_hits: int = 0
    victim_insertions: int = 0
    stream_verdicts: int = 0
    readonly_transitions: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def normalized_ipc(self, baseline: "RunResult") -> float:
        """IPC normalised to the unprotected baseline (Fig. 12)."""
        if self.cycles <= 0:
            return 0.0
        return baseline.cycles / self.cycles

    def overhead(self, baseline: "RunResult") -> float:
        """Performance overhead = 1 - normalised IPC."""
        return 1.0 - self.normalized_ipc(baseline)

    @property
    def bandwidth_overhead(self) -> float:
        """Metadata bytes normalised to data bytes (Fig. 14)."""
        return self.traffic.overhead_ratio()

    def traffic_breakdown(self) -> Dict[str, float]:
        """Per-kind bytes normalised to data bytes."""
        data = self.traffic.data_bytes or 1
        return {
            "ctr": self.traffic.counter_bytes / data,
            "mac": self.traffic.mac_bytes / data,
            "bmt": self.traffic.bmt_bytes / data,
            "mispred": self.traffic.misprediction_bytes / data,
        }


def geomean(values) -> float:
    """Geometric mean via a log-sum: a raw product overflows to ``inf``
    (or underflows to 0.0) on long value lists."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
