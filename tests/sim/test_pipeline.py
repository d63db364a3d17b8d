"""The request pipeline (repro.sim.pipeline): lifecycle, observer
hook order, traffic-kind dispatch and the teardown-flush completion
fix.  Transfers are asserted as the DRAM transactions the channels
received (see ``tests.conftest.RecordingScheduler``)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common import constants
from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.sim.gpu import GPUSimulator
from repro.sim.pipeline import L2_HIT_LATENCY
from tests.conftest import (
    build_tiny_random,
    build_tiny_streaming,
    record_channels,
)


def _sim(scheme=Scheme.SHM, **gpu_overrides) -> GPUSimulator:
    config = SimConfig().with_scheme(scheme)
    if gpu_overrides:
        config = replace(config, gpu=replace(config.gpu, **gpu_overrides))
    return GPUSimulator(config)


# ---------------------------------------------------------------------------
# Request lifecycle
# ---------------------------------------------------------------------------

def test_read_request_walks_lifecycle():
    sim = _sim()
    log = record_channels(sim.channels)
    completion = sim.pipeline.access(0.0, 4096, False, 4)
    assert sim.pipeline.l2_stats.misses == 1
    # The MEE's metadata walk goes out first, then the demand fetch of
    # the whole line from its home partition.
    partition = sim.mapper.to_local(4096).partition
    assert log[-1] == (partition, 4 * constants.SECTOR_SIZE, False, "data",
                       False, 4096)
    assert {t.kind for t in log[:-1]} <= {"ctr", "mac", "bmt"}
    # A decrypt-critical counter fetch gates the miss under SHM.
    critical = [t for t in log if t.critical]
    assert critical and all(t.kind == "ctr" and not t.is_write
                            for t in critical)
    assert completion >= L2_HIT_LATENCY


def test_l2_hit_completes_at_hit_latency():
    sim = _sim()
    log = record_channels(sim.channels)
    sim.pipeline.access(0.0, 4096, False, 4)
    transfers = len(log)
    assert sim.pipeline.access(1000.0, 4096, False, 4) \
        == 1000.0 + L2_HIT_LATENCY
    assert len(log) == transfers
    assert sim.pipeline.l2_stats.misses == 1


def test_write_requests_are_posted():
    sim = _sim()
    assert sim.pipeline.access(5.0, 4096, True, 4) == 5.0 + L2_HIT_LATENCY


class _RecordingObserver:
    """Logs every observer hook by name (an enabled observer)."""

    enabled = True

    def __init__(self) -> None:
        self.events = []

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return lambda *args, **kwargs: self.events.append((name, args))


def test_observer_sees_lifecycle_in_order():
    obs = _RecordingObserver()
    sim = GPUSimulator(SimConfig().with_scheme(Scheme.SHM), observer=obs)
    sim.pipeline.access(0.0, 4096, False, 4)
    names = [name for name, _ in obs.events]
    assert names[0] == "l2_access" and obs.events[0][1][2] is True
    assert names[-1] == "read_latency"
    # Each MEE transfer reports traffic then its span, after its
    # channel booked the bus; the demand fetch follows the MEE walk.
    meta = [i for i, n in enumerate(names) if n == "mee_op"]
    data = names.index("traffic", meta[-1])
    assert obs.events[data][1][2] == "data"
    for i in meta:
        assert names[i - 2:i] == ["dram", "traffic"]
    assert names[data - 1] == "dram"


# ---------------------------------------------------------------------------
# Traffic-kind dispatch: unknown kinds must fail loudly
# ---------------------------------------------------------------------------

def test_emission_books_builtin_kinds_to_their_counters():
    sim = _sim()
    mee = sim.mees[0]
    for kind, size in (("data", 128), ("ctr", 8), ("mac", 8), ("bmt", 64),
                       ("mispred", 32)):
        mee._emit_bulk(size, False, kind)
    traffic = sim.pipeline.traffic
    assert traffic.data_bytes == 128
    assert traffic.counter_bytes == 8
    assert traffic.mac_bytes == 8
    assert traffic.bmt_bytes == 64
    assert traffic.misprediction_bytes == 32


def test_emission_rejects_unregistered_kind():
    sim = _sim()
    # An unknown kind used to be silently booked as demand data,
    # corrupting every overhead ratio built from the breakdown.
    with pytest.raises(ValueError, match="unregistered DRAM request kind"):
        sim.mees[0]._emit_bulk(32, False, "ecc")


# ---------------------------------------------------------------------------
# Victim displacement: dirty data a victim insertion pushes out of the
# L2 must reach DRAM through the secure write path
# ---------------------------------------------------------------------------

def test_victim_displaced_dirty_data_reaches_dram(monkeypatch):
    # lbm at scale 0.1 thrashes the L2 under shm_vl2: metadata victim
    # insertions displace dirty data lines on read misses as well as
    # on write-backs, and every displaced line must be written back.
    from collections import Counter

    from repro.memory.l2 import L2Bank
    from repro.sim.runner import GAP_EPSILON, Runner

    runner = Runner(scale=0.1)
    calib = runner.calibration("lbm")
    displaced = []
    insert = L2Bank.victim_insert

    def spy(self, key, valid_sectors, dirty):
        evictions = insert(self, key, valid_sectors, dirty)
        displaced.extend((ev.key * constants.BLOCK_SIZE,
                          ev.dirty_sectors * constants.SECTOR_SIZE)
                         for ev in evictions if isinstance(ev.key, int))
        return evictions

    monkeypatch.setattr(L2Bank, "victim_insert", spy)
    sim = GPUSimulator(runner.config.with_scheme("shm_vl2"),
                       truth=calib.profile)
    log = record_channels(sim.channels)
    sim.run(runner.workload("lbm"), gap=GAP_EPSILON,
            max_inflight=calib.window)
    assert displaced
    written = Counter((t.address, t.size) for t in log
                      if t.kind == "data" and t.is_write)
    lost = Counter(displaced) - written
    assert not lost, f"displaced dirty data never written back: {lost}"


# ---------------------------------------------------------------------------
# final_flush: teardown write-backs must propagate their completion
# ---------------------------------------------------------------------------

def _dirty_teardown_pipeline(scheme, **gpu_overrides):
    """Leave every partition's L2 full of dirty lines, then flush."""
    sim = _sim(scheme, **gpu_overrides)
    issue = 0.0
    for i in range(512):
        issue = i * 2.0
        sim.pipeline.access(issue, i * constants.BLOCK_SIZE, True,
                            constants.SECTORS_PER_BLOCK)
    return sim, issue


@pytest.mark.parametrize("scheme", [Scheme.UNPROTECTED, Scheme.SHM])
def test_final_flush_returns_last_teardown_completion(scheme):
    sim, last_issue = _dirty_teardown_pipeline(scheme)
    end = last_issue + L2_HIT_LATENCY
    done = sim.pipeline.final_flush(end)
    # The teardown write-backs land on the channels *after* ``end``;
    # their completion must come back to the caller, not be discarded.
    assert done > end
    busy = max(ch.next_free + ch.latency for ch in sim.channels
               if ch.stats.requests)
    assert done == busy


def test_final_flush_is_noop_when_nothing_is_dirty():
    sim = _sim(Scheme.SHM)
    assert sim.pipeline.final_flush(123.0) == 123.0


def test_final_flush_drains_deferred_scheduler_writes():
    sim, last_issue = _dirty_teardown_pipeline(
        Scheme.SHM, dram_scheduler="critical_first")
    sim.pipeline.final_flush(last_issue + L2_HIT_LATENCY)
    for ch in sim.channels:
        assert ch.scheduler.pending_writes == 0


def test_run_cycles_cover_teardown_writebacks():
    """End-to-end: a write-heavy run's cycle count includes the flush."""
    workload = build_tiny_random()
    sim = _sim(Scheme.SHM)
    result = sim.run(workload, max_inflight=256)
    busy_end = max(ch.next_free + ch.latency for ch in sim.channels
                   if ch.stats.requests)
    assert result.cycles >= busy_end


def test_streams_recorded_through_pipeline():
    workload = build_tiny_streaming()
    config = SimConfig().with_scheme(Scheme.UNPROTECTED)
    sim = GPUSimulator(config, record_stream=True)
    sim.run(workload, max_inflight=256)
    assert sum(len(s) for s in sim.streams.values()) > 0
