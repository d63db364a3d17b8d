"""Shared fixtures: tiny workloads, a session-scoped runner, registry
hygiene, and DRAM-transaction recorders for MDC/MEE/pipeline tests."""

from typing import List, NamedTuple

import pytest

from repro.common.types import MemorySpace, TrafficCounters
from repro.core.policies.registry import SCHEME_REGISTRY
from repro.memory.dram import DRAMChannel
from repro.memory.sched import DRAMScheduler
from repro.sim.runner import Runner
from repro.workloads import patterns as pat
from repro.workloads.base import WorkloadBuilder


@pytest.fixture(autouse=True)
def _scheme_registry_hygiene():
    """Snapshot/restore the scheme registry around every test.

    A test that registers a scheme and fails (or simply forgets to
    unregister) used to leak the entry into every later test in the
    process — and a ``replace=True`` shadow of a built-in followed by
    ``unregister_scheme`` once deleted the built-in outright.  The
    snapshot makes such leaks impossible to propagate.
    """
    snapshot = dict(SCHEME_REGISTRY)
    yield
    SCHEME_REGISTRY.clear()
    SCHEME_REGISTRY.update(snapshot)

KB = 1024
MB = 1024 * 1024


# ---------------------------------------------------------------------------
# DRAM-transaction recording
# ---------------------------------------------------------------------------

class Transfer(NamedTuple):
    """One DRAM transaction as a channel's scheduler received it."""

    partition: int
    size: int
    is_write: bool
    kind: str
    critical: bool
    address: int


class RecordingScheduler(DRAMScheduler):
    """FIFO arithmetic that logs every transaction.

    Deliberately not a :class:`~repro.memory.sched.FIFOScheduler`: its
    channels keep ``fifo_fast`` False, so every transfer the pipeline
    or the MEE places goes through ``service`` and lands in the log.
    """

    name = "recording"

    def __init__(self, log: List[Transfer]) -> None:
        self.log = log

    def service(self, channel, arrival, size, is_write, address, kind,
                critical):
        self.log.append(Transfer(channel.partition, size, is_write, kind,
                                 critical, address))
        return channel.occupy(arrival, size, is_write)


def record_channels(channels) -> List[Transfer]:
    """Swap existing channels onto one shared recording log."""
    log: List[Transfer] = []
    for channel in channels:
        channel.scheduler = RecordingScheduler(log)
        # fifo_fast is a construction-time snapshot of the scheduler.
        channel.fifo_fast = False
    return log


class Emitted(NamedTuple):
    """One DRAM transfer a :class:`MetadataCaches` passed to its sink."""

    kind: str
    line_key: int
    size: int
    is_write: bool
    critical: bool


class EmitLog(list):
    """A recording ``emit`` sink for a bare :class:`MetadataCaches`:
    logs every transfer, each completing at cycle 0."""

    def __call__(self, kind, line_key, size, is_write, critical) -> float:
        self.append(Emitted(kind, line_key, size, is_write, critical))
        return 0.0


class RecordingMEE:
    """An MEE whose emissions land on recording channels.

    ``on_read_miss`` / ``on_writeback`` / ``flush`` return the
    :class:`Transfer` list that one call placed on the channels; every
    other attribute is the wrapped engine's.
    """

    def __init__(self, mee) -> None:
        self.mee = mee
        self.log: List[Transfer] = []
        self.traffic = TrafficCounters()
        gpu = mee.config.gpu
        mee.attach_channels(
            [DRAMChannel(gpu.dram_bytes_per_cycle, gpu.dram_latency,
                         partition=p, scheduler=RecordingScheduler(self.log))
             for p in range(gpu.num_partitions)],
            self.traffic)

    def _recorded(self, call, *args) -> List[Transfer]:
        start = len(self.log)
        call(*args)
        return self.log[start:]

    def on_read_miss(self, cycle, physical, local_offset) -> List[Transfer]:
        return self._recorded(self.mee.on_read_miss, cycle, physical,
                              local_offset)

    def on_writeback(self, cycle, physical, local_offset) -> List[Transfer]:
        return self._recorded(self.mee.on_writeback, cycle, physical,
                              local_offset)

    def flush(self, cycle: float = 0.0) -> List[Transfer]:
        return self._recorded(self.mee.flush, cycle)

    def __getattr__(self, name):
        return getattr(self.mee, name)


def build_tiny_streaming(name="tiny-stream", utilization=0.6):
    """A small streaming workload: read-only input, streamed output."""
    b = WorkloadBuilder(name, bandwidth_utilization=utilization, seed=7)
    data = b.alloc("input", 768 * KB)
    out = b.alloc("output", 192 * KB, host_init=False)
    trace = pat.interleave(b.rng, [
        pat.stream_read(data.address, data.size),
        pat.stream_write(out.address, 96 * KB),
    ])
    b.kernel("k0", trace)
    return b.build()


def build_tiny_random(name="tiny-random", utilization=0.4):
    """A small random read/write workload."""
    b = WorkloadBuilder(name, bandwidth_utilization=utilization, seed=11)
    data = b.alloc("table", 1536 * KB)
    scratch = b.alloc("scratch", 768 * KB, host_init=False)
    trace = pat.interleave(b.rng, [
        pat.random_read(b.rng, data.address, data.size, 4000),
        pat.random_write(b.rng, scratch.address, scratch.size, 2000),
    ])
    b.kernel("k0", trace)
    return b.build()


def build_tiny_multikernel(name="tiny-multi", utilization=0.5):
    """Two kernels; the input region is re-copied before kernel 1."""
    b = WorkloadBuilder(name, bandwidth_utilization=utilization, seed=13)
    data = b.alloc("input", 384 * KB)
    out = b.alloc("out", 192 * KB, host_init=False)
    k0 = pat.interleave(b.rng, [
        pat.stream_read(data.address, data.size),
        pat.stream_write(out.address, 48 * KB),
    ])
    b.kernel("k0", k0)
    k1 = pat.interleave(b.rng, [
        pat.stream_read(data.address, data.size),
        pat.stream_write(out.address, 48 * KB),
    ])
    b.kernel("k1", k1, copies=[data])
    return b.build()


@pytest.fixture(scope="session")
def tiny_streaming():
    return build_tiny_streaming()


@pytest.fixture(scope="session")
def tiny_random():
    return build_tiny_random()


@pytest.fixture(scope="session")
def tiny_multikernel():
    return build_tiny_multikernel()


@pytest.fixture(scope="session")
def tiny_runner(tiny_streaming, tiny_random, tiny_multikernel):
    """A runner with the tiny workloads registered (cached per session)."""
    runner = Runner()
    runner.add_workload(tiny_streaming)
    runner.add_workload(tiny_random)
    runner.add_workload(tiny_multikernel)
    return runner


@pytest.fixture(scope="session")
def suite_runner():
    """A down-scaled suite runner for integration tests."""
    return Runner(scale=0.1)
