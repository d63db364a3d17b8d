"""The event queue of the batch loop (:mod:`repro.sim.events`).

:class:`CompletionWindow` is the only sequential state the simulator
carries between accesses, so its arithmetic *is* the idle-cycle
skipping contract: these tests pin the window/issue/stall semantics —
including the ``freed == ready`` horizon edge where a completion lands
exactly on an access's program-order slot — and that the arithmetic
:meth:`MemoryPipeline.run_batch` inlines is the window's method form,
bit for bit.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.sim.events import CompletionWindow


class _ReferenceWindow:
    """Straight-line reference model of the issue-window semantics
    (no shared code with :class:`CompletionWindow`)."""

    def __init__(self, max_inflight: int, gap: float) -> None:
        self.max_inflight = max_inflight
        self.gap = gap
        self.inflight: list = []
        self.seq = 0
        self.stall_cycles = 0.0
        self.last_issue = 0.0
        self.last_completion = 0.0

    def issue(self) -> float:
        ready = self.seq * self.gap
        self.seq += 1
        if len(self.inflight) < self.max_inflight:
            self.last_issue = ready
            return ready
        freed = heapq.heappop(self.inflight)
        if freed > ready:
            self.stall_cycles += freed - ready
            ready = freed
        self.last_issue = ready
        return ready

    def complete(self, completion: float) -> None:
        heapq.heappush(self.inflight, completion)
        self.last_completion = max(self.last_completion, completion)

    def drain(self) -> float:
        return max(self.last_completion, self.last_issue)


def _drive(window, latencies):
    """Issue one access per latency; returns (issue times, drain)."""
    issues = []
    for latency in latencies:
        at = window.issue()
        issues.append(at)
        window.complete(at + latency)
    return issues, window.drain()


def test_unconstrained_issue_follows_the_compute_rate():
    window = CompletionWindow(max_inflight=8, gap=2.0)
    issues, _ = _drive(window, [100.0] * 8)
    assert issues == [i * 2.0 for i in range(8)]
    assert window.stall_cycles == 0.0


def test_full_window_jumps_to_the_earliest_completion():
    # Window of 1, latency 10: access i+1 cannot issue before access
    # i completes, so the clock jumps 10 cycles per access and the
    # skipped idle cycles accumulate as stall.
    window = CompletionWindow(max_inflight=1, gap=1.0)
    issues, drain = _drive(window, [10.0] * 4)
    assert issues == [0.0, 10.0, 20.0, 30.0]
    assert drain == 40.0
    # Stalls: access i ready at i*gap, issued at i*10.
    assert window.stall_cycles == sum(i * 10.0 - i * 1.0 for i in range(4))


def test_completion_exactly_at_the_ready_slot_is_zero_stall():
    # The horizon edge: with gap 10 and latency 10, access 1's slot
    # (cycle 10) coincides exactly with access 0's completion event.
    # ``freed == ready`` must free the window slot just in time —
    # no stall, and the issue time is the program-order slot.
    window = CompletionWindow(max_inflight=1, gap=10.0)
    window.complete(window.issue() + 10.0)
    second = window.issue()
    assert second == 10.0
    assert window.stall_cycles == 0.0
    assert window.last_stall == 0.0


def test_drain_covers_late_issue_without_completion():
    # An access can issue after every completion already landed; the
    # drain horizon must then be the issue time, not the stale
    # completion maximum.
    window = CompletionWindow(max_inflight=4, gap=5.0)
    at = window.issue()
    window.complete(at + 1.0)
    window.issue()  # issues at cycle 5, never completes
    assert window.drain() == 5.0


def test_zero_access_stream_drains_at_cycle_zero():
    window = CompletionWindow(max_inflight=4, gap=1.0)
    assert window.drain() == 0.0


@pytest.mark.parametrize("bad", [0, -3])
def test_window_size_must_be_positive(bad):
    with pytest.raises(ValueError):
        CompletionWindow(max_inflight=bad, gap=1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_gap_must_be_positive(bad):
    with pytest.raises(ValueError):
        CompletionWindow(max_inflight=4, gap=bad)


@pytest.mark.parametrize("max_inflight,gap", [(1, 1.0), (3, 0.5), (16, 2.5)])
def test_window_matches_the_reference_model(max_inflight, gap):
    rng = random.Random(max_inflight * 31 + int(gap * 8))
    window = CompletionWindow(max_inflight, gap)
    reference = _ReferenceWindow(max_inflight, gap)
    for _ in range(500):
        got = window.issue()
        want = reference.issue()
        assert got == want
        latency = rng.choice([0.0, 0.5, 1.0, 7.0, 40.0])
        window.complete(got + latency)
        reference.complete(want + latency)
    assert window.drain() == reference.drain()
    assert window.stall_cycles == reference.stall_cycles


def test_throughput_bounded_by_window_over_latency():
    """With constant latency L and window W, issue rate approaches
    W/L accesses per cycle - the latency-bound regime."""
    window = CompletionWindow(max_inflight=10, gap=0.001)
    at = 0.0
    for _ in range(1000):
        at = window.issue()
        window.complete(at + 100.0)
    assert 1000 / at == pytest.approx(10 / 100.0, rel=0.05)


class _IssueRecorder:
    """An enabled observer that keeps each read's (issue, latency)."""

    enabled = True

    def __init__(self) -> None:
        self.reads = []

    def read_latency(self, cycle, latency):
        self.reads.append((cycle, latency))

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        return lambda *args, **kwargs: None


@pytest.mark.parametrize("max_inflight,gap", [(1, 1.0), (4, 0.001),
                                              (32, 3.0)])
def test_run_batch_advances_the_window_like_its_method_form(max_inflight,
                                                             gap):
    # A read-only batch mixing hits, MSHR merges and DRAM misses (so
    # latencies vary): run_batch's inlined window arithmetic must issue
    # every access where issue()/complete() fed the same latencies
    # would, and leave the window in the identical state.
    from repro.common.config import SimConfig
    from repro.common.types import Scheme
    from repro.sim.gpu import GPUSimulator
    from repro.sim.stats import LatencyStats

    rng = random.Random(max_inflight)
    accesses = [(rng.randrange(1 << 14) * 32, False, rng.choice([1, 2, 4]))
                for _ in range(400)]
    recorder = _IssueRecorder()
    sim = GPUSimulator(SimConfig().with_scheme(Scheme.SHM),
                       observer=recorder)
    window = CompletionWindow(max_inflight, gap)
    sim.pipeline.run_batch(window, accesses, LatencyStats())
    assert len(recorder.reads) == len(accesses)
    assert len({latency for _, latency in recorder.reads}) > 1

    reference = CompletionWindow(max_inflight, gap)
    for issue, latency in recorder.reads:
        assert reference.issue() == issue
        reference.complete(issue + latency)
    for slot in CompletionWindow.__slots__:
        assert getattr(window, slot) == getattr(reference, slot), slot
