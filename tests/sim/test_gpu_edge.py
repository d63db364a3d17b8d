"""GPU simulator edge cases and conservation invariants."""

import pytest

from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.sim.gpu import GPUSimulator
from repro.workloads import patterns as pat
from repro.workloads.base import WorkloadBuilder

KB = 1024


def run(workload, scheme, **overrides):
    config = SimConfig().with_scheme(scheme, **overrides)
    sim = GPUSimulator(config)
    return sim.run(workload, max_inflight=128), sim


def tiny(name, sources_fn, utilization=0.5, kernels=1):
    b = WorkloadBuilder(name, bandwidth_utilization=utilization, seed=5)
    data = b.alloc("data", 384 * KB)
    out = b.alloc("out", 192 * KB, host_init=False)
    for k in range(kernels):
        b.kernel(f"k{k}", sources_fn(b, data, out))
    return b.build()


class TestWriteOnlyWorkload:
    def test_write_only_stream(self):
        w = tiny("wo", lambda b, d, o: pat.stream_write(o.address, o.size))
        result, _ = run(w, Scheme.SHM)
        assert result.cycles > 0
        # Every written byte reaches DRAM via write backs or the flush.
        assert result.traffic.data_bytes >= 192 * KB


class TestReadOnlyWorkload:
    def test_pure_readonly_stream_has_no_counter_traffic(self):
        w = tiny("ro", lambda b, d, o: pat.stream_read(d.address, d.size))
        result, _ = run(w, Scheme.SHM)
        assert result.traffic.counter_bytes == 0
        assert result.traffic.bmt_bytes == 0
        assert result.shared_counter_reads > 0


class TestConservation:
    def test_dirty_data_always_reaches_dram(self):
        """Conservation: every distinct dirty data byte is written to
        DRAM at least once (evictions and/or the final flush)."""
        w = tiny("cons", lambda b, d, o: pat.interleave(b.rng, [
            pat.stream_read(d.address, d.size),
            pat.stream_write(o.address, o.size),
        ]))
        result, sim = run(w, Scheme.SHM)
        write_bytes = sum(ch.stats.write_bytes for ch in sim.channels)
        assert write_bytes >= 192 * KB  # the whole output buffer

    def test_no_metadata_without_secure_scheme(self):
        w = tiny("unp", lambda b, d, o: pat.stream_read(d.address, d.size))
        result, sim = run(w, Scheme.UNPROTECTED)
        assert result.traffic.metadata_bytes == 0
        assert not sim.mees

    def test_channel_byte_totals_match_counters(self):
        from repro.obs.observer import Observer
        from repro.perf.hostprof import HostProfiler

        w = tiny("acct", lambda b, d, o: pat.interleave(b.rng, [
            pat.stream_read(d.address, d.size),
            pat.random_write(b.rng, o.address, o.size, 500),
        ]))
        # Plain, observed and profiled runs share one metadata path;
        # each must conserve bytes on its own.
        modes = {
            "plain": lambda: {},
            "observed": lambda: {"observer": Observer(window_cycles=1000.0)},
            "profiled": lambda: {"profiler": HostProfiler()},
        }
        for scheme in (Scheme.NAIVE, Scheme.PSSM, Scheme.SHM,
                       Scheme.SHM_CCTR, Scheme.SHM_VL2,
                       Scheme.SHM_UPPER_BOUND, "pssm_learned", "shm_bandit"):
            for mode, hooks in modes.items():
                sim = GPUSimulator(SimConfig().with_scheme(scheme),
                                   **hooks())
                result = sim.run(w, max_inflight=128)
                channel_total = sum(ch.stats.total_bytes
                                    for ch in sim.channels)
                assert channel_total == result.traffic.total_bytes, \
                    (scheme, mode)


class TestKernelBoundaries:
    def test_unknown_host_event_rejected(self):
        from repro.workloads.base import HostEvent

        w = tiny("bad", lambda b, d, o: pat.stream_read(d.address, d.size))
        w.kernels[0].host_events.append(HostEvent("teleport", 0, 128))
        with pytest.raises(ValueError):
            run(w, Scheme.SHM)

    def test_reset_api_counts_shared_resets(self):
        def sources(b, d, o):
            return pat.stream_read(d.address, d.size)

        b = WorkloadBuilder("reset-e2e", bandwidth_utilization=0.5, seed=5)
        data = b.alloc("data", 384 * KB)
        b.kernel("k0", pat.stream_read(data.address, data.size))
        b.kernel("k1", pat.stream_read(data.address, data.size),
                 readonly_resets=[data])
        w = b.build()
        _, sim = run(w, Scheme.SHM)
        assert sim.mees[0].shared_counter.resets >= 1

    def test_empty_kernel_is_fine(self):
        b = WorkloadBuilder("empty-k", bandwidth_utilization=0.5, seed=5)
        data = b.alloc("data", 192 * KB)
        b.kernel("k0", pat.stream_read(data.address, data.size))
        b.kernel("k1", [])
        w = b.build()
        result, _ = run(w, Scheme.SHM)
        assert result.cycles > 0


class TestSchemeIsolation:
    def test_scheme_runs_do_not_share_state(self):
        w = tiny("iso", lambda b, d, o: pat.stream_read(d.address, d.size))
        first, _ = run(w, Scheme.SHM)
        second, _ = run(w, Scheme.SHM)
        assert first.cycles == second.cycles
        assert first.traffic.total_bytes == second.traffic.total_bytes
