"""Host wall-time stage profiler: ledger semantics, snapshots, and
end-to-end stage attribution through a real simulation."""

import pytest

from repro.common.types import Scheme
from repro.perf.hostprof import (
    COMPONENTS,
    HOST_PROFILE_FORMAT,
    NULL_PROFILER,
    STAGES,
    HostProfiler,
    NullHostProfiler,
)
from repro.eval.results_io import serialize_run_result
from repro.sim.runner import Runner
from tests.conftest import build_tiny_streaming


class FakeClock:
    """A controllable clock substituted for ``HostProfiler.now``."""

    def __init__(self) -> None:
        self.t = 0.0

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def prof():
    profiler = HostProfiler()
    clock = FakeClock()
    profiler.now = clock  # instance attribute shadows the class clock
    profiler.clock = clock
    return profiler


class TestLedger:
    def test_marks_tile_the_run(self, prof):
        prof.begin_run("w/s")
        prof.clock.advance(1.0)
        prof.mark("issued")
        prof.clock.advance(2.0)
        prof.mark("l2")
        prof.clock.advance(0.5)
        prof.mark("dram")
        prof.end_run()
        run = prof.snapshot()["runs"]["w/s"]
        assert run["stages_s"]["issued"] == pytest.approx(1.0)
        assert run["stages_s"]["l2"] == pytest.approx(2.0)
        assert run["stages_s"]["dram"] == pytest.approx(0.5)
        assert run["wall_s"] == pytest.approx(3.5)
        assert run["coverage"] == pytest.approx(1.0)

    def test_consecutive_marks_never_double_count(self, prof):
        prof.begin_run("w/s")
        prof.clock.advance(1.0)
        prof.mark("l2")
        prof.mark("l2")  # zero elapsed: ledger already advanced
        prof.end_run()
        run = prof.snapshot()["runs"]["w/s"]
        assert run["stages_s"]["l2"] == pytest.approx(1.0)

    def test_add_and_components(self, prof):
        prof.begin_run("w/s")
        prof.add("metadata", 0.25)
        prof.add_component("metadata_caches", 0.1)
        prof.add_component("metadata_caches", 0.05)
        prof.end_run()
        run = prof.snapshot()["runs"]["w/s"]
        assert run["stages_s"]["metadata"] == pytest.approx(0.25)
        assert run["components_s"]["metadata_caches"] == pytest.approx(0.15)
        # policy_stacks is the METADATA remainder.
        assert run["components_s"]["policy_stacks"] == pytest.approx(0.10)

    def test_mark_outside_run_lands_unattributed(self, prof):
        prof.clock.advance(1.0)
        prof.mark("l2")
        assert "(unattributed)" in prof.snapshot()["runs"]

    def test_repeated_labels_are_suffixed(self, prof):
        for _ in range(3):
            prof.begin_run("w/s")
            prof.clock.advance(1.0)
            prof.mark("l2")
            prof.end_run()
        assert set(prof.snapshot()["runs"]) == {"w/s", "w/s#2", "w/s#3"}

    def test_open_run_reported_live(self, prof):
        prof.begin_run("w/s")
        prof.clock.advance(2.0)
        prof.mark("dram")
        snap = prof.snapshot()  # no end_run yet
        assert snap["runs"]["w/s"]["wall_s"] == pytest.approx(2.0)


class TestSnapshotShape:
    def test_schema_fields(self, prof):
        prof.begin_run("w/s")
        prof.clock.advance(1.0)
        prof.mark("issued")
        prof.end_run()
        snap = prof.snapshot()
        assert snap["host_profile_format"] == HOST_PROFILE_FORMAT
        run = snap["runs"]["w/s"]
        assert set(run["stages_s"]) == set(STAGES)
        assert set(run["components_s"]) == set(COMPONENTS)
        assert set(snap["total"]["stages_s"]) == set(STAGES)

    def test_null_profiler_snapshot_is_zeroed(self):
        snap = NULL_PROFILER.snapshot()
        assert snap["runs"] == {}
        assert snap["total"]["wall_s"] == 0.0
        assert set(snap["total"]["stages_s"]) == set(STAGES)

    def test_null_profiler_is_disabled_subclass(self):
        assert isinstance(NULL_PROFILER, HostProfiler)
        assert NullHostProfiler.enabled is False
        NULL_PROFILER.begin_run("x")
        NULL_PROFILER.mark("l2")
        NULL_PROFILER.end_run()
        assert NULL_PROFILER.snapshot()["runs"] == {}


class TestEndToEnd:
    """The ISSUE acceptance bar: >= 95 % of measured host wall time
    attributed across the five pipeline stages on a real run."""

    @pytest.fixture(scope="class")
    def profiled_runner(self):
        profiler = HostProfiler()
        runner = Runner(profiler=profiler)
        runner.add_workload(build_tiny_streaming())
        runner.run("tiny-stream", Scheme.PSSM)
        runner.run("tiny-stream", Scheme.SHM)
        return runner, profiler

    def test_coverage_at_least_95_percent(self, profiled_runner):
        _, profiler = profiled_runner
        snap = profiler.snapshot()
        assert snap["total"]["coverage"] >= 0.95
        for run in snap["runs"].values():
            assert run["coverage"] >= 0.95

    def test_all_five_stages_observed(self, profiled_runner):
        _, profiler = profiled_runner
        for run in profiler.snapshot()["runs"].values():
            for stage in STAGES:
                assert run["stages_s"][stage] > 0.0, stage

    def test_runs_labelled_workload_slash_scheme(self, profiled_runner):
        _, profiler = profiled_runner
        assert set(profiler.snapshot()["runs"]) == {
            "tiny-stream/pssm", "tiny-stream/shm",
        }

    def test_component_breakdown_observed(self, profiled_runner):
        _, profiler = profiled_runner
        total = profiler.snapshot()["total"]["components_s"]
        for component in ("metadata_caches", "dram_sched", "policy_stacks"):
            assert total[component] > 0.0, component

    def test_profiling_does_not_change_simulation(self):
        # A fresh profiler: the class fixture's run labels stay pinned.
        runner = Runner(profiler=HostProfiler())
        runner.add_workload(build_tiny_streaming())
        plain = Runner()
        plain.add_workload(build_tiny_streaming())
        for scheme in (Scheme.NAIVE, Scheme.SHM, Scheme.SHM_VL2):
            assert (serialize_run_result(plain.run("tiny-stream", scheme))
                    == serialize_run_result(runner.run("tiny-stream",
                                                       scheme))), scheme

    def test_profiled_runs_are_not_cached(self, profiled_runner):
        runner, _ = profiled_runner
        assert runner._results == {}
