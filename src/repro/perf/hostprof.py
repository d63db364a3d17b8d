"""Host wall-time stage profiling of the simulator itself.

The :class:`HostProfiler` answers "where does the *host* spend its
time while simulating?" — the complement of the :mod:`repro.obs`
layer, which observes simulated cycles.  Timing marks are threaded
through the same constructor seams the observer uses
(:class:`~repro.sim.runner.Runner` → :class:`~repro.sim.gpu.GPUSimulator`
→ :class:`~repro.sim.pipeline.MemoryPipeline` /
:class:`~repro.core.mee.MemoryEncryptionEngine` →
:class:`~repro.metadata.caches.MetadataCaches`) and attribute host
time to the five request-lifecycle stages the pipeline already models
(ISSUED → L2 → METADATA → DRAM → COMPLETE), per run (workload/scheme).

Zero-overhead discipline, exactly like ``NULL_OBSERVER``: every
instrumented object snapshots ``profiler.enabled`` into a local
boolean at construction and the hot path pays one local-bool branch
per mark when profiling is off — no attribute chasing, no calls.
:data:`NULL_PROFILER` is the shared disabled instance.

Component attribution is a *breakdown* of stage time, not additive
with it: ``metadata_caches`` and the DRAM-scheduler service calls are
timed inside their enclosing stage intervals, and the policy-stack
share is derived as the METADATA remainder.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Schema version of :meth:`HostProfiler.snapshot` documents.
HOST_PROFILE_FORMAT = 1

#: The five request-lifecycle stages host time is attributed to, in
#: the order a request passes them in ``MemoryPipeline.run_batch``.
STAGES = ("issued", "l2", "metadata", "dram", "complete")

#: Component breakdown reported by :meth:`HostProfiler.snapshot`.
COMPONENTS = ("frontend", "translate", "l2", "policy_stacks",
              "metadata_caches", "dram_sched")


class RunProfile:
    """Accumulators for one simulated run (one workload x scheme)."""

    __slots__ = ("label", "wall", "stages", "components", "start")

    def __init__(self, label: str, start: float) -> None:
        self.label = label
        self.start = start
        #: Host wall seconds between begin_run and end_run.
        self.wall = 0.0
        self.stages: Dict[str, float] = {stage: 0.0 for stage in STAGES}
        #: Raw measured sub-intervals (nested inside stage intervals):
        #: ``metadata_caches`` (MDC lookups), ``sched_meta`` /
        #: ``sched_data`` (DRAM-scheduler service calls).
        self.components: Dict[str, float] = {}


class HostProfiler:
    """Collects stage-attributed host wall time, per run."""

    enabled = True
    #: The clock; a class attribute so tests can substitute a fake.
    now: Callable[[], float] = staticmethod(perf_counter)

    def __init__(self) -> None:
        self.runs: List[RunProfile] = []
        self._current: Optional[RunProfile] = None
        #: Ledger clock: the timestamp of the last :meth:`mark`.
        self._last = 0.0

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------

    def begin_run(self, label: str) -> None:
        run = RunProfile(label, self.now())
        self.runs.append(run)
        self._current = run
        self._last = run.start

    def end_run(self) -> None:
        run = self._current
        if run is not None:
            run.wall += self.now() - run.start
            self._current = None

    # ------------------------------------------------------------------
    # Hot-path accumulation
    # ------------------------------------------------------------------

    def mark(self, stage: str) -> None:
        """Attribute all host time since the previous mark (or since
        ``begin_run``) to one lifecycle stage and advance the ledger.

        Contiguous by construction: consecutive marks tile the run's
        wall time with no gaps, so stage attribution covers ~100 % of
        the measured wall — call overhead between instrumented layers
        lands in the adjacent stage instead of vanishing.
        """
        run = self._current
        if run is None:
            run = self._open_unattributed()
        t = self.now()
        run.stages[stage] += t - self._last
        self._last = t

    def add(self, stage: str, dt: float) -> None:
        """Attribute ``dt`` host seconds to one lifecycle stage
        (direct form, for externally measured intervals)."""
        run = self._current
        if run is None:
            run = self._open_unattributed()
        run.stages[stage] += dt

    def add_component(self, component: str, dt: float) -> None:
        """Attribute ``dt`` to a sub-component (nested in a stage)."""
        run = self._current
        if run is None:
            run = self._open_unattributed()
        run.components[component] = run.components.get(component, 0.0) + dt

    def _open_unattributed(self) -> RunProfile:
        """Marks arriving outside begin_run/end_run (e.g. a bare
        pipeline driven without the simulator run loop) still land
        somewhere inspectable instead of raising."""
        self.begin_run("(unattributed)")
        run = self._current
        assert run is not None
        return run

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready per-run and total stage/component breakdown."""
        runs: Dict[str, dict] = {}
        total_wall = 0.0
        total_stages = {stage: 0.0 for stage in STAGES}
        total_components = {name: 0.0 for name in COMPONENTS}
        for run in self.runs:
            wall = run.wall
            if run is self._current:  # still open: report live
                wall += self.now() - run.start
            attributed = sum(run.stages.values())
            components = self._component_breakdown(run)
            label = run.label
            suffix = 2
            while label in runs:  # repeated (workload, scheme) runs
                label = f"{run.label}#{suffix}"
                suffix += 1
            runs[label] = {
                "wall_s": wall,
                "attributed_s": attributed,
                "coverage": attributed / wall if wall > 0 else 0.0,
                "stages_s": dict(run.stages),
                "components_s": components,
            }
            total_wall += wall
            for stage, value in run.stages.items():
                total_stages[stage] += value
            for name, value in components.items():
                total_components[name] += value
        total_attributed = sum(total_stages.values())
        return {
            "host_profile_format": HOST_PROFILE_FORMAT,
            "runs": runs,
            "total": {
                "wall_s": total_wall,
                "attributed_s": total_attributed,
                "coverage": (total_attributed / total_wall
                             if total_wall > 0 else 0.0),
                "stages_s": total_stages,
                "components_s": total_components,
            },
        }

    @staticmethod
    def _component_breakdown(run: RunProfile) -> Dict[str, float]:
        """Map raw measured sub-intervals onto the reported component
        vocabulary; the policy-stack share is what remains of the
        METADATA stage once MDC lookups and metadata scheduling are
        taken out."""
        mdc = run.components.get("metadata_caches", 0.0)
        sched_meta = run.components.get("sched_meta", 0.0)
        sched_data = run.components.get("sched_data", 0.0)
        # The batch loop's address translation is measured as
        # its own sub-interval nested inside the ISSUED stage; what
        # remains of that stage is frontend bookkeeping proper.
        translate = run.components.get("translate", 0.0)
        return {
            "frontend": max(0.0, run.stages["issued"] - translate),
            "translate": translate,
            "l2": run.stages["l2"],
            "policy_stacks": max(0.0, run.stages["metadata"] - mdc - sched_meta),
            "metadata_caches": mdc,
            "dram_sched": sched_meta + sched_data,
        }


class NullHostProfiler(HostProfiler):
    """The disabled profiler: every operation is a no-op.

    Instrumented code never calls these on the hot path (it branches
    on a snapshotted ``enabled`` boolean instead), but accidental
    calls must stay harmless and allocation-free."""

    enabled = False

    def begin_run(self, label: str) -> None:
        pass

    def end_run(self) -> None:
        pass

    def mark(self, stage: str) -> None:
        pass

    def add(self, stage: str, dt: float) -> None:
        pass

    def add_component(self, component: str, dt: float) -> None:
        pass

    def snapshot(self) -> dict:
        return {
            "host_profile_format": HOST_PROFILE_FORMAT,
            "runs": {},
            "total": {
                "wall_s": 0.0,
                "attributed_s": 0.0,
                "coverage": 0.0,
                "stages_s": {stage: 0.0 for stage in STAGES},
                "components_s": {name: 0.0 for name in COMPONENTS},
            },
        }


#: Shared disabled profiler (the ``NULL_OBSERVER`` of host timing).
NULL_PROFILER = NullHostProfiler()
