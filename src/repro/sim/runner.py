"""Experiment orchestration: calibration, profiling, cached runs.

For each workload the runner performs, once:

1. *calibration*: the MLP window is searched so the unprotected run
   hits the workload's published bandwidth utilisation (Table VII);
   every search round records the MEE-visible stream;
2. the converged round doubles as the *baseline* run (the Fig. 12
   normaliser) and the *recording* run;
3. *profiling*: the recorded stream becomes the ground truth
   (:class:`repro.sim.profiling.TraceProfile`) for detector-accuracy
   stats and the SHM_upper_bound oracle.

Scheme runs are cached by (workload, scheme) so that every figure's
bench reuses, rather than re-simulates, shared configurations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.core.policies.registry import scheme_entry
from repro.obs.decisions import NULL_LEDGER
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.perf.hostprof import NULL_PROFILER, HostProfiler
from repro.sim.gpu import GPUSimulator
from repro.sim.profiling import TraceProfile
from repro.sim.stats import RunResult
from repro.workloads.base import Workload
from repro.workloads.suite import build as build_workload

#: Compute floor between issued accesses (cycles); the suite is memory
#: bound, so pacing comes from the calibrated MLP window instead.
GAP_EPSILON = 0.001

#: Bounds and starting point of the MLP calibration search.
MIN_WINDOW = 16
MAX_WINDOW = 32768
INITIAL_WINDOW = 512
CALIBRATION_ROUNDS = 4
CALIBRATION_TOLERANCE = 0.06


@dataclass
class Calibration:
    """Per-workload calibration artefacts and their quality."""

    window: int
    profile: TraceProfile
    baseline: RunResult
    #: The Table VII utilisation the search aimed at.
    target: float = 0.0
    #: Search rounds simulated (an extra recording run is not a round).
    rounds: int = 0

    @property
    def achieved(self) -> float:
        """The baseline's DRAM utilisation."""
        return self.baseline.dram_utilization

    @property
    def error(self) -> float:
        """Relative distance of ``achieved`` from ``target``."""
        return (abs(self.achieved - self.target) / self.target
                if self.target else 0.0)

    @property
    def in_tolerance(self) -> bool:
        return self.error <= CALIBRATION_TOLERANCE


class Runner:
    """Runs (workload x scheme) simulations with caching."""

    def __init__(self, config: Optional[SimConfig] = None, scale: float = 1.0,
                 observer: Optional[Observer] = None,
                 profiler: Optional[HostProfiler] = None,
                 ledger=None) -> None:
        self.config = config or SimConfig()
        self.scale = scale
        self.observer = observer if observer is not None else NULL_OBSERVER
        #: Host-time profiler threaded into scheme runs (calibration
        #: runs stay unprofiled: only protected-run host time is the
        #: optimisation target).
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        #: Decision ledger threaded into scheme runs.  A plain settable
        #: attribute (read per run()) so campaign cells can attach a
        #: fresh ledger per cell and restore NULL_LEDGER after.
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self._workloads: Dict[str, Workload] = {}
        self._calibrations: Dict[str, Calibration] = {}
        # Keyed by (workload, scheme-registry name).
        self._results: Dict[Tuple[str, str], RunResult] = {}

    # ------------------------------------------------------------------

    def workload(self, name: str) -> Workload:
        if name not in self._workloads:
            self._workloads[name] = build_workload(name, self.scale)
        return self._workloads[name]

    def add_workload(self, workload: Workload) -> None:
        """Register a custom (non-suite) workload."""
        self._workloads[workload.name] = workload

    def calibration(self, name: str) -> Calibration:
        if name not in self._calibrations:
            self._calibrations[name] = self._calibrate(self.workload(name))
        return self._calibrations[name]

    def profile(self, name: str) -> TraceProfile:
        return self.calibration(name).profile

    def baseline(self, name: str) -> RunResult:
        """The calibrated unprotected run (a defensive copy: callers
        may mutate their result without corrupting the cache)."""
        return copy.deepcopy(self.calibration(name).baseline)

    def run(self, name: str, scheme, **overrides) -> RunResult:
        """Simulate one scheme on one workload (cached when no
        overrides are given and no observer is attached).

        ``scheme`` is a :class:`Scheme` member or a scheme-registry
        name (including custom compositions registered via
        :func:`repro.core.policies.register_scheme`).

        Every return is a defensive deep copy of the cached entry, so
        one figure's post-processing cannot corrupt another figure's
        cached (workload, scheme) result.
        """
        entry = scheme_entry(scheme)
        cacheable = (not overrides and not self.observer.enabled
                     and not self.profiler.enabled
                     and not self.ledger.enabled)
        key = (name, entry.name)
        if cacheable and key in self._results:
            return copy.deepcopy(self._results[key])
        if cacheable and entry.name == Scheme.UNPROTECTED.value:
            return self.baseline(name)
        calib = self.calibration(name)
        config = self.config.with_scheme(entry.name, **overrides)
        if self.ledger.enabled:
            self.ledger.begin_run(f"{name}/{entry.name}")
        sim = GPUSimulator(config, truth=calib.profile,
                           observer=self.observer,
                           profiler=self.profiler,
                           ledger=self.ledger)
        result = sim.run(self.workload(name), gap=GAP_EPSILON,
                         max_inflight=calib.window)
        if cacheable:
            self._results[key] = copy.deepcopy(result)
        return result

    def clear_results(self) -> None:
        """Drop cached (workload, scheme) runs while keeping the
        calibration artefacts — benchmarking wants every run
        re-simulated, not served as a deep copy."""
        self._results.clear()

    def normalized_ipc(self, name: str, scheme: Scheme) -> float:
        return self.run(name, scheme).normalized_ipc(self.baseline(name))

    def overhead(self, name: str, scheme: Scheme) -> float:
        return self.run(name, scheme).overhead(self.baseline(name))

    # ------------------------------------------------------------------

    def _calibrate(self, workload: Workload) -> Calibration:
        """Find the MLP window at which the unprotected run hits the
        workload's published bandwidth utilisation (Table VII).

        Below saturation utilisation grows ~linearly with the window
        (Little's law), so a proportional update converges in a few
        rounds.  Every round records the MEE-visible stream, so the
        round that settles the window is the recording run and the
        baseline; only when the rounds run out on a new window is that
        window simulated once more.  A round's simulator (and its
        stream) is dropped before the next one runs.
        """
        target = workload.bandwidth_utilization
        recording_config = self.config.with_scheme(Scheme.UNPROTECTED)
        observe = self.observer.enabled

        def record(round_idx: int, window: int):
            sim = GPUSimulator(recording_config, record_stream=True)
            result = sim.run(workload, gap=GAP_EPSILON, max_inflight=window)
            if observe:
                self.observer.calibration_round(
                    workload.name, round_idx, window,
                    result.dram_utilization, result.cycles
                )
            return sim, result

        window = INITIAL_WINDOW
        for round_idx in range(CALIBRATION_ROUNDS):
            recorder, baseline = record(round_idx, window)
            measured = baseline.dram_utilization
            if measured <= 0:
                break
            error = abs(measured - target) / target
            if error <= CALIBRATION_TOLERANCE:
                break
            scaled = int(window * target / measured)
            scaled = max(MIN_WINDOW, min(MAX_WINDOW, scaled))
            if scaled == window:
                break
            window = scaled
            del recorder, baseline  # at most one recorded stream alive
        else:
            recorder, baseline = record(CALIBRATION_ROUNDS, window)

        profile = TraceProfile(
            region_size=self.config.scheme.detectors.readonly_region_size,
            chunk_size=self.config.scheme.detectors.stream_chunk_size,
        ).ingest(recorder.streams)
        return Calibration(window=window, profile=profile, baseline=baseline,
                           target=target, rounds=round_idx + 1)


_shared_runners: Dict[float, Runner] = {}


def shared_runner(scale: float = 1.0) -> Runner:
    """A process-wide runner so benchmarks share calibration and runs."""
    if scale not in _shared_runners:
        _shared_runners[scale] = Runner(scale=scale)
    return _shared_runners[scale]
