"""Instrumentation the benchmark installs around the program's public
entry points, from outside the program.

Two things are installed:

* **Output checks** (always on, one Python call per simulation): every
  :meth:`GPUSimulator.run` must conserve bytes between the pipeline's
  ``TrafficCounters`` and the ``DRAMChannel`` statistics, and report a
  DRAM utilisation of at most 1.  A violation raises
  :class:`OutputCheckError`, which the benchmark counts as a failed
  run or cell.  Calibration rounds are logged at the same boundary, so
  calibration quality is reported rather than hidden.
* **Layer spans** (traced runs only): each entry point in
  :data:`LAYER_POINTS` is wrapped so that every call records a span
  (name, start, end, parent, run id ``workload/scheme``) in memory.
  Per-(context, name) aggregates of calls, inclusive and self time are
  exact; individual fine-grained spans are kept up to
  :data:`FINE_SPAN_CAP` per scheme simulation and counted as dropped
  beyond it, so a full-scale run does not hold millions of spans.

Campaign cells run in pool workers.  The campaign's worker entry point
is replaced by :func:`checked_cell_worker`, which installs the same
instrumentation in the worker and spools its records (calibrations,
simulation counts and, when traced, aggregates and spans) to a
directory the parent merges after the pool drains.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Environment variables that carry the spool directory and, for a
#: traced run, the span clock's epoch (``perf_counter_ns`` is
#: system-wide) to campaign pool workers under fork and spawn.
SPOOL_ENV = "PERFBENCH_SPOOL"
TRACE_ENV = "PERFBENCH_TRACE_EPOCH_NS"

#: Fine-grained spans kept per scheme simulation (none are kept inside
#: calibrations); the rest only feed the aggregates and the dropped
#: count.
FINE_SPAN_CAP = 500

#: (span name, module, class or None for a module function, attribute,
#: coarse).  Coarse points fire a bounded number of times per
#: simulation and are always kept as spans.
LAYER_POINTS: Tuple[Tuple[str, str, Optional[str], str, bool], ...] = (
    ("workloads.build", "repro.sim.runner", None, "build_workload", True),
    ("workloads.build", "repro.workloads.compose", None, "build_workload", True),
    ("profiling.ingest", "repro.sim.profiling", "TraceProfile", "ingest", True),
    ("pipeline.translate_batch", "repro.sim.pipeline", "MemoryPipeline",
     "translate_batch", True),
    ("pipeline.run_batch", "repro.sim.pipeline", "MemoryPipeline",
     "run_batch", True),
    ("pipeline.final_flush", "repro.sim.pipeline", "MemoryPipeline",
     "final_flush", True),
    ("pipeline.access", "repro.sim.pipeline", "MemoryPipeline", "access", False),
    ("pipeline.writeback", "repro.sim.pipeline", "MemoryPipeline",
     "writeback", False),
    ("l2.access_data_range", "repro.memory.l2", "L2Bank",
     "access_data_range", False),
    ("mee.on_read_miss", "repro.core.mee", "MemoryEncryptionEngine",
     "on_read_miss", False),
    ("mee.on_read_miss_direct", "repro.core.mee", "MemoryEncryptionEngine",
     "on_read_miss_direct", False),
    ("mee.on_writeback", "repro.core.mee", "MemoryEncryptionEngine",
     "on_writeback", False),
    ("mee.on_writeback_direct", "repro.core.mee", "MemoryEncryptionEngine",
     "on_writeback_direct", False),
    ("mee.on_kernel_boundary", "repro.core.mee", "MemoryEncryptionEngine",
     "on_kernel_boundary", True),
    ("mee.on_host_copy", "repro.core.mee", "MemoryEncryptionEngine",
     "on_host_copy", True),
    ("mdc.access", "repro.metadata.caches", "MetadataCaches", "access", False),
    ("dram.service", "repro.memory.dram", "DRAMChannel", "service", False),
    ("dram.occupy", "repro.memory.dram", "DRAMChannel", "occupy", False),
    ("campaign.serialize", "repro.eval.campaign", None, "_serialize_payload",
     True),
    ("results_io.store_put", "repro.eval.results_io", "ResultStore", "put",
     True),
)

#: Aggregation contexts: inside a calibration, inside a scheme
#: simulation, or host work outside both.
CTX_CALIB = "calib"
CTX_SIM = "sim"
CTX_HOST = "host"


class OutputCheckError(RuntimeError):
    """A simulation produced output that violates an invariant."""


class Tracer:
    """In-memory span recorder with exact per-(context, name)
    aggregates of calls, inclusive and self nanoseconds."""

    def __init__(self, epoch_ns: int) -> None:
        self.epoch_ns = epoch_ns
        self.next_id = 0
        #: Open frames: ``[span_id, child_ns]``.
        self.stack: List[List[int]] = []
        #: (context, name) -> [calls, inclusive_ns, self_ns].
        self.agg: Dict[Tuple[str, str], List[int]] = {}
        #: Kept spans: (id, name, start_ns, end_ns, parent_id, run).
        self.spans: List[tuple] = []
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and aggregates in place (the installed
        wrappers hold these containers; span ids keep counting)."""
        self.stack.clear()
        self.agg.clear()
        self.spans.clear()
        self.dropped = 0
        self.fine_kept = 0
        self.run = "host"
        self.ctx = CTX_HOST

    def begin_run(self, run: str, ctx: str) -> Tuple[str, str, int]:
        """Enter a simulation's run id and context; returns the state
        :meth:`end_run` restores."""
        saved = (self.run, self.ctx, self.fine_kept)
        self.run, self.ctx = run, ctx
        self.fine_kept = 0 if ctx == CTX_SIM else FINE_SPAN_CAP
        return saved

    def end_run(self, saved: Tuple[str, str, int]) -> None:
        self.run, self.ctx, self.fine_kept = saved

    def wrap(self, name: str, fn: Callable, coarse: bool) -> Callable:
        tracer = self
        stack = self.stack
        agg = self.agg
        spans = self.spans
        epoch = self.epoch_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            tracer.next_id += 1
            span_id = tracer.next_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                key = (tracer.ctx, name)
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[1]
                if coarse:
                    spans.append((span_id, name, t0 - epoch, t1 - epoch,
                                  parent, tracer.run))
                elif tracer.fine_kept < FINE_SPAN_CAP:
                    tracer.fine_kept += 1
                    spans.append((span_id, name, t0 - epoch, t1 - epoch,
                                  parent, tracer.run))
                else:
                    tracer.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def state(self) -> dict:
        """JSON-safe aggregates and spans (a worker's spool payload)."""
        return {
            "agg": [[ctx, name, *v] for (ctx, name), v in self.agg.items()],
            "spans": [list(s) for s in self.spans],
            "dropped": self.dropped,
        }

    def merge_state(self, state: dict) -> None:
        for ctx, name, calls, incl, self_ns in state["agg"]:
            entry = self.agg.setdefault((ctx, name), [0, 0, 0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_ns
        self.spans.extend(tuple(s) for s in state["spans"])
        self.dropped += state["dropped"]


class Instrumentation:
    """The checks and (optionally) the tracer, installed as class and
    module attribute patches; :meth:`uninstall` restores them."""

    def __init__(self, trace: bool, epoch_ns: int) -> None:
        self.tracer: Optional[Tracer] = Tracer(epoch_ns) if trace else None
        #: Finished calibrations (see :meth:`_calibration_wrapper`).
        self.calibrations: List[dict] = []
        #: One record per non-calibration simulation.
        self.sims: List[dict] = []
        #: Scheme simulations whose channel statistics the next checks
        #: corrupt (the self-test's injected conservation mismatch).
        self.inject_faults = 0
        #: perf_counter() when the campaign first submitted cells.
        self.first_submit: Optional[float] = None
        #: The program's campaign worker entry point (set by install()).
        self.cell_worker: Optional[Callable] = None
        #: Process that owns the records (differs in a forked worker).
        self.owner_pid = os.getpid()
        self._calibrating: Optional[List[Tuple[int, bool, float]]] = None
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Instrumentation":
        global _ACTIVE
        from repro.eval import campaign
        from repro.sim.gpu import GPUSimulator
        from repro.sim.runner import Runner

        tracer = self.tracer
        if tracer is not None:
            for name, module, cls, attr, coarse in LAYER_POINTS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                self._patch(owner, attr,
                            tracer.wrap(name, owner.__dict__[attr], coarse))
        self._patch(GPUSimulator, "run",
                    self._sim_wrapper(GPUSimulator.__dict__["run"]))
        self._patch(Runner, "calibration",
                    self._calibration_wrapper(Runner.__dict__["calibration"]))
        self._patch(campaign, "execute_jobs",
                    self._submit_wrapper(campaign.__dict__["execute_jobs"]))
        self.cell_worker = campaign.__dict__["_cell_worker"]
        self._patch(campaign, "_cell_worker", checked_cell_worker)
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if _ACTIVE is self:
            _ACTIVE = None

    # -- wrappers ----------------------------------------------------------

    def _sim_wrapper(self, run: Callable) -> Callable:
        inst = self
        tracer = self.tracer
        inner = tracer.wrap("gpu.run", run, True) if tracer else run

        def checked_run(sim, workload, *args, **kwargs):
            calibrating = inst._calibrating
            if tracer is not None:
                saved = tracer.begin_run(
                    f"{workload.name}/{sim.scheme.label}",
                    CTX_CALIB if calibrating is not None else CTX_SIM)
                try:
                    result = inner(sim, workload, *args, **kwargs)
                finally:
                    tracer.end_run(saved)
            else:
                result = inner(sim, workload, *args, **kwargs)
            if inst.inject_faults > 0 and calibrating is None:
                inst.inject_faults -= 1
                sim.channels[0].stats.read_bytes += 32
            check_simulation(sim, result)
            if calibrating is not None:
                # The runner passes the calibration window by keyword.
                calibrating.append((kwargs.get("max_inflight"),
                                    sim.pipeline.record_stream,
                                    result.dram_utilization))
            else:
                inst.sims.append(sim_record(sim, result))
            return result

        checked_run.__wrapped__ = run
        return checked_run

    def _calibration_wrapper(self, calibration: Callable) -> Callable:
        inst = self
        tracer = self.tracer
        inner = (tracer.wrap("runner.calibration", calibration, True)
                 if tracer else calibration)

        def recorded_calibration(runner, name):
            # Runner.calibration builds the workload first itself; doing
            # it here keeps build time out of the calibration figure.
            workload = runner.workload(name)
            sims: List[Tuple[int, bool, float]] = []
            outer = inst._calibrating
            inst._calibrating = sims
            start = time.perf_counter()
            try:
                calib = inner(runner, name)
            finally:
                inst._calibrating = outer
            if sims:
                inst.calibrations.append(calibration_record(
                    name, workload.bandwidth_utilization, calib,
                    sims, time.perf_counter() - start))
            return calib

        recorded_calibration.__wrapped__ = calibration
        return recorded_calibration

    def _submit_wrapper(self, execute_jobs: Callable) -> Callable:
        inst = self

        def timed_execute_jobs(*args, **kwargs):
            if inst.first_submit is None:
                inst.first_submit = time.perf_counter()
            return execute_jobs(*args, **kwargs)

        timed_execute_jobs.__wrapped__ = execute_jobs
        return timed_execute_jobs

    # -- worker spool --------------------------------------------------------

    def spool_state(self) -> dict:
        return {
            "calibrations": self.calibrations,
            "sims": self.sims,
            "trace": self.tracer.state() if self.tracer else None,
        }

    def merge_spool(self, spool: Path) -> None:
        """Fold every worker spool file into this instance."""
        for path in sorted(spool.glob("*.json")):
            state = json.loads(path.read_text())
            self.calibrations.extend(state["calibrations"])
            self.sims.extend(state["sims"])
            if self.tracer is not None and state["trace"] is not None:
                self.tracer.merge_state(state["trace"])


_ACTIVE: Optional[Instrumentation] = None


def check_simulation(sim, result) -> None:
    """Raise :class:`OutputCheckError` unless the run conserved bytes
    and its DRAM utilisation is at most 1."""
    booked = result.traffic.total_bytes
    served = sum(ch.stats.total_bytes for ch in sim.channels)
    if booked != served:
        raise OutputCheckError(
            f"{result.workload}/{sim.scheme.label}: TrafficCounters booked "
            f"{booked} B but the DRAM channels served {served} B")
    if not result.dram_utilization <= 1.0:
        raise OutputCheckError(
            f"{result.workload}/{sim.scheme.label}: DRAM utilisation "
            f"{result.dram_utilization!r} > 1")


def sim_record(sim, result) -> dict:
    """Simulated counts of one scheme run (identical under any change
    that only affects host speed)."""
    mdc = {"ctr": [0, 0], "mac": [0, 0], "bmt": [0, 0]}
    for mee in sim.mees:
        for kind, cache in (("ctr", mee.caches.counter),
                            ("mac", mee.caches.mac),
                            ("bmt", mee.caches.bmt)):
            mdc[kind][0] += cache.hits
            mdc[kind][1] += cache.accesses
    return {
        "run": f"{result.workload}/{sim.scheme.label}",
        "accesses": result.l2.accesses,
        "l2_misses": result.l2.misses,
        "mdc": mdc,
        "dram_utilization": result.dram_utilization,
        "data_bytes": result.traffic.data_bytes,
        "meta_bytes": result.traffic.metadata_bytes,
    }


def calibration_record(name: str, target: float, calib,
                       sims: List[Tuple[int, bool, float]],
                       seconds: float) -> dict:
    """One workload's calibration quality: achieved vs target
    utilisation, search rounds, and simulations that repeated the
    window of an earlier one (the recording run usually does)."""
    from repro.sim.runner import CALIBRATION_TOLERANCE

    achieved = calib.baseline.dram_utilization
    error = abs(achieved - target) / target if target else 0.0
    seen = set()
    repeats = 0
    for window, _, _ in sims:
        if window in seen:
            repeats += 1
        seen.add(window)
    return {
        "workload": name,
        "target": target,
        "achieved": achieved,
        "error": error,
        "in_tolerance": error <= CALIBRATION_TOLERANCE,
        "window": calib.window,
        "rounds": sum(1 for _, recording, _ in sims if not recording),
        "sims": len(sims),
        "repeat_sims": repeats,
        "seconds": seconds,
    }


def checked_cell_worker(job):
    """The campaign's pool-worker entry point under the benchmark: the
    program's own ``_cell_worker`` with this module's checks (and, when
    traced, spans) installed in the worker, whose records are spooled
    for the parent."""
    inst = _ACTIVE
    if inst is None:
        # A spawned worker starts from a fresh import.
        epoch = os.environ.get(TRACE_ENV)
        inst = Instrumentation(bool(epoch), int(epoch or 0)).install()
    pid = os.getpid()
    if inst.owner_pid != pid:
        # First cell in this worker (a forked worker inherits the
        # parent's records): start clean, with span ids in a range of
        # its own so merged ids stay unique.
        inst.owner_pid = pid
        if inst.tracer is not None:
            inst.tracer.next_id = pid * 10 ** 9
    inst.calibrations, inst.sims = [], []
    if inst.tracer is not None:
        inst.tracer.clear()
        inst.tracer.run = f"{job.workload}/{job.scheme}"
    try:
        return inst.cell_worker(job)
    finally:
        spool = os.environ.get(SPOOL_ENV)
        if spool:
            path = Path(spool) / f"{pid}-{time.perf_counter_ns()}.json"
            path.write_text(json.dumps(inst.spool_state()))
