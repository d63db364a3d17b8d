"""Regenerate the golden oracle files.

Run from the repo root after an *intentional* model change:

    PYTHONPATH=src python tests/golden/generate.py            # both files
    PYTHONPATH=src python tests/golden/generate.py extended   # one file
    PYTHONPATH=src python tests/golden/generate.py extended CELL...
                        # refresh only the named extended cells

``golden_smoke.json`` pins the lossless serialisation of every
(paper workload x Table VIII scheme) cell at smoke scale, so any
behaviour drift in the request pipeline, the scheme policies or the
DRAM schedulers shows up as a bit-level diff in CI rather than as a
silent change in the paper's numbers.

``golden_extended.json`` pins the shapes the smoke matrix does not
reach: composed suites whose ``barrier: false`` phases share a kernel
batch, kernels with zero accesses, a churning multi-tenant suite under
the victim-cache and learned schemes, an L2-thrashing victim-cache
run, and the byte streams of observed runs (metrics JSONL, Chrome
trace) and of a decision-ledger export.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict

from repro.common.types import Scheme
from repro.eval.results_io import serialize_run_result
from repro.sim.runner import Runner
from repro.workloads.suite import BENCHMARK_NAMES

SCALE = 0.05
SCHEMES = [s for s in Scheme]
OUT = Path(__file__).parent / "golden_smoke.json"
EXTENDED_OUT = Path(__file__).parent / "golden_extended.json"

#: The scheme zoo the custom-shape cells run under (no victim cache,
#: victim cache, detectors, common counters).
SHAPE_SCHEMES = ["naive", "pssm", "shm", "shm_cctr", "shm_vl2"]
CHURN_SCHEMES = ["shm", "shm_vl2", "pssm_learned", "shm_bandit"]


def generate() -> dict:
    runner = Runner(scale=SCALE)
    cells = {}
    for name in BENCHMARK_NAMES:
        t0 = time.time()
        for scheme in SCHEMES:
            result = runner.run(name, scheme)
            cells[f"{name}/{scheme.value}"] = serialize_run_result(result)
        print(f"{name}: {len(SCHEMES)} schemes in {time.time() - t0:.1f}s")
    return {
        "scale": SCALE,
        "workloads": list(BENCHMARK_NAMES),
        "schemes": [s.value for s in SCHEMES],
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# Extended cells
# ---------------------------------------------------------------------------

def composed_suite():
    """Two tenants with a mid-kernel phase marker: the second phase
    rides in the first kernel batch (``barrier=False``), the third is
    a real kernel boundary."""
    from repro.workloads.compose import Composer, step

    return (
        Composer("eq_composed", bandwidth_utilization=0.5, seed=11)
        .buffer("a", "256KB")
        .buffer("b", "128KB")
        .phase("warm", step("sequential", "a"))
        .phase("spill", step("random", "b", count=400), barrier=False)
        .phase("rescan", step("sequential", "a"),
               step("stride", "b", stride=256), compose="concat")
        .build(scale=1.0)
    )


def zero_access_workload():
    """Real kernels sandwiching an empty one (and an empty tail)."""
    from repro.workloads.base import WorkloadBuilder
    from repro.workloads.patterns import random_read, stream_read, stream_write

    builder = WorkloadBuilder("eq_zero", bandwidth_utilization=0.5, seed=3)
    buf = builder.alloc("data", 128 * 1024)
    builder.kernel("produce", stream_write(buf.address, buf.size))
    builder.kernel("sync_only", [])
    builder.kernel("consume",
                   stream_read(buf.address, buf.size)
                   + random_read(builder.rng, buf.address, buf.size, 200))
    builder.kernel("tail_empty", [])
    return builder.build()


def churn_workload():
    """The 4-tenant full-churn suite (seeded as the benchmark seeds it)."""
    from repro.workloads import compose
    from repro.workloads.multitenant import phase_churn_spec

    return compose.build_workload(phase_churn_spec(1.0, seed=9001),
                                  scale=SCALE)


def _matrix(workload, schemes, scale: float = SCALE) -> Dict[str, Any]:
    """Serialised runs of one workload (a suite name or a built
    :class:`Workload`) under each scheme."""
    runner = Runner(scale=scale)
    if isinstance(workload, str):
        name = workload
    else:
        runner.add_workload(workload)
        name = workload.name
    return {scheme: serialize_run_result(runner.run(name, scheme))
            for scheme in schemes}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observed(name: str, scheme: str, scale: float) -> Dict[str, Any]:
    """One run observed as ``repro run --trace --metrics-out`` observes
    it: digests of the metrics JSONL, of the trace bytes and of the
    trace as a sorted multiset of events (order-free)."""
    import tempfile

    from repro.obs import ChromeTracer, Observer

    observer = Observer(tracer=ChromeTracer(), window_cycles=1.0)
    runner = Runner(scale=scale, observer=observer)
    baseline = runner.baseline(name)
    observer.window_cycles = max(1.0, baseline.cycles / 100)
    result = runner.run(name, scheme)
    with tempfile.TemporaryDirectory() as tmp:
        metrics = Path(tmp) / "m.jsonl"
        trace = Path(tmp) / "t.json"
        observer.write_metrics(metrics)
        observer.write_trace(trace)
        metrics_bytes = metrics.read_bytes()
        trace_bytes = trace.read_bytes()
    events = json.loads(trace_bytes)["traceEvents"]
    multiset = "\n".join(sorted(json.dumps(e, sort_keys=True)
                                for e in events))
    return {
        "result": serialize_run_result(result),
        "metrics_sha256": _sha256(metrics_bytes),
        "trace_sha256": _sha256(trace_bytes),
        "trace_multiset_sha256": _sha256(multiset.encode()),
        "trace_events": len(events),
    }


def ledgered(name: str, scheme: str) -> Dict[str, Any]:
    """Digest of one run's canonical decision-ledger export."""
    from repro.obs.decisions import DecisionLedger

    ledger = DecisionLedger()
    result = Runner(scale=SCALE, ledger=ledger).run(name, scheme)
    text = ledger.export_text()
    return {
        "result": serialize_run_result(result),
        "export_sha256": _sha256(text.encode()),
        "rows": len(ledger.rows),
    }


#: cell name -> zero-argument producer of its pinned value.
EXTENDED_CELLS: Dict[str, Callable[[], Any]] = {
    "composed_barrier_false": lambda: _matrix(composed_suite(),
                                              SHAPE_SCHEMES),
    "zero_access_kernels": lambda: _matrix(zero_access_workload(),
                                           SHAPE_SCHEMES),
    "churn_9001": lambda: _matrix(churn_workload(), CHURN_SCHEMES),
    "lbm@0.1/shm_vl2": lambda: _matrix("lbm", ["shm_vl2"], scale=0.1),
    "observed/atax/shm": lambda: observed("atax", "shm", SCALE),
    "observed/lbm@0.1/shm_vl2": lambda: observed("lbm", "shm_vl2", 0.1),
    "ledger/atax/shm": lambda: ledgered("atax", "shm"),
    "ledger/backprop/shm_vl2": lambda: ledgered("backprop", "shm_vl2"),
    "ledger/backprop/pssm_learned": lambda: ledgered("backprop",
                                                     "pssm_learned"),
    "ledger/backprop/shm_bandit": lambda: ledgered("backprop", "shm_bandit"),
}


def generate_extended(only=None) -> dict:
    """All extended cells, or — given cell names — the committed file
    with just those cells recomputed."""
    cells = {}
    if only:
        unknown = set(only) - set(EXTENDED_CELLS)
        if unknown:
            raise SystemExit(f"unknown extended cells: {sorted(unknown)}")
        cells = json.loads(EXTENDED_OUT.read_text())["cells"]
    for name, produce in EXTENDED_CELLS.items():
        if only and name not in only:
            continue
        t0 = time.time()
        cells[name] = produce()
        print(f"{name}: {time.time() - t0:.1f}s")
    return {"scale": SCALE, "cells": cells}


def _write(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=1, sort_keys=True))
    print(f"wrote {len(document['cells'])} cells to {path}")


if __name__ == "__main__":
    which = sys.argv[1:2] or ["smoke", "extended"]
    if "smoke" in which:
        _write(OUT, generate())
    if "extended" in which:
        _write(EXTENDED_OUT, generate_extended(sys.argv[2:]))
