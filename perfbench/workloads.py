"""The benchmark's three workloads.

Each workload function sets up (outside the timed phase), then
repeats a *pass* — the unit of work a user waits for — until
``seconds`` of passes have been measured (at least one pass; another
only if it is expected to fit).  It returns a :class:`Measurement`;
``run.py`` turns that into metrics.  Every simulation goes through the checks installed by
:mod:`perfbench.spans`; a run or cell that raises or fails a check is
counted as failed, never propagated.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: suite_fullscale: the Table VII models named in the paper's
#: discussion of random/write-heavy (bfs), saturated streaming (lbm)
#: and read-only -> read-write (srad_v2, also mis-calibrated) traffic.
SUITE_MODELS = ("bfs", "lbm", "srad_v2")
SUITE_SCHEMES = ("naive", "pssm", "shm", "shm_cctr")
SUITE_SCALE = 1.0

#: campaign_cold: the figures a user reproduces first, over the whole
#: suite, cold (empty store), on a 2-worker pool.
CAMPAIGN_EXPERIMENTS = ("fig12", "fig14", "fig16")
CAMPAIGN_SCALE = 0.05
CAMPAIGN_JOBS = 2

#: tenants_observed: 4 tenants with full phase churn, run observed.
TENANT_SCHEMES = ("shm", "shm_vl2", "pssm_learned", "shm_bandit")
TENANT_SCALE = 0.3


@dataclass
class Measurement:
    """What one workload run measured (host seconds throughout)."""

    workload: str
    setup_s: float = 0.0
    #: Host seconds of each timed pass.
    pass_s: List[float] = field(default_factory=list)
    #: Host seconds of each cell: one workload's scheme sweep (see
    #: :func:`_run_matrix`), or one campaign cell's worker runtime.
    cell_s: List[float] = field(default_factory=list)
    cells_per_pass: int = 0
    #: Simulated accesses and the host seconds they took (timed runs;
    #: for the campaign, cell worker seconds).
    accesses: int = 0
    sim_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: One digest of the serialized RunResults per pass.
    digests: List[str] = field(default_factory=list)
    #: SHM overhead (1 - normalised IPC) per workload of the last pass.
    shm_overheads: List[float] = field(default_factory=list)
    #: Workload-specific extras (campaign pool accounting, last pass).
    extra: Dict[str, float] = field(default_factory=dict)
    #: How many times the set-up work (builds, calibrations) ran: once,
    #: or once per pass where every cell sets up anew (the campaign).
    setups: int = 1
    #: What was run (sizes and seed handling): records of two runs are
    #: comparable only when their configs are equal.
    config: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def digest(serialized: Sequence[dict]) -> str:
    payload = json.dumps(list(serialized), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _passes(seconds: float, one_pass: Callable[[], float]) -> None:
    """Run ``one_pass`` (returning its host seconds) until ``seconds``
    are measured; a further pass starts only if one more pass of the
    last pass's length still fits."""
    timed = 0.0
    while True:
        last = one_pass()
        timed += last
        if timed + last > seconds:
            return


def _setup(m: Measurement, runner, name: str):
    """One calibration of the set-up phase, counted as an operation."""
    m.attempted += 1
    try:
        return runner.calibration(name)
    except Exception as exc:  # a failed set-up is counted, not fatal
        m.failed += 1
        m.errors.append(f"{name}/setup: {type(exc).__name__}: {exc}")
        return None


def _run_matrix(runner, names: Sequence[str], schemes: Sequence[str],
                m: Measurement) -> float:
    """One pass over (workload x scheme) on ``runner``; returns its
    host seconds and appends the pass digest.  A cell is one workload's
    sweep over ``schemes``: what one ``repro run --workload <name>
    --scheme ...`` invocation simulates once calibrated.  Sweeps are
    long enough (~4-15 s) that their percentiles are not dominated by
    this host's second-scale speed noise, as single ~2 s runs are."""
    from repro.eval.results_io import serialize_run_result

    runner.clear_results()
    results = []
    start = time.perf_counter()
    for name in names:
        cell_start = time.perf_counter()
        for scheme in schemes:
            m.attempted += 1
            t0 = time.perf_counter()
            try:
                result = runner.run(name, scheme)
            except Exception as exc:  # a failed run is counted, not fatal
                m.failed += 1
                m.errors.append(f"{name}/{scheme}: {type(exc).__name__}: {exc}")
                continue
            m.sim_s += time.perf_counter() - t0
            m.accesses += result.l2.accesses
            results.append((name, scheme, result))
        m.cell_s.append(time.perf_counter() - cell_start)
    elapsed = time.perf_counter() - start
    serialized = [serialize_run_result(result) for _, _, result in results]
    serialized += [serialize_run_result(runner.baseline(name))
                   for name in names]
    m.digests.append(digest(serialized))
    m.shm_overheads = [result.overhead(runner.baseline(name))
                       for name, scheme, result in results if scheme == "shm"]
    m.pass_s.append(elapsed)
    return elapsed


def suite_fullscale(seed: int, seconds: float, t0: float, inst,
                    models: Sequence[str] = SUITE_MODELS,
                    scale: float = SUITE_SCALE) -> Measurement:
    """bfs, lbm and srad_v2 at full scale under four schemes on one
    unobserved Runner: the shipping path (event core, direct emission).
    The suite models use fixed generator seeds, so ``seed`` is unused."""
    from repro.sim.runner import Runner

    m = Measurement("suite_fullscale", cells_per_pass=len(models))
    m.config = {"models": list(models), "schemes": list(SUITE_SCHEMES),
                "scale": scale, "seed": "fixed per model"}
    m.notes.append(f"seed {seed} unused: suite models have fixed generator "
                   f"seeds (crc32 of the model name); scale {scale}")
    runner = Runner(scale=scale)
    for name in models:
        _setup(m, runner, name)
    m.setup_s = time.perf_counter() - t0
    _passes(seconds, lambda: _run_matrix(runner, models, SUITE_SCHEMES, m))
    return m


def tenants_observed(seed: int, seconds: float, t0: float, inst,
                     scale: float = TENANT_SCALE) -> Measurement:
    """The 4-tenant full-churn composed workload, seeded from ``seed``,
    under an Observer as ``repro run --metrics-out`` attaches one (the
    per-access legacy loop, materialised MEE emission)."""
    from repro.obs.observer import Observer
    from repro.sim.runner import Runner
    from repro.workloads import compose
    from repro.workloads.multitenant import phase_churn_spec

    m = Measurement("tenants_observed", cells_per_pass=1)
    spec = phase_churn_spec(1.0, seed=seed)
    m.config = {"schemes": list(TENANT_SCHEMES), "scale": scale,
                "seed": seed}
    m.notes.append(f"seed {seed} -> phase_churn_spec(1.0, seed={seed}); "
                   f"scale {scale}")
    runner = Runner(scale=scale, observer=Observer(window_cycles=1.0))
    workload = compose.build_workload(spec, scale=scale)
    runner.add_workload(workload)
    name = workload.name
    calib = _setup(m, runner, name)
    window = max(1.0, calib.baseline.cycles / 100) if calib else 1.0
    m.setup_s = time.perf_counter() - t0

    def one_pass() -> float:
        # A fresh observer per pass, sized as the CLI sizes it (~100
        # windows across the baseline run).
        runner.observer = Observer(window_cycles=window)
        return _run_matrix(runner, [name], TENANT_SCHEMES, m)

    _passes(seconds, one_pass)
    return m


def _campaign_digest(cells) -> str:
    """Digest of the cells' payloads in a commit-independent order (the
    cell keys fold in the code version)."""
    from repro.eval.results_io import serialize_run_result

    ordered = sorted(cells, key=lambda rec: (
        rec.job.workload, rec.job.scheme, rec.job.kind,
        json.dumps(rec.job.overrides, sort_keys=True, default=repr)))
    return digest([{
        "result": rec.result and serialize_run_result(rec.result),
        "baseline": rec.baseline and serialize_run_result(rec.baseline),
        "profile": rec.profile} for rec in ordered])


def campaign_cold(seed: int, seconds: float, t0: float, inst,
                  out_dir: Path,
                  workloads: Optional[List[str]] = None,
                  scale: float = CAMPAIGN_SCALE) -> Measurement:
    """``run_campaign`` of Figs. 12, 14 and 16 over the whole suite on
    an empty ResultStore with a 2-worker pool.  Suite workloads have
    fixed seeds, so ``seed`` is unused."""
    from repro.eval.campaign import run_campaign
    from perfbench.spans import SPOOL_ENV

    m = Measurement("campaign_cold")
    m.config = {"experiments": list(CAMPAIGN_EXPERIMENTS),
                "workloads": workloads or "suite", "scale": scale,
                "jobs": CAMPAIGN_JOBS, "seed": "fixed per workload"}
    m.notes.append(f"seed {seed} unused: suite workloads have fixed "
                   f"generator seeds; scale {scale}, {CAMPAIGN_JOBS} workers")
    spool = out_dir / f"spool-{os.getpid()}"
    store = out_dir / f"store-{os.getpid()}"
    inst.first_submit = None
    first = True

    def one_pass() -> float:
        nonlocal first
        for path in (spool, store):
            shutil.rmtree(path, ignore_errors=True)
        spool.mkdir(parents=True)
        os.environ[SPOOL_ENV] = str(spool)
        start = time.perf_counter()
        try:
            report = run_campaign(list(CAMPAIGN_EXPERIMENTS),
                                  workloads=workloads, scale=scale,
                                  jobs=CAMPAIGN_JOBS, store_dir=store)
        finally:
            end = time.perf_counter()
            _join_children()
            os.environ.pop(SPOOL_ENV, None)
        submitted = inst.first_submit or start
        if first:
            m.setup_s = submitted - t0
            first = False
        inst.first_submit = None
        inst.merge_spool(spool)
        shutil.rmtree(spool, ignore_errors=True)
        shutil.rmtree(store, ignore_errors=True)

        unique = {}
        for recs in report.records.values():
            for rec in recs:
                unique.setdefault(rec.key, rec)
        runtime_sum = 0.0
        retries = 0
        for rec in unique.values():
            m.attempted += 1
            m.cell_s.append(rec.runtime)
            runtime_sum += rec.runtime
            retries += rec.attempts - 1
            if not rec.ok:
                # Output checks ran in the worker: a violation failed
                # the cell there.
                m.failed += 1
                reason = (rec.error or "failed").strip().splitlines()[-1]
                m.errors.append(f"{rec.job.workload}/{rec.job.scheme}: "
                                f"{reason}")
            elif rec.result is not None:
                m.accesses += rec.result.l2.accesses
        m.sim_s += runtime_sum
        m.cells_per_pass = len(unique)
        m.digests.append(_campaign_digest(
            [rec for rec in unique.values() if rec.ok]))
        m.shm_overheads = [rec.result.overhead(rec.baseline)
                           for rec in report.records["fig12"]
                           if rec.ok and rec.job.scheme == "shm"]
        elapsed = end - submitted
        m.pass_s.append(elapsed)
        m.extra["cell_runtime_sum_s"] = runtime_sum
        m.extra["pool_overhead_s"] = elapsed * CAMPAIGN_JOBS - runtime_sum
        m.extra["retries"] = retries
        m.setups = len(m.pass_s)
        return elapsed

    _passes(seconds, one_pass)
    return m


def _join_children(timeout: float = 60.0) -> None:
    """Wait for the pool's worker processes (the campaign shuts its
    pool down without waiting)."""
    for child in multiprocessing.active_children():
        child.join(timeout)


WORKLOADS = {
    "suite_fullscale": suite_fullscale,
    "campaign_cold": campaign_cold,
    "tenants_observed": tenants_observed,
}
