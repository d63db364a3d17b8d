"""The campaign engine: dedup, store resume, degradation, manifests."""

import dataclasses

import pytest

from repro.common.config import SimConfig
from repro.common.types import Scheme
from repro.eval.campaign import (
    SMOKE_SPEC,
    CellRecord,
    ExperimentResult,
    ExperimentSpec,
    JobSpec,
    calibration_key,
    cell_key,
    run_campaign,
    run_cells_serial,
    run_smoke,
)
from repro.sim.runner import Runner

SCALE = 0.05


def _spec(jobs_fn, name="test-exp"):
    return ExperimentSpec(
        name=name,
        title="test experiment",
        provenance="tests only",
        jobs=jobs_fn,
        aggregate=_aggregate,
    )


def _aggregate(records):
    result = ExperimentResult("test-exp")
    for rec in records:
        label = rec.job.series or rec.job.scheme
        if rec.profile is not None:
            value = rec.profile["streaming_ratio"]
        else:
            value = rec.result.normalized_ipc(rec.baseline)
        result.series.setdefault(label, {})[rec.job.workload] = value
    return result


def _smoke_like(workloads, schemes=(Scheme.SHM,), kind="run"):
    def jobs(_workloads, config, scale):
        return [
            JobSpec(experiment="test-exp", workload=name, kind=kind,
                    scheme=scheme.value, series=scheme.value,
                    scale=scale, config=config)
            for scheme in schemes
            for name in workloads
        ]
    return jobs


class TestCellKey:
    def _job(self, **kwargs):
        defaults = dict(experiment="fig12", workload="atax",
                        scheme="shm", scale=0.1, config=SimConfig())
        defaults.update(kwargs)
        return JobSpec(**defaults)

    def test_presentation_fields_do_not_change_the_key(self):
        a = self._job(experiment="fig12", series="shm")
        b = self._job(experiment="fig16", series="victim-off")
        assert cell_key(a, "v1") == cell_key(b, "v1")

    def test_identity_fields_change_the_key(self):
        base = self._job()
        assert cell_key(base, "v1") != cell_key(
            self._job(workload="mvt"), "v1")
        assert cell_key(base, "v1") != cell_key(
            self._job(scheme="pssm"), "v1")
        assert cell_key(base, "v1") != cell_key(
            self._job(scale=0.2), "v1")
        assert cell_key(base, "v1") != cell_key(
            self._job(overrides={"mac_conflict_policy": "update_both"}),
            "v1")
        mdc = SimConfig()
        varied = dataclasses.replace(
            mdc,
            mdc=dataclasses.replace(
                mdc.mdc,
                counter=dataclasses.replace(
                    mdc.mdc.counter,
                    size_bytes=mdc.mdc.counter.size_bytes * 2),
            ),
        )
        assert cell_key(base, "v1") != cell_key(
            self._job(config=varied), "v1")

    def test_code_version_changes_the_key(self):
        job = self._job()
        assert cell_key(job, "v1") != cell_key(job, "v2")


class TestSerialEngineEquivalence:
    def test_serial_and_pool_agree(self, tmp_path):
        specs = {"test-exp": _spec(
            _smoke_like(["atax"], (Scheme.PSSM, Scheme.SHM)))}
        serial = run_campaign(["test-exp"], scale=SCALE, serial=True,
                              specs=specs)
        pooled = run_campaign(["test-exp"], scale=SCALE, jobs=2,
                              specs=specs)
        for label, series in serial.results["test-exp"].series.items():
            for name, value in series.items():
                assert (pooled.results["test-exp"].series[label][name]
                        == pytest.approx(value))


class TestStoreResume:
    def test_second_run_is_fully_cached(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["atax"]))}
        kwargs = dict(scale=SCALE, serial=True, specs=specs,
                      store_dir=tmp_path / "store")
        first = run_campaign(["test-exp"], **kwargs)
        second = run_campaign(["test-exp"], **kwargs)
        assert first.totals["executed"] == first.totals["cells"]
        assert second.totals["cached"] == second.totals["cells"]
        assert second.totals["executed"] == 0
        # Cached cells aggregate to the same numbers.
        assert (second.results["test-exp"].averages()
                == pytest.approx(first.results["test-exp"].averages()))

    def test_force_reexecutes_cached_cells(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["atax"]))}
        kwargs = dict(scale=SCALE, serial=True, specs=specs,
                      store_dir=tmp_path / "store")
        run_campaign(["test-exp"], **kwargs)
        forced = run_campaign(["test-exp"], force=True, **kwargs)
        assert forced.totals["cached"] == 0
        assert forced.totals["executed"] == forced.totals["cells"]

    def test_cells_shared_across_experiments(self, tmp_path):
        specs = {
            "exp-a": _spec(_smoke_like(["atax"]), "exp-a"),
            "exp-b": _spec(_smoke_like(["atax"]), "exp-b"),
        }
        report = run_campaign(["exp-a", "exp-b"], scale=SCALE, serial=True,
                              specs=specs)
        assert report.totals["cells"] == 1       # deduplicated ...
        assert report.totals["references"] == 2  # ... but counted twice
        assert (report.results["exp-a"].averages()
                == report.results["exp-b"].averages())

    def test_run_smoke_resumes(self, tmp_path):
        first, second = run_smoke(tmp_path / "store", jobs=1, scale=SCALE)
        assert first.totals["failed"] == 0
        assert second.totals["cached"] == second.totals["cells"]


class TestGracefulDegradation:
    def test_failed_cell_recorded_and_excluded(self, tmp_path):
        specs = {"test-exp": _spec(
            _smoke_like(["atax", "no-such-workload"]))}
        report = run_campaign(["test-exp"], scale=SCALE, serial=True,
                              specs=specs)
        assert report.totals["failed"] == 1
        (failed,) = report.failed_cells
        assert failed.job.workload == "no-such-workload"
        assert failed.error  # the traceback travelled with the record
        # The aggregate only sees the healthy cell.
        assert set(report.results["test-exp"].series["shm"]) == {"atax"}
        # The manifest reports the failure, including the error text.
        exp = report.manifest["experiments"]["test-exp"]
        assert exp["failed"] == 1
        bad = [c for c in exp["cells"] if c["status"] != "ok"]
        assert bad and bad[0]["workload"] == "no-such-workload"
        assert "error" in bad[0]

    def test_failed_cells_are_not_cached(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["no-such-workload"]))}
        kwargs = dict(scale=SCALE, serial=True, specs=specs,
                      store_dir=tmp_path / "store")
        run_campaign(["test-exp"], **kwargs)
        again = run_campaign(["test-exp"], **kwargs)
        assert again.totals["cached"] == 0  # failures are re-attempted

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="no-such-exp"):
            run_campaign(["no-such-exp"], specs={"smoke": SMOKE_SPEC})


class TestProfileCells:
    def test_profile_kind_round_trips(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["atax"], kind="profile"))}
        kwargs = dict(scale=SCALE, specs=specs,
                      store_dir=tmp_path / "store")
        first = run_campaign(["test-exp"], serial=True, **kwargs)
        cached = run_campaign(["test-exp"], jobs=1, **kwargs)
        assert cached.totals["cached"] == 1
        (rec,) = cached.records["test-exp"]
        assert 0.0 <= rec.profile["streaming_ratio"] <= 1.0
        assert (cached.results["test-exp"].averages()
                == first.results["test-exp"].averages())


class TestManifest:
    def test_shape(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["atax"]))}
        report = run_campaign(["test-exp"], scale=SCALE, serial=True,
                              specs=specs, store_dir=tmp_path / "store")
        manifest = report.manifest
        assert manifest["campaign_format"] == 1
        assert manifest["code_version"]
        assert manifest["scale"] == SCALE
        assert manifest["store"]
        exp = manifest["experiments"]["test-exp"]
        assert exp["provenance"] == "tests only"
        assert exp["averages"]["shm"] == pytest.approx(
            report.results["test-exp"].average("shm"))
        (cell,) = exp["cells"]
        assert cell["key"] and cell["status"] == "ok"
        totals = manifest["totals"]
        assert totals["cells"] == totals["ok"] == 1
        # It is a JSON document (``repro inspect`` reads it back).
        import json
        json.dumps(manifest)
        # Per-cell runtimes reached the PR-1 metrics registry.
        assert "campaign.cell_runtime_s" in manifest["metrics"]["histograms"]


class TestRegistry:
    def test_every_experiment_declares_a_consistent_matrix(self):
        from repro.eval.experiments import EXPERIMENTS

        config = SimConfig()
        for name, spec in EXPERIMENTS.items():
            assert spec.name == name
            assert spec.provenance
            jobs = spec.jobs(None, config, SCALE)
            assert jobs, f"{name} expands to an empty matrix"
            for job in jobs:
                assert isinstance(job, JobSpec)
                assert job.experiment == name
                assert job.kind in ("run", "profile")
                assert job.scale == SCALE

    def test_classic_driver_matches_campaign(self, suite_runner):
        """The refactored fig12 driver and the campaign engine are the
        same computation: same cells, same aggregate."""
        from repro.eval import experiments as exp

        classic = exp.fig12_overall_ipc(suite_runner, ["atax"])
        spec = exp.EXPERIMENTS["fig12"]
        records = run_cells_serial(
            suite_runner, spec.jobs(["atax"], suite_runner.config,
                                    suite_runner.scale))
        via_engine = spec.aggregate(records)
        for label, series in classic.series.items():
            assert via_engine.series[label] == pytest.approx(series)


class TestCellMetrics:
    """collect_metrics: worker-side observer metrics come home to the
    parent registry (they are lost under ProcessPoolExecutor today
    without state shipping)."""

    def test_pool_metrics_merged_into_parent(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        report = run_campaign(
            ["smoke"], scale=SCALE, jobs=2, store_dir=tmp_path,
            specs={"smoke": SMOKE_SPEC}, registry=registry,
            collect_metrics=True,
        )
        assert report.totals["failed"] == 0
        hist = registry.histogram("sim.demand_read_latency")
        assert hist.count > 0

    def test_serial_matches_pool(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        pool_reg, serial_reg = MetricsRegistry(), MetricsRegistry()
        run_campaign(["smoke"], scale=SCALE, jobs=2,
                     store_dir=tmp_path / "pool",
                     specs={"smoke": SMOKE_SPEC}, registry=pool_reg,
                     collect_metrics=True)
        run_campaign(["smoke"], scale=SCALE, serial=True,
                     specs={"smoke": SMOKE_SPEC}, registry=serial_reg,
                     collect_metrics=True)
        pool = pool_reg.snapshot()["histograms"]["sim.demand_read_latency"]
        serial = serial_reg.snapshot()["histograms"]["sim.demand_read_latency"]
        assert pool["count"] == serial["count"]
        assert pool["sum"] == pytest.approx(serial["sum"])

    def test_collect_metrics_excluded_from_cell_key(self):
        job = JobSpec(experiment="e", workload="atax", scheme="shm",
                      scale=SCALE, config=SimConfig())
        flagged = dataclasses.replace(job, collect_metrics=True)
        assert cell_key(job, "v1") == cell_key(flagged, "v1")

    def test_off_by_default_registry_untouched(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        run_campaign(["smoke"], scale=SCALE, jobs=2, store_dir=tmp_path,
                     specs={"smoke": SMOKE_SPEC}, registry=registry)
        assert registry.histogram("sim.demand_read_latency").count == 0


class TestCalibrationWave:
    """Campaigns calibrate once per calibration key (wave 1) and ship
    each Calibration to its cells (wave 2)."""

    def test_pool_calibrates_once_per_workload(self, tmp_path):
        from repro.obs.events import EventLog, read_events
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.validate import validate_events

        specs = {"test-exp": _spec(_smoke_like(
            ["atax", "mvt"], (Scheme.NAIVE, Scheme.PSSM, Scheme.SHM)))}
        pool_reg, serial_reg = MetricsRegistry(), MetricsRegistry()
        events = EventLog(tmp_path / "events.jsonl")
        report = run_campaign(["test-exp"], scale=SCALE, jobs=2,
                              specs=specs, registry=pool_reg,
                              collect_metrics=True, events=events)
        events.close()
        run_campaign(["test-exp"], scale=SCALE, serial=True, specs=specs,
                     registry=serial_reg, collect_metrics=True)

        assert report.totals["ok"] == 6
        rows = report.manifest["calibrations"]
        assert [row["workload"] for row in rows] == ["atax", "mvt"]
        for row in rows:
            assert row["in_tolerance"] and row["rounds"] >= 1
            assert row["achieved"] == pytest.approx(row["target"], rel=0.06)
        # Per-cell recalibration would multiply the pool's count.
        rounds = "runner.calibration_rounds"
        assert (pool_reg.counter(rounds).value
                == serial_reg.counter(rounds).value > 0)
        # One calibration_completed per key; wave 1 spools no
        # cell_started, so every started cell is a real cell.
        log = read_events(events.path)
        assert sum(r["type"] == "calibration_completed" for r in log) == 2
        started = {r["cell"] for r in log if r["type"] == "cell_started"}
        assert started == {rec.key for rec in report.records["test-exp"]}
        validate_events(events.path)

    def test_cached_cells_do_not_calibrate(self, tmp_path):
        specs = {"test-exp": _spec(_smoke_like(["atax"]))}
        kwargs = dict(scale=SCALE, jobs=2, specs=specs,
                      store_dir=tmp_path / "store")
        assert len(run_campaign(["test-exp"], **kwargs)
                   .manifest["calibrations"]) == 1
        assert run_campaign(["test-exp"], **kwargs) \
            .manifest["calibrations"] == []

    @pytest.mark.parametrize("experiment", ["fig12", "fig16"])
    def test_pool_and_serial_payloads_identical(self, experiment):
        from repro.eval.results_io import serialize_run_result

        def payloads(report):
            return {rec.key: (serialize_run_result(rec.result),
                              serialize_run_result(rec.baseline))
                    for rec in report.records[experiment]}

        kwargs = dict(workloads=["atax", "mvt"], scale=SCALE)
        pooled = run_campaign([experiment], jobs=2, **kwargs)
        serial = run_campaign([experiment], serial=True, **kwargs)
        assert pooled.totals["failed"] == serial.totals["failed"] == 0
        assert payloads(pooled) == payloads(serial)
        assert pooled.manifest["calibrations"] == [
            dict(row, runtime_s=pooled_row["runtime_s"])
            for row, pooled_row in zip(serial.manifest["calibrations"],
                                       pooled.manifest["calibrations"])]

    @pytest.mark.parametrize("serial", [True, False])
    def test_failed_calibration_fails_only_its_cells(self, serial):
        specs = {"test-exp": _spec(_smoke_like(
            ["atax", "no-such-workload"], (Scheme.PSSM, Scheme.SHM)))}
        report = run_campaign(["test-exp"], scale=SCALE, jobs=2,
                              serial=serial, specs=specs, retries=0)
        records = report.records["test-exp"]
        assert {r.job.workload for r in records if r.ok} == {"atax"}
        failed = [r for r in records if not r.ok]
        assert {r.job.workload for r in failed} == {"no-such-workload"}
        assert len(failed) == 2
        for rec in failed:
            assert rec.error.startswith("[calibration exception]")
            assert "no-such-workload" in rec.error
        assert ([row["workload"] for row in report.manifest["calibrations"]]
                == ["atax"])

    def test_calibration_keys(self):
        from repro.eval.experiments import EXPERIMENTS

        config = SimConfig()

        def keys(name, workloads):
            return [calibration_key(job) for job in
                    EXPERIMENTS[name].jobs(workloads, config, SCALE)]

        (plain,) = set(keys("fig12", ["atax"]))
        # Scheme, scheme overrides and the MDC never reach the
        # calibration: those cells share the plain one.
        assert set(keys("fig16", ["atax"])) == {plain}
        assert set(keys("ablation_mac_conflict", ["atax"])) == {plain}
        assert set(keys("ablation_mdc_size", ["atax"])) == {plain}
        # Each DRAM scheduler is its own GPU contention model; fifo is
        # the default one.
        sched = keys("ablation_dram_scheduler", ["atax"])
        assert len(set(sched)) == 3 and plain in sched
        # kmeans@<util%> variants differ from each other and kmeans.
        variants = keys("ablation_bandwidth_sensitivity", ["kmeans"])
        (kmeans,) = set(keys("fig12", ["kmeans"]))
        assert len(set(variants)) == len(variants) // 2
        assert kmeans not in variants
        assert calibration_key(JobSpec(
            experiment="e", workload="atax", scale=0.1)) != plain

    def test_serial_siblings_share_by_calibration_key(self):
        from repro.eval.campaign import _SerialEvaluator
        from repro.eval.experiments import EXPERIMENTS

        runner = Runner(scale=SCALE)
        evaluator = _SerialEvaluator(runner)
        mdc = EXPERIMENTS["ablation_mdc_size"].jobs(
            ["atax"], runner.config, SCALE)[0]
        banked = EXPERIMENTS["ablation_dram_scheduler"].jobs(
            ["atax"], runner.config, SCALE)[-1]
        assert banked.config.gpu.dram_scheduler == "banked"
        assert (evaluator._runner_for(mdc)._calibrations
                is runner._calibrations)
        assert (evaluator._runner_for(banked)._calibrations
                is not runner._calibrations)


class TestCalibrationReuse:
    """Runner._calibrate keeps the converged search round as the
    recording run and baseline."""

    def _counting(self, monkeypatch):
        import repro.sim.runner as runner_mod

        sims = []
        real = runner_mod.GPUSimulator

        class Counting(real):
            def run(self, workload, gap=0.001, max_inflight=None):
                sims.append((max_inflight, self.pipeline.record_stream))
                return super().run(workload, gap=gap,
                                   max_inflight=max_inflight)

        monkeypatch.setattr(runner_mod, "GPUSimulator", Counting)
        return sims

    def _fresh_recording(self, runner, name, window):
        from repro.sim.gpu import GPUSimulator
        from repro.sim.profiling import TraceProfile
        from repro.sim.runner import GAP_EPSILON

        recorder = GPUSimulator(
            runner.config.with_scheme(Scheme.UNPROTECTED), record_stream=True)
        baseline = recorder.run(runner.workload(name), gap=GAP_EPSILON,
                                max_inflight=window)
        detectors = runner.config.scheme.detectors
        profile = TraceProfile(region_size=detectors.readonly_region_size,
                               chunk_size=detectors.stream_chunk_size)
        return baseline, profile.ingest(recorder.streams)

    def _check_against_fresh(self, runner, name, calib):
        from repro.eval.results_io import serialize_run_result

        baseline, profile = self._fresh_recording(runner, name, calib.window)
        assert (serialize_run_result(calib.baseline)
                == serialize_run_result(baseline))
        assert vars(calib.profile) == vars(profile)

    def test_converged_round_is_the_recording(self, monkeypatch):
        runner = Runner(scale=SCALE)
        sims = self._counting(monkeypatch)
        calib = runner.calibration("atax")
        assert calib.in_tolerance
        assert len(sims) == calib.rounds
        assert all(recording for _, recording in sims)
        assert len({window for window, _ in sims}) == len(sims)
        assert sims[-1][0] == calib.window
        monkeypatch.undo()
        self._check_against_fresh(runner, "atax", calib)

    def test_exhausted_rounds_record_the_final_window(self, monkeypatch):
        import repro.sim.runner as runner_mod

        monkeypatch.setattr(runner_mod, "CALIBRATION_ROUNDS", 1)
        runner = Runner(scale=SCALE)
        sims = self._counting(monkeypatch)
        calib = runner.calibration("atax")
        assert calib.rounds == 1
        assert len(sims) == calib.rounds + 1
        assert sims[0][0] == runner_mod.INITIAL_WINDOW
        assert sims[1][0] == calib.window != runner_mod.INITIAL_WINDOW
        monkeypatch.undo()
        self._check_against_fresh(runner, "atax", calib)
