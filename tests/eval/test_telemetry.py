"""Campaign telemetry end to end: event logs, the persistent store,
fault recording (worker death, timeouts), and the dashboard view."""

import os
import time

import pytest

from repro.common.types import Scheme
from repro.eval.campaign import (
    ExperimentResult,
    ExperimentSpec,
    JobSpec,
    _cell_worker,
    campaign_id,
    run_campaign,
)
from repro.obs.dash import DashboardState, render_html, render_text
from repro.obs.events import EventLog, read_events
from repro.obs.store import TelemetryStore
from repro.obs.validate import validate_events

SCALE = 0.05

#: Worker-side crash/sleep marker (a file path). Module-level fakes
#: read it from the environment: pool children inherit it via fork.
_MARKER_VAR = "REPRO_TEST_TELEMETRY_MARKER"


def _aggregate(records):
    result = ExperimentResult("test-exp")
    for rec in records:
        if rec.profile is not None:
            value = rec.profile["streaming_ratio"]
        else:
            value = rec.result.normalized_ipc(rec.baseline)
        result.series.setdefault(rec.job.series or rec.job.scheme,
                                 {})[rec.job.workload] = value
    return result


def _spec(workloads=("atax",), kind="run"):
    def jobs(_workloads, config, scale):
        return [JobSpec(experiment="test-exp", workload=name, kind=kind,
                        scheme=Scheme.SHM.value, series=Scheme.SHM.value,
                        scale=scale, config=config)
                for name in workloads]
    return {"test-exp": ExperimentSpec(
        name="test-exp", title="t", provenance="tests only",
        jobs=jobs, aggregate=_aggregate)}


def _first_attempt(marker):
    """True exactly once per marker file (created as the side effect)."""
    if os.path.exists(marker):
        return False
    with open(marker, "w"):
        pass
    return True


def _crash_then_ok(job):
    """Pool worker fake: hard-dies (as OOM/kill would) on the first
    attempt, then answers like a profile cell."""
    if job.kind == "calibrate":
        return _cell_worker(job)  # the calibration wave runs for real
    if _first_attempt(os.environ[_MARKER_VAR]):
        os._exit(13)
    return {"profile": {"streaming_ratio": 0.5, "readonly_ratio": 0.5}}


def _sleep_then_ok(job):
    """Pool worker fake: blows the job budget on the first attempt
    (SIGALRM interrupts the sleep), then answers immediately."""
    if job.kind == "calibrate":
        return _cell_worker(job)  # the calibration wave runs for real
    if _first_attempt(os.environ[_MARKER_VAR]):
        time.sleep(30.0)
    return {"profile": {"streaming_ratio": 0.5, "readonly_ratio": 0.5}}


def _always_crash(job):
    """Pool worker fake: dies on every cell attempt."""
    if job.kind == "calibrate":
        return _cell_worker(job)  # the calibration wave runs for real
    os._exit(13)


def _calibration_crash(job):
    """Pool worker fake: every calibration attempt dies."""
    if job.kind == "calibrate":
        os._exit(13)
    return _cell_worker(job)


def _telemetry(tmp_path):
    return (EventLog(tmp_path / "events.jsonl"),
            TelemetryStore(tmp_path / "telemetry.db"))


class TestHappyPath:
    def test_serial_campaign_is_fully_recorded(self, tmp_path):
        events, store = _telemetry(tmp_path)
        report = run_campaign(["test-exp"], scale=SCALE, serial=True,
                              specs=_spec(("atax", "mvt")),
                              events=events, telemetry=store)
        events.close()

        info = validate_events(events.path)
        assert info["cells"] == 2
        assert info["types"]["campaign_started"] == 1
        assert info["types"]["cell_started"] == 2
        assert info["types"]["cell_completed"] == 2
        assert info["types"]["campaign_finished"] == 1

        # Every event carries the deterministic campaign correlation ID.
        rows = read_events(events.path)
        cid = campaign_id(["test-exp"], None, SCALE,
                          report.manifest["code_version"])
        assert report.manifest["campaign"] == cid
        assert all(r["campaign"] == cid for r in rows)

        # The store holds one row per cell reference, plus the campaign.
        assert store.cell_count() == 2
        (run,) = store.campaign_history()
        assert run["campaign"] == cid
        assert run["totals"]["cells"] == 2
        assert all(h["status"] == "ok"
                   for key in (c["key"] for c in
                               report.manifest["experiments"]["test-exp"]
                               ["cells"])
                   for h in store.cell_history(key))

    def test_pool_campaign_spools_started_events(self, tmp_path):
        events, store = _telemetry(tmp_path)
        run_campaign(["test-exp"], scale=SCALE, jobs=2,
                     specs=_spec(("atax", "mvt")),
                     events=events, telemetry=store)
        events.close()
        info = validate_events(events.path)
        assert info["types"]["cell_started"] == 2
        # Spooled rows carry the worker pid for the health table.
        started = [r for r in read_events(events.path)
                   if r["type"] == "cell_started"]
        assert all("worker" in r for r in started)
        assert not events.spool_dir.exists()  # consumed by the merge

    def test_cached_resume_emits_cell_cached(self, tmp_path):
        specs = _spec()
        kwargs = dict(scale=SCALE, serial=True, specs=specs,
                      store_dir=tmp_path / "store")
        run_campaign(["test-exp"], **kwargs)

        events, store = _telemetry(tmp_path)
        report = run_campaign(["test-exp"], events=events,
                              telemetry=store, **kwargs)
        events.close()
        assert report.totals["cached"] == 1
        info = validate_events(events.path)
        assert info["types"]["cell_cached"] == 1
        assert "cell_started" not in info["types"]
        (history,) = store.cell_history(
            report.manifest["experiments"]["test-exp"]["cells"][0]["key"])
        assert history["cached"] == 1


class TestFaultTelemetry:
    """A killed (or over-budget) worker leaves a full event trail, the
    store gets no partial row, and the dashboard shows the retry."""

    def _run_with_fake_worker(self, tmp_path, monkeypatch, fake,
                              **kwargs):
        monkeypatch.setenv(_MARKER_VAR, str(tmp_path / "marker"))
        monkeypatch.setattr("repro.eval.campaign._cell_worker", fake)
        events, store = _telemetry(tmp_path)
        report = run_campaign(["test-exp"], scale=SCALE, jobs=2,
                              retries=1, specs=_spec(kind="profile"),
                              events=events, telemetry=store, **kwargs)
        events.close()
        return report, events, store

    def test_worker_death_recorded_and_retried(self, tmp_path,
                                               monkeypatch):
        report, events, store = self._run_with_fake_worker(
            tmp_path, monkeypatch, _crash_then_ok)
        assert report.totals["failed"] == 0
        (rec,) = report.records["test-exp"]
        assert rec.attempts == 2

        info = validate_events(events.path)  # log is still schema-valid
        assert info["types"]["worker_died"] == 1
        assert info["types"]["cell_retry"] == 1
        retry = next(r for r in read_events(events.path)
                     if r["type"] == "cell_retry")
        assert retry["reason"] == "worker_died"
        assert retry["cell"] == rec.key
        done = next(r for r in read_events(events.path)
                    if r["type"] == "cell_completed")
        assert done["attempts"] == 2

        # No partial store row: the parent records the finished
        # campaign only, so the crash leaves exactly the final state.
        assert store.cell_count() == 1
        (row,) = store.cell_history(rec.key)
        assert row["status"] == "ok"
        assert row["attempts"] == 2

        # The dashboard's final render reflects the recovery.
        state = DashboardState.from_events(read_events(events.path))
        assert state.deaths == 1 and state.retries == 1
        frame = render_text(state, now=state.last_ts)
        assert "retries 1 (deaths 1, timeouts 0)" in frame
        html = render_html(state, store=store, now=state.last_ts)
        assert "&#10003; all ok" in html
        assert ">1<" in html  # the retries stat tile

    def test_timeout_recorded_and_retried(self, tmp_path, monkeypatch):
        report, events, store = self._run_with_fake_worker(
            tmp_path, monkeypatch, _sleep_then_ok, timeout=0.5)
        assert report.totals["failed"] == 0
        (rec,) = report.records["test-exp"]
        assert rec.attempts == 2

        info = validate_events(events.path)
        assert info["types"]["cell_timeout"] == 1
        assert info["types"]["cell_retry"] == 1
        retry = next(r for r in read_events(events.path)
                     if r["type"] == "cell_retry")
        assert retry["reason"] == "timeout"
        assert store.cell_count() == 1
        (row,) = store.cell_history(rec.key)
        assert row["status"] == "ok" and row["attempts"] == 2

    def test_exhausted_retries_leave_cell_failed_trail(self, tmp_path,
                                                       monkeypatch):
        """Both attempts die: the log ends in cell_failed (so the
        validator's every-started-cell-terminates invariant holds) and
        the store row says failed, attempts=2."""
        monkeypatch.setattr("repro.eval.campaign._cell_worker",
                            _always_crash)
        events, store = _telemetry(tmp_path)
        report = run_campaign(["test-exp"], scale=SCALE, jobs=2,
                              retries=1, specs=_spec(kind="profile"),
                              events=events, telemetry=store)
        events.close()
        assert report.totals["failed"] == 1

        info = validate_events(events.path)
        assert info["types"]["worker_died"] == 2  # one per attempt
        assert info["types"]["cell_failed"] == 1
        failed = next(r for r in read_events(events.path)
                      if r["type"] == "cell_failed")
        assert failed["reason"] == "worker_died"
        assert failed["attempts"] == 2
        (rec,) = report.records["test-exp"]
        (row,) = store.cell_history(rec.key)
        assert row["status"] == "failed" and row["attempts"] == 2

        html = render_html(DashboardState.from_events(
            read_events(events.path)))
        assert "&#10007; 1 failed" in html


    def test_dead_calibration_fails_its_cells(self, tmp_path,
                                              monkeypatch):
        """A calibration worker that dies on every attempt fails the
        cells depending on it, which never start (wave 1 spools no
        cell_started, so no cell dangles)."""
        monkeypatch.setattr("repro.eval.campaign._cell_worker",
                            _calibration_crash)
        events, store = _telemetry(tmp_path)
        report = run_campaign(["test-exp"], scale=SCALE, jobs=2,
                              retries=1, specs=_spec(kind="profile"),
                              events=events, telemetry=store)
        events.close()
        (rec,) = report.records["test-exp"]
        assert not rec.ok and rec.attempts == 2
        assert rec.error.startswith("[calibration worker_died]")
        assert report.manifest["calibrations"] == []

        info = validate_events(events.path)
        assert info["types"]["cell_failed"] == 1
        assert "cell_started" not in info["types"]
        assert "calibration_completed" not in info["types"]


class TestNoTelemetryByDefault:
    def test_manifest_carries_campaign_id_without_event_log(self,
                                                            tmp_path):
        report = run_campaign(["test-exp"], scale=SCALE, serial=True,
                              specs=_spec())
        assert report.manifest["campaign"] == campaign_id(
            ["test-exp"], None, SCALE, report.manifest["code_version"])

    def test_event_log_open_is_lazy(self, tmp_path):
        log = EventLog(tmp_path / "never" / "events.jsonl")
        # Constructing (and closing) an unused log touches no files.
        log.close()
        assert not (tmp_path / "never").exists()
