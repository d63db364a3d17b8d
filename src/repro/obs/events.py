"""The structured campaign event log: typed, append-only, crash-safe.

Single runs got deep observability in PR 1 (metrics, traces); this
module gives the *fleet* layer — the campaign engine and its worker
pool — an auditable record.  Every notable state change lands as one
JSON line in an append-only **event log**:

* a fixed **taxonomy** of event types (:data:`EVENT_TYPES`), each with
  its required payload fields, enforced by :class:`EventLog` at emit
  time and by :func:`repro.obs.validate.validate_events` after the
  fact;
* an **envelope** common to every event — monotonic ``seq``, wall
  ``ts``, ``type``, and correlation IDs (``campaign``, ``cell``,
  ``worker``) — so one ``grep``/filter reconstructs any cell's or
  worker's life;
* **worker spools**: pool workers cannot append to the parent's log
  (interleaved writes from dying processes would corrupt it), so each
  worker appends to its own spool file (:func:`spool_event`), flushed
  per line; the parent merges the spools with :func:`merge_spool`,
  which tolerates the truncated trailing line a killed worker leaves
  behind — crash telemetry must survive the crash it is reporting;
* a **canonical export** (:func:`canonical_events` /
  :func:`write_canonical`): the same campaign replayed serially or on
  a pool, under any ``PYTHONHASHSEED``, canonicalises to byte-identical
  output — volatile fields (timestamps, worker IDs, runtimes) are
  stripped and events are re-ordered by their deterministic identity,
  which is what makes event logs diffable across runs and machines.

The log is plain JSONL: one ``json.loads`` per line, no trailing
commas, no framing, so a partially written log is readable up to its
last complete line.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, IO, List, Optional, Sequence, Union

#: Event-log schema version (validate/inspect key off this).
EVENTS_FORMAT = 1

#: The taxonomy: event type -> payload fields required beyond the
#: envelope.  ``cell`` correlation is required for every ``cell_*`` and
#: worker event; campaign-scope events carry only the campaign ID.
EVENT_TYPES: Dict[str, tuple] = {
    # campaign scope
    "campaign_started": ("experiments", "cells", "scale", "code_version"),
    "campaign_finished": ("totals",),
    # one per calibration a campaign computes (its quality vs Table VII)
    "calibration_completed": ("key", "workload", "window", "target",
                              "achieved", "error", "in_tolerance",
                              "rounds"),
    # cell lifecycle
    "cell_cached": ("workload", "scheme"),
    "cell_started": (),
    "cell_completed": ("workload", "scheme", "attempts"),
    "cell_failed": ("workload", "scheme", "reason", "attempts"),
    # decision provenance (per executed cell, --cell-decisions)
    "cell_decisions": ("workload", "scheme", "summary"),
    # fault telemetry (one event per affected attempt)
    "cell_retry": ("attempt", "reason"),
    "worker_died": ("attempt",),
    "cell_timeout": ("attempt",),
    # host-performance telemetry (repro bench)
    "bench_recorded": ("git_rev", "benchmarks"),
    "regression_flagged": ("benchmark", "old_median", "new_median", "ratio"),
}

#: Types whose ``cell`` correlation ID must be set.
CELL_SCOPED = frozenset(t for t in EVENT_TYPES if t.startswith("cell_")
                        or t == "worker_died")

#: Envelope/payload fields stripped by the canonical export: anything
#: that varies run-to-run for the *same* campaign (wall clock, worker
#: identity, host runtimes, pool width).  ``seq`` is re-assigned after
#: the deterministic re-ordering.
VOLATILE_FIELDS = ("ts", "seq", "worker", "runtime", "elapsed_seconds",
                   "workers", "eta_seconds")

#: Lifecycle rank used by the canonical ordering: within one cell,
#: events sort start -> faults -> terminal, regardless of the wall
#: order they were observed in.
_TYPE_RANK = {
    "campaign_started": 0,
    "calibration_completed": 1,
    "cell_cached": 1,
    "cell_started": 1,
    "worker_died": 2,
    "cell_timeout": 3,
    "cell_retry": 4,
    "cell_completed": 5,
    "cell_decisions": 5,
    "cell_failed": 5,
    "bench_recorded": 6,
    "regression_flagged": 7,
    "campaign_finished": 8,
}


class EventSchemaError(ValueError):
    """An event violates the taxonomy (unknown type / missing field)."""


def _check(event_type: str, fields: Dict[str, Any],
           cell: Optional[str]) -> None:
    required = EVENT_TYPES.get(event_type)
    if required is None:
        raise EventSchemaError(
            f"unknown event type {event_type!r}; known: "
            f"{', '.join(sorted(EVENT_TYPES))}"
        )
    missing = [name for name in required if name not in fields]
    if missing:
        raise EventSchemaError(
            f"{event_type}: missing required field(s) {', '.join(missing)}"
        )
    if event_type in CELL_SCOPED and not cell:
        raise EventSchemaError(f"{event_type}: cell correlation ID required")


def encode_event(row: dict) -> str:
    """One event as its canonical JSON line (sorted keys, compact)."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


class EventLog:
    """Append-only JSONL event writer with monotonic sequence numbers.

    Opened lazily on first emit; every line is flushed so the log is
    live-tailable (``repro dash``) and loses at most the event being
    written when the process dies.  Not safe for concurrent writers —
    pool workers use :func:`spool_event` and the parent merges.
    """

    def __init__(self, path: Union[str, Path],
                 campaign: Optional[str] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.path = Path(path)
        self.campaign = campaign
        self.seq = 0
        self._clock = clock
        self._handle: Optional[IO[str]] = None

    @property
    def spool_dir(self) -> Path:
        """Where this log's pool workers spool their events
        (``<log>.spool/`` next to the log file)."""
        return self.path.with_name(self.path.name + ".spool")

    def _ensure_open(self) -> IO[str]:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Appending to an existing log (a resumed campaign reusing
            # its --telemetry dir) must continue its sequence, not
            # restart at 0 — monotonic seq is a validated invariant of
            # the whole file, not of one writer's lifetime.
            if self.seq == 0 and self.path.exists():
                for row in read_events(self.path, strict=False):
                    if isinstance(row.get("seq"), int):
                        self.seq = max(self.seq, row["seq"] + 1)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def emit(self, event_type: str, cell: Optional[str] = None,
             worker: Optional[Union[int, str]] = None,
             ts: Optional[float] = None, **fields: Any) -> dict:
        """Validate, stamp and append one event; returns the row."""
        _check(event_type, fields, cell)
        handle = self._ensure_open()  # may fast-forward seq (resume)
        row: Dict[str, Any] = {
            "seq": self.seq,
            "ts": self._clock() if ts is None else ts,
            "type": event_type,
            "campaign": self.campaign,
        }
        if cell is not None:
            row["cell"] = cell
        if worker is not None:
            row["worker"] = worker
        row.update(fields)
        handle.write(encode_event(row) + "\n")
        handle.flush()
        self.seq += 1
        return row

    def append_row(self, row: dict) -> dict:
        """Append a pre-built row (a merged spool event), re-stamping
        its ``seq`` so the log's sequence stays monotonic."""
        handle = self._ensure_open()  # may fast-forward seq (resume)
        row = dict(row)
        row["seq"] = self.seq
        row.setdefault("campaign", self.campaign)
        handle.write(encode_event(row) + "\n")
        handle.flush()
        self.seq += 1
        return row

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_events(path: Union[str, Path],
                strict: bool = True) -> List[dict]:
    """Load an event log.  ``strict=False`` skips unparseable lines
    (a live log's in-flight last line, a crashed writer's torn tail)
    instead of raising."""
    rows: List[dict] = []
    for line_no, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            if strict:
                raise EventSchemaError(f"{path}:{line_no}: bad JSON line")
    return rows


# ---------------------------------------------------------------------------
# Worker spools (pool workers cannot share the parent's file handle)
# ---------------------------------------------------------------------------

def spool_event(spool_dir: Union[str, Path], event_type: str,
                cell: Optional[str] = None, **fields: Any) -> None:
    """Append one event to this process's private spool file.

    Opened per call in append mode and flushed by close, so the worst a
    killed worker leaves behind is one truncated final line — which
    :func:`merge_spool` skips.  Sequence numbers are assigned at merge
    time; the spool row carries only (ts, type, cell, worker, payload).
    """
    _check(event_type, fields, cell)
    spool = Path(spool_dir)
    spool.mkdir(parents=True, exist_ok=True)
    row: Dict[str, Any] = {"ts": time.time(), "type": event_type,
                           "worker": os.getpid()}
    if cell is not None:
        row["cell"] = cell
    row.update(fields)
    with open(spool / f"worker-{os.getpid()}.jsonl", "a",
              encoding="utf-8") as handle:
        handle.write(encode_event(row) + "\n")


def merge_spool(log: EventLog,
                spool_dir: Optional[Union[str, Path]] = None) -> int:
    """Fold every worker spool file into ``log`` and remove the spools.

    Crash-safe: unparseable lines (a worker died mid-write) are
    dropped, never fatal.  Rows are merged in (ts, worker) order so the
    merged log approximates wall order; returns the merged row count.
    """
    spool = Path(spool_dir) if spool_dir is not None else log.spool_dir
    if not spool.exists():
        return 0
    rows: List[dict] = []
    for part in sorted(spool.glob("worker-*.jsonl")):
        rows.extend(read_events(part, strict=False))
    rows.sort(key=lambda r: (r.get("ts", 0.0), str(r.get("worker", ""))))
    for row in rows:
        log.append_row(row)
    for part in sorted(spool.glob("worker-*.jsonl")):
        try:
            part.unlink()
        except OSError:
            pass
    try:
        spool.rmdir()
    except OSError:
        pass
    return len(rows)


# ---------------------------------------------------------------------------
# Canonical (deterministic) export
# ---------------------------------------------------------------------------

def canonical_events(rows: Sequence[dict]) -> List[dict]:
    """The deterministic view of an event log.

    Strips :data:`VOLATILE_FIELDS`, then orders events by their
    identity — lifecycle rank within campaign scope, then cell ID, then
    the canonical JSON of what remains — and re-assigns ``seq``.  Two
    logs of the same campaign (serial vs. pool, any hash seed) export
    byte-identically; the determinism suite enforces this.
    """
    cleaned = []
    for row in rows:
        kept = {k: v for k, v in row.items() if k not in VOLATILE_FIELDS}
        cleaned.append(kept)
    cleaned.sort(key=lambda r: (
        _TYPE_RANK.get(r.get("type", ""), 9),
        str(r.get("cell", "")),
        encode_event(r),
    ))
    for seq, row in enumerate(cleaned):
        row["seq"] = seq
    return cleaned


def write_canonical(rows: Sequence[dict], path: Union[str, Path]) -> int:
    """Write the canonical export as JSONL; returns the row count."""
    canonical = canonical_events(rows)
    Path(path).write_text(
        "".join(encode_event(row) + "\n" for row in canonical),
        encoding="utf-8",
    )
    return len(canonical)
