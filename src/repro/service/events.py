"""Service-wide event bus + cross-job trace aggregation.

The observability plane of the job service (``docs/observability.md``):
a :class:`ServiceEventBus` tails the registry WAL and every job's trace
file — read-only, from a thread that exists only while someone is
subscribed — normalizes what it finds into a small vocabulary of
service events, and fans them out with monotonically increasing cursors
through :class:`repro.telemetry.stream.EventBus`:

======================  ================================================
event                   meaning / payload highlights
======================  ================================================
``job_state``           lifecycle transition from the WAL (``state``,
                        ``reason``, ``epoch``; ``snapshot: true`` for
                        the catch-up summary of jobs that predate the
                        bus)
``tune_start``          a member search opened (``scope``, ``budget``,
                        ``engine``, ``strategy``, ``resumed``)
``combo_result``        one evaluation (``seq``, ``objective``,
                        ``cost``, ``status``, ``best``, ``config_hash``)
``job_progress``        per poll batch with fresh evaluations: ``done``,
                        ``budget``, ``best``, ``eta_seconds``,
                        ``throughput`` from a headless ProgressReporter
``job_done``            terminal transition (``state`` one of done /
                        failed / cancelled / rejected, plus
                        ``best_objective`` + ``fingerprint`` on success)
======================  ================================================

Ordering is guaranteed per job: the worker closes its trace sink before
publishing its result, and the supervisor records the terminal
transition after that — so the bus, which drains a job's trace once
more before emitting ``job_done``, never announces completion with
evaluations still unstreamed.  Evaluations are deduplicated by
``(scope, seq)`` high-water mark, the same key the trace sink dedups
on, so WAL compaction or a tailer losing a rotation to retention can
never replay a ``combo_result``.

The module also hosts the *offline* half of the plane:
:func:`load_registry_records` (a read-only snapshot+WAL reader that
never repairs or appends — safe against a live single-writer registry)
and :class:`ServiceReport` (``repro report --service DIR``), which
merges every job's :class:`~repro.telemetry.report.TraceReport` into
one cross-job stage-attribution table.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..log import get_logger
from ..profiling.timers import TimingReport
from ..telemetry.progress import ProgressReporter
from ..telemetry.report import TraceReport
from ..telemetry.stream import EventBus, JsonlTailer, Subscription
from .registry import JobRecord, JobState, read_registry

__all__ = [
    "ServiceEventBus",
    "ServiceReport",
    "job_trace_path",
    "job_metrics_path",
    "load_registry_records",
]

logger = get_logger("service")

TRACE_DIRNAME = "trace"
TRACE_FILENAME = "job.trace.jsonl"
METRICS_FILENAME = "metrics.json"


def job_trace_path(workdir: str | os.PathLike) -> str:
    """The per-job JSONL trace file under a job workdir."""
    return os.path.join(os.fspath(workdir), TRACE_DIRNAME, TRACE_FILENAME)


def job_metrics_path(workdir: str | os.PathLike) -> str:
    """The per-job live metrics snapshot a worker publishes each beat."""
    return os.path.join(os.fspath(workdir), METRICS_FILENAME)


class _JobStream:
    """Tailer + headless progress model for one job's trace family."""

    __slots__ = (
        "job_id", "tailer", "progress", "pending_done", "finished",
        "_eval_seen",
    )

    def __init__(self, job_id: str, workdir: str):
        self.job_id = job_id
        self.tailer = JsonlTailer(job_trace_path(workdir))
        self.progress = ProgressReporter(render=False, interval=0.0)
        self.pending_done: dict[str, Any] | None = None
        self.finished = False
        self._eval_seen: dict[str, int] = {}

    def drain(self) -> list[dict[str, Any]]:
        """Map new trace lines to service events (dedup'd, in order)."""
        out: list[dict[str, Any]] = []
        fresh_evals = False
        for ev in self.tailer.poll():
            kind = ev.get("kind")
            if kind == "eval":
                scope = str(ev.get("scope", ""))
                seq = int(ev.get("seq", -1))
                if seq <= self._eval_seen.get(scope, -1):
                    continue  # replayed via resume/rotation loss
                self._eval_seen[scope] = seq
                fresh_evals = True
                self.progress.emit(ev)
                data = {
                    "event": "combo_result",
                    "job": self.job_id,
                    "scope": scope,
                    "seq": seq,
                    "objective": ev.get("objective"),
                    "cost": ev.get("cost"),
                    "status": ev.get("status"),
                    "best": ev.get("best"),
                }
                if "config_hash" in ev:
                    data["config_hash"] = ev["config_hash"]
                out.append(data)
                continue
            self.progress.emit(ev)
            if kind == "event" and ev.get("name") == "search_start":
                attrs = ev.get("attrs", {})
                out.append(
                    {
                        "event": "tune_start",
                        "job": self.job_id,
                        "scope": ev.get("scope"),
                        "budget": attrs.get("budget"),
                        "engine": attrs.get("engine"),
                        "strategy": attrs.get("strategy"),
                        "resumed": attrs.get("resumed", 0),
                    }
                )
        if fresh_evals:
            out.append(
                {
                    "event": "job_progress",
                    "job": self.job_id,
                    **self.progress.snapshot(),
                }
            )
        return out


class ServiceEventBus:
    """Tail the WAL + per-job traces into one cursor-ordered stream.

    Parameters
    ----------
    registry:
        The live :class:`JobRegistry` (used read-only: its current
        records seed the catch-up snapshot; afterwards only the WAL
        *file* is tailed, never the registry API, so the bus thread
        cannot contend with the supervision loop).
    jobs_dir:
        Root of the per-job workdirs (``<jobs_dir>/<job_id>/``).
    poll_interval:
        Poller cadence while subscribers are attached.
    history:
        Replay window of the underlying :class:`EventBus` — the
        ``Last-Event-ID`` resume horizon.

    **Zero overhead when unobserved** is structural: construction only
    snapshots the registry; the polling thread is started by the first
    :meth:`subscribe` and exits as soon as the last subscription
    closes.  With no subscriber there is no thread, no file handle, and
    no syscall attributable to streaming.
    """

    def __init__(
        self,
        registry,
        jobs_dir: str | os.PathLike,
        *,
        poll_interval: float = 0.05,
        history: int = 4096,
    ):
        self.registry = registry
        self.jobs_dir = os.fspath(jobs_dir)
        self.poll_interval = float(poll_interval)
        self._bus = EventBus(history=history)
        self._wal_tailer = JsonlTailer(registry.wal_path)
        self._streams: dict[str, _JobStream] = {}
        self._lock = threading.RLock()
        self._poller: threading.Thread | None = None
        self._wake = threading.Event()
        self.closed = False
        # Catch-up: jobs that predate the bus are summarized as one
        # snapshot job_state each (their full WAL history may already be
        # compacted away); the WAL is tailed only beyond the registry's
        # current seq so nothing is double-announced.
        self._wal_seq = registry.seq
        for rec in registry.jobs():
            self._pending_snapshot(rec)

    # -- wiring ----------------------------------------------------------
    def _pending_snapshot(self, rec: JobRecord) -> None:
        stream = self._ensure_stream(rec.job_id)
        self._bus.publish(
            {
                "event": "job_state",
                "job": rec.job_id,
                "state": rec.state,
                "reason": rec.reason,
                "epoch": rec.epoch,
                "snapshot": True,
            }
        )
        if rec.state in JobState.TERMINAL:
            stream.pending_done = self._done_event_from_record(rec)

    def _ensure_stream(self, job_id: str) -> _JobStream:
        stream = self._streams.get(job_id)
        if stream is None:
            stream = self._streams[job_id] = _JobStream(
                job_id, os.path.join(self.jobs_dir, job_id)
            )
        return stream

    @staticmethod
    def _done_event_from_record(rec: JobRecord) -> dict[str, Any]:
        result = rec.result or {}
        return {
            "event": "job_done",
            "job": rec.job_id,
            "state": rec.state,
            "reason": rec.reason,
            "error": rec.error,
            "best_objective": result.get("best_objective"),
            "fingerprint": result.get("fingerprint"),
        }

    @staticmethod
    def _done_event_from_wal(ev: Mapping[str, Any]) -> dict[str, Any]:
        result = ev.get("result") or {}
        return {
            "event": "job_done",
            "job": ev["job"],
            "state": ev["state"],
            "reason": ev.get("reason"),
            "error": ev.get("error"),
            "best_objective": result.get("best_objective"),
            "fingerprint": result.get("fingerprint"),
        }

    # -- polling ---------------------------------------------------------
    def poll_once(self) -> int:
        """One read-only sweep: WAL first, then every live job trace.

        Returns the number of events published.  Public so tests (and
        offline consumers) can drive the bus deterministically without
        the poller thread.
        """
        with self._lock:
            if self.closed:
                return 0
            published = 0
            for ev in self._wal_tailer.poll():
                seq = int(ev.get("seq", 0))
                if seq <= self._wal_seq:
                    continue
                self._wal_seq = seq
                kind = ev.get("event")
                if kind == "submit":
                    self._ensure_stream(str(ev.get("job")))
                    self._bus.publish(
                        {
                            "event": "job_state",
                            "job": ev.get("job"),
                            "state": ev.get("state"),
                            "kind": (ev.get("spec") or {}).get("kind"),
                            "tenant": (ev.get("spec") or {}).get("tenant"),
                        }
                    )
                    published += 1
                elif kind == "transition":
                    stream = self._ensure_stream(str(ev["job"]))
                    if ev.get("state") in JobState.TERMINAL:
                        # Published *after* the final trace drain below:
                        # job_done must follow the last combo_result.
                        stream.pending_done = self._done_event_from_wal(ev)
                    else:
                        self._bus.publish(
                            {
                                "event": "job_state",
                                "job": ev["job"],
                                "state": ev.get("state"),
                                "reason": ev.get("reason"),
                                "epoch": ev.get("epoch"),
                            }
                        )
                        published += 1
            for stream in list(self._streams.values()):
                if stream.finished:
                    continue
                for out in stream.drain():
                    self._bus.publish(out)
                    published += 1
                if stream.pending_done is not None:
                    self._bus.publish(stream.pending_done)
                    stream.pending_done = None
                    stream.finished = True
                    published += 1
            return published

    def _poll_loop(self) -> None:
        while True:
            with self._lock:
                if self.closed or self._bus.subscriber_count == 0:
                    # Structural zero-overhead: the poller dies with its
                    # audience (cleared under the lock, so a racing
                    # subscribe either keeps us alive or starts a
                    # successor).
                    self._poller = None
                    return
            try:
                self.poll_once()
            except Exception:  # pragma: no cover - keep streaming alive
                logger.exception("event bus poll failed")
            self._wake.wait(self.poll_interval)
            self._wake.clear()

    # -- public surface ---------------------------------------------------
    @property
    def poller_running(self) -> bool:
        with self._lock:
            return self._poller is not None

    @property
    def cursor(self) -> int:
        return self._bus.cursor

    @property
    def subscriber_count(self) -> int:
        return self._bus.subscriber_count

    def subscribe(
        self, *, job_id: str | None = None, after: int = 0
    ) -> Subscription:
        """Attach a consumer; replays retained events with cursor > after.

        ``job_id`` filters to one job's events.  Cursors are service-
        incarnation-local and shared across all subscribers, so a
        per-job subscription resumed via ``after`` skips exactly the
        events it already saw even though other jobs advanced the
        cursor in between.
        """
        predicate = None
        if job_id is not None:
            predicate = lambda ev: ev.get("job") == job_id  # noqa: E731
        sub = self._bus.subscribe(after=after, predicate=predicate)
        with self._lock:
            if not self.closed and self._poller is None:
                self._poller = threading.Thread(
                    target=self._poll_loop, name="repro-event-bus",
                    daemon=True,
                )
                self._poller.start()
            self._wake.set()
        return sub

    def close(self) -> None:
        """Final sweep, then stop the poller and wake every subscriber."""
        with self._lock:
            if self.closed:
                return
            poller = self._poller
        try:
            self.poll_once()
        except Exception:  # pragma: no cover - teardown best-effort
            logger.exception("event bus final poll failed")
        with self._lock:
            self.closed = True
            self._wake.set()
        if poller is not None:
            poller.join(timeout=5.0)
        self._bus.close()


# ----------------------------------------------------------------------
# Offline half: read-only registry view + cross-job aggregation


def load_registry_records(root: str | os.PathLike) -> list[JobRecord]:
    """Rebuild job records from a registry directory without writing.

    Unlike :class:`JobRegistry`, this never repairs the WAL's torn tail
    (it is simply skipped) and never appends a header — safe to run
    against a directory a live single-writer service owns, which is
    exactly what ``repro report --service`` does.
    """
    jobs, _ = read_registry(root)
    return sorted(jobs.values(), key=lambda r: r.submitted_seq)


@dataclass
class JobTraceSummary:
    """One row of the cross-job table."""

    job_id: str
    kind: str
    tenant: str
    state: str
    evaluations: int = 0
    best_objective: float | None = None
    fingerprint: str | None = None
    timing: TimingReport = field(default_factory=TimingReport)


@dataclass
class ServiceReport:
    """Cross-job aggregation over one service directory.

    ``repro report --service DIR`` builds this from the directory
    ``repro serve --registry-dir DIR`` maintains: job records from the
    registry (read-only) plus each job's trace family, merged into one
    stage-attribution table via :meth:`TimingReport.merge`.
    """

    jobs: list[JobTraceSummary] = field(default_factory=list)

    @classmethod
    def from_service_dir(cls, root: str | os.PathLike) -> "ServiceReport":
        root = os.fspath(root)
        report = cls()
        for rec in load_registry_records(os.path.join(root, "registry")):
            result = rec.result or {}
            summary = JobTraceSummary(
                job_id=rec.job_id,
                kind=rec.spec.kind,
                tenant=rec.spec.tenant,
                state=rec.state,
                best_objective=result.get("best_objective"),
                fingerprint=result.get("fingerprint"),
            )
            trace_path = job_trace_path(os.path.join(root, "jobs", rec.job_id))
            if os.path.exists(trace_path):
                trace = TraceReport.from_file(trace_path)
                summary.evaluations = len(trace.eval_events())
                summary.timing = trace.timing_report()
            report.jobs.append(summary)
        return report

    def merged_timing(self) -> TimingReport:
        merged = TimingReport()
        for job in self.jobs:
            merged = merged.merge(job.timing)
        return merged

    def format(self) -> str:
        w = max(12, max((len(j.job_id) for j in self.jobs), default=0))
        lines = [
            f"{'Job':<{w}} {'Kind':<12} {'Tenant':<10} {'State':<10} "
            f"{'Evals':>6} {'Best':>12}  Fingerprint",
            "-" * (w + 70),
        ]
        for job in self.jobs:
            best = (
                f"{job.best_objective:.6g}"
                if job.best_objective is not None
                else "-"
            )
            fp = (job.fingerprint or "-")[:12]
            lines.append(
                f"{job.job_id:<{w}} {job.kind:<12} {job.tenant:<10} "
                f"{job.state:<10} {job.evaluations:>6} {best:>12}  {fp}"
            )
        lines += [
            "",
            "cross-job stage wall-time attribution (self time per span kind)",
            "-" * 64,
            self.merged_timing().format(),
        ]
        return "\n".join(lines)
