"""Write-ahead job registry: crash-safe job state, one JSONL line at a time.

Every job state transition is appended to a write-ahead log *before* the
in-memory state changes are considered durable, in the same JSONL idiom
as the evaluation checkpoints: a header line, then one self-contained
JSON object per event, each carrying a monotonically increasing ``seq``.
Recovery is therefore the same story as everywhere else in the package —
:func:`repro.bo.history.repair_torn_tail` drops a torn final line, the
snapshot (if any) seeds the state, and WAL events with ``seq`` greater
than the snapshot's are replayed on top.

Compaction writes an atomic snapshot (tmp + fsync + rename) of the full
state *first*, then atomically replaces the WAL with a fresh
header-only file.  A crash between the two steps is safe: replay skips
WAL events already covered by the snapshot's ``seq``.

The legal state machine::

    submitted ──► queued ──► leased ──► running ──► done
        │            │  ▲        │  │        │
        │            │  └────────┴──┼────────┤  (requeue: lease expired,
        ▼            ▼              ▼        ▼   worker lost, drain)
    rejected     cancelled       failed   cancelled

``done``, ``failed``, ``cancelled`` and ``rejected`` are terminal.
Every lease and every requeue bumps the job's **epoch** — the fencing
token (:mod:`repro.service.jobs`) that keeps zombie workers from
publishing into a successor's lease.
"""

from __future__ import annotations

import bisect
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..bo.history import repair_torn_tail
from ..log import get_logger
from ..telemetry.sinks import FSYNC_POLICIES
from .jobs import JobSpec

__all__ = [
    "JobState",
    "JobRecord",
    "JobRegistry",
    "RegistryError",
    "IllegalTransition",
    "replay_wal_event",
]

logger = get_logger("service")

WAL_HEADER = "repro-job-registry"
WAL_VERSION = 1
WAL_NAME = "registry.wal.jsonl"
SNAPSHOT_NAME = "registry.snapshot.json"


class RegistryError(RuntimeError):
    """Corrupt registry files or misuse of the registry API."""


class IllegalTransition(RegistryError):
    """A requested state transition is not in the legal state machine."""


class JobState:
    """Job lifecycle states (plain strings, JSONL-friendly)."""

    SUBMITTED = "submitted"
    QUEUED = "queued"
    LEASED = "leased"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    REJECTED = "rejected"

    ALL = (SUBMITTED, QUEUED, LEASED, RUNNING, DONE, FAILED, CANCELLED, REJECTED)
    TERMINAL = frozenset({DONE, FAILED, CANCELLED, REJECTED})
    ACTIVE = frozenset({QUEUED, LEASED, RUNNING})


def replay_wal_event(
    jobs: dict[str, "JobRecord"], event: Mapping[str, Any]
) -> None:
    """Replay one WAL event onto a job table (pure assignment —
    epoch/attempt arithmetic happened when the event was written).

    Shared by :class:`JobRegistry` recovery and the read-only registry
    views in :mod:`repro.service.events` (the event bus and the
    cross-job report never open the WAL for writing).
    """
    kind = event["event"]
    if kind == "submit":
        spec = JobSpec.from_dict(event["spec"])
        jobs[spec.job_id] = JobRecord(
            spec=spec,
            state=event["state"],
            submitted_seq=int(event["seq"]),
            seq=int(event["seq"]),
        )
        return
    if kind == "transition":
        rec = jobs.get(event["job"])
        if rec is None:
            raise RegistryError(
                f"WAL transition for unknown job {event['job']!r}"
            )
        rec.state = event["state"]
        rec.epoch = int(event["epoch"])
        rec.attempt = int(event["attempt"])
        rec.owner = event.get("owner")
        rec.reason = event.get("reason")
        if event.get("result") is not None:
            rec.result = event["result"]
        if event.get("error") is not None:
            rec.error = event["error"]
        rec.seq = int(event["seq"])
        return
    raise RegistryError(f"unknown WAL event kind {kind!r}")


_LEGAL: dict[str, frozenset[str]] = {
    JobState.SUBMITTED: frozenset(
        {JobState.QUEUED, JobState.REJECTED, JobState.CANCELLED}
    ),
    JobState.QUEUED: frozenset(
        {JobState.LEASED, JobState.CANCELLED, JobState.FAILED}
    ),
    JobState.LEASED: frozenset(
        {JobState.RUNNING, JobState.QUEUED, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.QUEUED, JobState.CANCELLED}
    ),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
    JobState.REJECTED: frozenset(),
}


@dataclass
class JobRecord:
    """Current state of one job, rebuilt from snapshot + WAL replay."""

    spec: JobSpec
    state: str = JobState.SUBMITTED
    epoch: int = 0
    attempt: int = 0
    owner: str | None = None
    reason: str | None = None
    result: dict[str, Any] | None = None
    error: str | None = None
    submitted_seq: int = 0
    seq: int = 0

    @property
    def job_id(self) -> str:
        assert self.spec.job_id is not None
        return self.spec.job_id

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "state": self.state,
            "epoch": self.epoch,
            "attempt": self.attempt,
            "owner": self.owner,
            "reason": self.reason,
            "result": self.result,
            "error": self.error,
            "submitted_seq": self.submitted_seq,
            "seq": self.seq,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        return cls(
            spec=JobSpec.from_dict(data["spec"]),
            state=data["state"],
            epoch=int(data["epoch"]),
            attempt=int(data["attempt"]),
            owner=data.get("owner"),
            reason=data.get("reason"),
            result=data.get("result"),
            error=data.get("error"),
            submitted_seq=int(data.get("submitted_seq", 0)),
            seq=int(data.get("seq", 0)),
        )


class JobRegistry:
    """Single-writer, crash-recoverable job table backed by a WAL.

    Parameters
    ----------
    root:
        Directory holding ``registry.wal.jsonl`` and (after compaction)
        ``registry.snapshot.json``.  Created if missing.
    fsync:
        Durability policy from :data:`repro.telemetry.sinks.FSYNC_POLICIES`.
        The default ``"always"`` fsyncs every appended event — a job
        transition acknowledged to a tenant survives power loss, which is
        the contract a job *service* owes that a best-effort trace sink
        does not.

    Thread-safe (one re-entrant lock around state + WAL); multi-process
    single-writer — exactly one supervisor owns the registry directory.
    """

    def __init__(self, root: str | os.PathLike, *, fsync: str = "always"):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.root = os.fspath(root)
        self.fsync = fsync
        self.wal_path = os.path.join(self.root, WAL_NAME)
        self.snapshot_path = os.path.join(self.root, SNAPSHOT_NAME)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.RLock()
        self._jobs: dict[str, JobRecord] = {}
        # Query indexes, kept in step with every record's state by
        # _set_state and rebuilt after recovery: the FIFO queue as sorted
        # ``(submitted_seq, job_id)`` pairs, and active-job counts per
        # state and per tenant.  They make the supervisor's per-tick and
        # admission queries independent of how many jobs ever ran.
        self._queue: list[tuple[int, str]] = []
        self._active_by_state: dict[str, int] = {}
        self._active_by_tenant: dict[str, int] = {}
        self._seq = 0
        self._recovered_torn_tail = False
        self._recover()
        for rec in self._jobs.values():
            self._index(rec, 1)
        self._wal = open(self.wal_path, "a")
        if self._wal.tell() == 0:
            self._append_raw(
                {"format": WAL_HEADER, "version": WAL_VERSION, "event": "header"}
            )

    # -- recovery ------------------------------------------------------
    def _recover(self) -> None:
        snapshot_seq = 0
        if os.path.exists(self.snapshot_path):
            try:
                with open(self.snapshot_path) as f:
                    snap = json.load(f)
            except (OSError, ValueError) as exc:
                raise RegistryError(
                    f"corrupt registry snapshot {self.snapshot_path}: {exc}"
                ) from exc
            snapshot_seq = int(snap.get("seq", 0))
            for data in snap.get("jobs", ()):
                rec = JobRecord.from_dict(data)
                self._jobs[rec.job_id] = rec
        self._seq = snapshot_seq
        if not os.path.exists(self.wal_path):
            return
        self._recovered_torn_tail = repair_torn_tail(self.wal_path)
        with open(self.wal_path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise RegistryError(
                        f"corrupt registry WAL {self.wal_path}:{lineno}: {exc}"
                    ) from exc
                if event.get("event") == "header":
                    continue
                seq = int(event["seq"])
                if seq <= snapshot_seq:
                    continue  # already folded into the snapshot
                self._apply(event)
                self._seq = max(self._seq, seq)

    def _apply(self, event: Mapping[str, Any]) -> None:
        replay_wal_event(self._jobs, event)

    # -- query indexes -------------------------------------------------
    def _index(self, rec: JobRecord, sign: int) -> None:
        """Add (``sign=1``) or remove (``sign=-1``) ``rec`` under its
        current state in the query indexes."""
        if rec.state == JobState.QUEUED:
            entry = (rec.submitted_seq, rec.job_id)
            if sign > 0:
                bisect.insort(self._queue, entry)
            else:
                del self._queue[bisect.bisect_left(self._queue, entry)]
        if rec.state in JobState.ACTIVE:
            for counts, key in (
                (self._active_by_state, rec.state),
                (self._active_by_tenant, rec.spec.tenant),
            ):
                n = counts.get(key, 0) + sign
                if n:
                    counts[key] = n
                else:
                    del counts[key]

    def _set_state(self, rec: JobRecord, state: str) -> None:
        """The single state-change point of a live registry (replay
        assigns states directly and the indexes are rebuilt after it)."""
        self._index(rec, -1)
        rec.state = state
        self._index(rec, 1)

    @property
    def recovered_torn_tail(self) -> bool:
        """Whether recovery had to drop a torn final WAL line."""
        return self._recovered_torn_tail

    # -- WAL append ----------------------------------------------------
    def _append_raw(self, event: Mapping[str, Any]) -> None:
        self._wal.write(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self._wal.flush()
        if self.fsync == "always":
            os.fsync(self._wal.fileno())

    def _append(self, event: dict[str, Any]) -> int:
        self._seq += 1
        event["seq"] = self._seq
        self._append_raw(event)
        return self._seq

    # -- public API ----------------------------------------------------
    @property
    def seq(self) -> int:
        return self._seq

    def submit(
        self, spec: JobSpec, *, reject_reason: str | None = None
    ) -> JobRecord:
        """Register a job.  Admitted jobs go ``submitted -> queued``;
        rejections are recorded explicitly (``submitted -> rejected``)
        with the shed reason — never silently dropped."""
        with self._lock:
            if spec.job_id is None:
                spec = JobSpec(
                    kind=spec.kind,
                    job_id=f"job-{self._seq + 1:06d}",
                    tenant=spec.tenant,
                    params=spec.params,
                )
            if spec.job_id in self._jobs:
                raise RegistryError(f"duplicate job id {spec.job_id!r}")
            seq = self._append(
                {
                    "event": "submit",
                    "job": spec.job_id,
                    "spec": spec.to_dict(),
                    "state": JobState.SUBMITTED,
                }
            )
            rec = JobRecord(spec=spec, submitted_seq=seq, seq=seq)
            self._jobs[spec.job_id] = rec
            if reject_reason is not None:
                return self.transition(
                    spec.job_id, JobState.REJECTED, reason=reject_reason
                )
            return self.transition(spec.job_id, JobState.QUEUED)

    def transition(
        self,
        job_id: str,
        state: str,
        *,
        reason: str | None = None,
        owner: str | None = None,
        result: dict[str, Any] | None = None,
        error: str | None = None,
        bump_epoch: bool = False,
        bump_attempt: bool = False,
    ) -> JobRecord:
        """Apply one legal transition, WAL-first."""
        if state not in JobState.ALL:
            raise IllegalTransition(f"unknown state {state!r}")
        with self._lock:
            rec = self.get(job_id)
            if state not in _LEGAL[rec.state]:
                raise IllegalTransition(
                    f"{job_id}: illegal transition {rec.state} -> {state}"
                )
            epoch = rec.epoch + 1 if bump_epoch else rec.epoch
            attempt = rec.attempt + 1 if bump_attempt else rec.attempt
            seq = self._append(
                {
                    "event": "transition",
                    "job": job_id,
                    "state": state,
                    "epoch": epoch,
                    "attempt": attempt,
                    "owner": owner,
                    "reason": reason,
                    "result": result,
                    "error": error,
                }
            )
            self._set_state(rec, state)
            rec.epoch = epoch
            rec.attempt = attempt
            rec.owner = owner
            rec.reason = reason
            if result is not None:
                rec.result = result
            if error is not None:
                rec.error = error
            rec.seq = seq
            return rec

    def lease(self, job_id: str, owner: str) -> JobRecord:
        """``queued -> leased``, bumping the fencing epoch and attempt."""
        return self.transition(
            job_id,
            JobState.LEASED,
            owner=owner,
            bump_epoch=True,
            bump_attempt=True,
        )

    def requeue(self, job_id: str, reason: str) -> JobRecord:
        """Return a leased/running job to the queue, bumping the epoch so
        any straggler holding the old lease is fenced immediately."""
        return self.transition(
            job_id, JobState.QUEUED, reason=reason, bump_epoch=True
        )

    def recover_orphans(self) -> list[JobRecord]:
        """Requeue jobs a dead supervisor left leased/running.

        Called once at supervisor startup, before any leasing: whatever
        was in flight when the previous process died resumes from its
        checkpoints under a new (fenced) epoch.
        """
        with self._lock:
            orphans = [
                rec
                for rec in self._jobs.values()
                if rec.state in (JobState.LEASED, JobState.RUNNING)
            ]
            return [self.requeue(rec.job_id, "orphaned") for rec in orphans]

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._jobs

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self.jobs())

    def jobs(self) -> list[JobRecord]:
        """All records, submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda r: r.submitted_seq)

    def queued(self) -> list[JobRecord]:
        """FIFO queue: queued jobs, oldest submission first."""
        with self._lock:
            return [self._jobs[job_id] for _, job_id in self._queue]

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def active_count(self, tenant: str | None = None) -> int:
        """Jobs occupying service capacity (queued/leased/running)."""
        with self._lock:
            if tenant is None:
                return sum(self._active_by_state.values())
            return self._active_by_tenant.get(tenant, 0)

    # -- compaction / shutdown -----------------------------------------
    def compact(self) -> None:
        """Fold the WAL into an atomic snapshot and truncate the log.

        Ordering is crash-safe: snapshot (tmp + fsync + rename) first,
        then the WAL is atomically replaced by a header-only file.  A
        crash in between leaves snapshot + stale WAL, and replay skips
        events with ``seq`` at or below the snapshot's.
        """
        with self._lock:
            self._wal.flush()
            if self.fsync in ("always", "rotate"):
                os.fsync(self._wal.fileno())
            snap = {
                "format": WAL_HEADER,
                "version": WAL_VERSION,
                "seq": self._seq,
                "jobs": [rec.to_dict() for rec in self.jobs()],
            }
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    json.dump(snap, f, sort_keys=True)
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, self.snapshot_path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            self._wal.close()
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as f:
                    f.write(
                        json.dumps(
                            {
                                "format": WAL_HEADER,
                                "version": WAL_VERSION,
                                "event": "header",
                            },
                            sort_keys=True,
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, self.wal_path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            self._wal = open(self.wal_path, "a")
            logger.info(
                "compacted job registry %s at seq %d (%d jobs)",
                self.root, self._seq, len(self._jobs),
            )

    def close(self) -> None:
        """Flush, fsync, and close the WAL.  Idempotent."""
        with self._lock:
            wal = self._wal
            if wal is None:
                return
            if not wal.closed:
                wal.flush()
                os.fsync(wal.fileno())
                wal.close()
            self._wal = None

    def __enter__(self) -> "JobRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
