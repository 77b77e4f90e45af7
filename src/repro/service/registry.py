"""Write-ahead job registry: crash-safe job state, one JSONL line at a time.

Every job state transition is appended to a write-ahead log *before* the
in-memory state changes are considered durable, in the same JSONL idiom
as the evaluation checkpoints: a header line, then one self-contained
JSON object per event, each carrying a monotonically increasing ``seq``.
Recovery is therefore the same story as everywhere else in the package
(:mod:`repro.durable`): the snapshot (if any) seeds the state, WAL events
with ``seq`` greater than the snapshot's are replayed on top, and a torn
final line is never replayed and is dropped before the next append.

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
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ..durable import AppendLog, atomic_write, read_lines
from ..log import get_logger
from .jobs import JobSpec

__all__ = [
    "JobState",
    "JobRecord",
    "JobRegistry",
    "RegistryError",
    "IllegalTransition",
    "read_registry",
    "replay_wal_event",
]

logger = get_logger("service")

WAL_HEADER = "repro-job-registry"
WAL_VERSION = 1
WAL_NAME = "registry.wal.jsonl"
SNAPSHOT_NAME = "registry.snapshot.json"
_WAL_HEADER_LINE = json.dumps(
    {"format": WAL_HEADER, "version": WAL_VERSION, "event": "header"},
    sort_keys=True,
    separators=(",", ":"),
)


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

    Used by :func:`read_registry`, the one snapshot + WAL replay.
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


def read_registry(root: str | os.PathLike) -> tuple[dict[str, JobRecord], int]:
    """Rebuild the job table from ``root``'s snapshot and WAL, writing
    nothing; return it with the highest ``seq`` seen.

    Only newline-complete WAL lines are replayed (a torn tail of a live
    or crashed writer is skipped); any other unparsable line is
    corruption.  Shared by :class:`JobRegistry` recovery and the
    read-only views in :mod:`repro.service.events`, which run against a
    directory a live service owns.
    """
    root = os.fspath(root)
    jobs: dict[str, JobRecord] = {}
    snapshot_seq = 0
    snap_path = os.path.join(root, SNAPSHOT_NAME)
    if os.path.exists(snap_path):
        try:
            with open(snap_path) as f:
                snap = json.load(f)
        except (OSError, ValueError) as exc:
            raise RegistryError(
                f"corrupt registry snapshot {snap_path}: {exc}"
            ) from exc
        snapshot_seq = int(snap.get("seq", 0))
        for data in snap.get("jobs", ()):
            rec = JobRecord.from_dict(data)
            jobs[rec.job_id] = rec
    seq = snapshot_seq
    wal_path = os.path.join(root, WAL_NAME)
    for lineno, line in enumerate(read_lines(wal_path)[0], 1):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RegistryError(
                f"corrupt registry WAL {wal_path}:{lineno}: {exc}"
            ) from exc
        if event.get("event") == "header" or int(event["seq"]) <= snapshot_seq:
            continue  # header, or already folded into the snapshot
        replay_wal_event(jobs, event)
        seq = max(seq, int(event["seq"]))
    return jobs, seq


class JobRegistry:
    """Single-writer, crash-recoverable job table backed by a WAL.

    Parameters
    ----------
    root:
        Directory holding ``registry.wal.jsonl`` and (after compaction)
        ``registry.snapshot.json``.  Created if missing.
    fsync:
        Durability policy from :data:`repro.durable.FSYNC_POLICIES`.
        The default ``"always"`` fsyncs every appended event — a job
        transition acknowledged to a tenant survives power loss, which is
        the contract a job *service* owes that a best-effort trace sink
        does not.

    Thread-safe (one re-entrant lock around state + WAL); multi-process
    single-writer — exactly one supervisor owns the registry directory.
    """

    def __init__(self, root: str | os.PathLike, *, fsync: str = "always"):
        self.root = os.fspath(root)
        self.fsync = fsync
        self.wal_path = os.path.join(self.root, WAL_NAME)
        self.snapshot_path = os.path.join(self.root, SNAPSHOT_NAME)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.RLock()
        # Query indexes, kept in step with every record's state by
        # _set_state and rebuilt after recovery: the FIFO queue as sorted
        # ``(submitted_seq, job_id)`` pairs, and active-job counts per
        # state and per tenant.  They make the supervisor's per-tick and
        # admission queries independent of how many jobs ever ran.
        self._queue: list[tuple[int, str]] = []
        self._active_by_state: dict[str, int] = {}
        self._active_by_tenant: dict[str, int] = {}
        self._jobs, self._seq = read_registry(self.root)
        for rec in self._jobs.values():
            self._index(rec, 1)
        self._wal = AppendLog(self.wal_path, header=_WAL_HEADER_LINE, fsync=fsync)

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
        return self._wal.repaired

    # -- WAL append ----------------------------------------------------
    def _append(self, event: dict[str, Any]) -> int:
        self._seq += 1
        event["seq"] = self._seq
        self._wal.append([json.dumps(event, sort_keys=True, separators=(",", ":"))])
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
            self._wal.close(rotating=True)
            try:
                snap = {
                    "format": WAL_HEADER,
                    "version": WAL_VERSION,
                    "seq": self._seq,
                    "jobs": [rec.to_dict() for rec in self.jobs()],
                }
                atomic_write(self.snapshot_path, json.dumps(snap, sort_keys=True))
                atomic_write(self.wal_path, _WAL_HEADER_LINE + "\n")
            finally:
                self._wal = AppendLog(
                    self.wal_path, header=_WAL_HEADER_LINE, fsync=self.fsync
                )
            logger.info(
                "compacted job registry %s at seq %d (%d jobs)",
                self.root, self._seq, len(self._jobs),
            )

    def close(self) -> None:
        """Fsync (per the policy) and close the WAL.  Idempotent."""
        with self._lock:
            self._wal.close()

    def __enter__(self) -> "JobRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
