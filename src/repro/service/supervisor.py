"""Lease-supervised job execution with heartbeats, fencing, and drain.

The supervisor is the single writer of the :class:`JobRegistry` and the
parent of every worker.  One job at a time per worker slot:

1. **Lease** — ``queued -> leased`` bumps the job's epoch; the epoch is
   written to the job workdir's fence file *before* the worker starts,
   so the worker's guard (checked before every objective evaluation and
   before publishing) proves it still owns the lease.
2. **Run** — the worker process executes :func:`repro.service.jobs.run_job`
   with every checkpoint scoped under the workdir, heartbeating a
   counter file from a daemon thread.
3. **Supervise** — the supervisor checks worker liveness and heartbeats
   whenever a worker finishes or dies, and at least every
   ``poll_interval`` (see :meth:`Supervisor.run`).  A worker that
   misses ``max_missed`` heartbeat intervals is SIGKILLed *first*, then
   the job is requeued with a bumped epoch and the fence rewritten —
   kill-then-fence, so even an unkillable zombie (SIGKILL lost to an
   unreachable node in a real deployment) is fenced out of the
   checkpoint scope before a successor leases the job.
4. **Collect** — exit code 0 plus a result carrying the lease's epoch is
   ``done``; a drained worker requeues; a fenced worker is dropped (its
   successor owns the job); anything else is ``worker_lost`` and
   requeues until the attempt cap, then fails.

**Drain** (SIGTERM): stop leasing, touch the drain flag that every
worker guard polls, let in-flight evaluations finish and checkpoint,
requeue the drained jobs, exit cleanly.  Restarting the service resumes
them bit-identically from their checkpoints.

Recovery at startup requeues orphaned leases (a supervisor that died
hard) — the WAL knows exactly which jobs were in flight.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..log import get_logger
from ..telemetry import NULL_TRACER, MetricsRegistry
from .admission import AdmissionController, AdmissionDecision
from .events import ServiceEventBus, job_metrics_path
from .jobs import (
    ERROR_NAME,
    RESULT_NAME,
    DrainRequested,
    JobGuard,
    JobSpec,
    run_job,
    write_fence,
)
from .pool import (
    EXIT_DONE,
    EXIT_DRAINED,
    EXIT_ERROR,
    EXIT_FENCED,
    HEARTBEAT_NAME,
    SLOT_LOST,
    SharedWorkerPool,
    _job_telemetry,
    execute_job,
)
from .registry import JobRecord, JobRegistry, JobState

__all__ = ["Supervisor", "Lease", "DRAIN_NAME"]

logger = get_logger("service")

DRAIN_NAME = "drain"


def _read_heartbeat(path: str) -> int:
    try:
        with open(path) as f:
            return int(f.read().strip() or 0)
    except (OSError, ValueError):
        return 0


def _worker_main(
    spec_dict: dict[str, Any],
    workdir: str,
    epoch: int,
    heartbeat_interval: float,
    drain_path: str,
    job_traces: bool = True,
    trace_max_bytes: int | None = None,
    eval_store: str | None = None,
) -> None:
    """Per-job worker process entry: run one attempt, exit with its code.

    The body lives in :func:`repro.service.pool.execute_job` — the same
    code a pooled worker runs per task — so both worker modes share one
    heartbeat/guard/publication implementation.
    """
    sys.exit(
        execute_job(
            spec_dict, workdir, epoch, heartbeat_interval, drain_path,
            job_traces, trace_max_bytes, eval_store,
        )
    )


@dataclass
class Lease:
    """One in-flight (job, worker) binding.

    ``slot`` is set in shared-pool mode: the lease then binds the job to
    a pool *slot* (whose long-lived process backs ``process``) instead
    of a dedicated per-job worker.
    """

    job_id: str
    epoch: int
    workdir: str
    process: Any = None
    started: float = 0.0
    last_beat: int = 0
    last_beat_at: float = 0.0
    cancel_requested: bool = False
    slot: Any = None

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def handle(self) -> Any:
        """What becomes readable when the attempt ends: the slot's pipe
        (an exit code, or EOF if its worker died) or the per-job
        worker's process sentinel."""
        return self.slot.conn if self.slot is not None else self.process.sentinel


class Supervisor:
    """Run registry jobs on worker processes under supervised leases.

    Parameters
    ----------
    registry:
        The (single-writer) job registry this supervisor owns.
    jobs_dir:
        Root for per-job workdirs (``<jobs_dir>/<job_id>/``) and the
        drain flag file.
    admission:
        Optional :class:`AdmissionController`; ``None`` admits
        everything (still bounded by registry/queue mechanics).
    workers:
        Concurrent worker-process slots.
    heartbeat_interval / max_missed:
        Workers heartbeat every ``heartbeat_interval`` seconds; a lease
        whose heartbeat has not advanced for ``max_missed`` consecutive
        intervals is expired (kill -> fence -> requeue).
    max_attempts:
        Lease attempts per job before it is failed permanently
        (counts the first attempt, so ``max_attempts=1`` disables
        requeueing).
    inline:
        Run jobs synchronously in-process instead of spawning workers —
        no heartbeats, no kill-based supervision.  This is the overhead
        baseline mode (``benchmarks/bench_service_overhead.py``) and is
        also what makes the full service pipeline measurable without
        process noise.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; job lifecycle
        events are emitted on its ``service`` scope and queue/lease
        metrics on its registry.
    job_traces:
        Write a per-job JSONL trace (``<workdir>/trace/job.trace.jsonl``)
        plus span-latency histograms for every worker.  This is what the
        SSE event stream and ``GET /metrics`` observe; disable it to get
        the trace-free baseline the overhead benchmarks compare against.
    job_trace_max_bytes:
        Optional rotation threshold for per-job trace files.
    pool_size:
        Run jobs on a :class:`~repro.service.pool.SharedWorkerPool` of
        this many long-lived forked workers instead of forking one
        process per job.  Implies ``workers = pool_size`` concurrent
        leases.  Fencing, heartbeats, and kill-then-fence expiry are
        unchanged (an expired pooled lease SIGKILLs the slot's worker
        and respawns the slot); results are bit-identical to per-job
        workers.  ``None`` (default) keeps per-job processes.
    eval_store:
        Optional path to the service-wide cross-job
        :class:`~repro.search.EvaluationStore` JSONL file.  Every job
        (pooled, per-job, or inline) pre-seeds its memoization cache
        from the store and writes fresh measurements back, so jobs on
        the same space never pay twice for a configuration.
    """

    def __init__(
        self,
        registry: JobRegistry,
        *,
        jobs_dir: str | os.PathLike,
        admission: AdmissionController | None = None,
        workers: int = 2,
        heartbeat_interval: float = 0.25,
        max_missed: int = 8,
        max_attempts: int = 5,
        inline: bool = False,
        telemetry=None,
        job_traces: bool = True,
        job_trace_max_bytes: int | None = None,
        pool_size: int | None = None,
        eval_store: str | os.PathLike | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if pool_size is not None and pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        if pool_size is not None and inline:
            raise ValueError("pool_size and inline are mutually exclusive")
        self.registry = registry
        self.jobs_dir = os.fspath(jobs_dir)
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.admission = admission
        self.workers = int(pool_size) if pool_size is not None else int(workers)
        self.eval_store = (
            os.fspath(eval_store) if eval_store is not None else None
        )
        self.heartbeat_interval = float(heartbeat_interval)
        self.max_missed = int(max_missed)
        self.max_attempts = int(max_attempts)
        self.inline = bool(inline)
        self.telemetry = telemetry
        self.job_traces = bool(job_traces)
        self.job_trace_max_bytes = job_trace_max_bytes
        self.tracer = telemetry.tracer("service") if telemetry else NULL_TRACER
        # Service-level counters exist regardless of tracing: GET /metrics
        # must report queue depth / outcomes even on an untraced service.
        self.metrics = telemetry.metrics if telemetry else MetricsRegistry()
        self.drain_path = os.path.join(self.jobs_dir, DRAIN_NAME)
        self._drain = threading.Event()
        if os.path.exists(self.drain_path):
            # A previous drain flag must not leak into this incarnation.
            os.unlink(self.drain_path)
        self._lock = threading.RLock()
        self._leases: dict[str, Lease] = {}
        # Write end of the pipe a running run() loop waits on; None when
        # no loop runs.  Its own re-entrant lock: request_drain() signals
        # it from the SIGTERM handler, which may interrupt the main
        # thread inside run() while that holds the lock.
        self._wake_fd: int | None = None
        self._wake_lock = threading.RLock()
        self._mp = multiprocessing.get_context("fork")
        self.pool: SharedWorkerPool | None = None
        if pool_size is not None:
            # Workers fork lazily on the first lease (SharedWorkerPool
            # .start() is idempotent and called from acquire()).
            self.pool = SharedWorkerPool(
                int(pool_size),
                heartbeat_interval=self.heartbeat_interval,
                drain_path=self.drain_path,
                job_traces=self.job_traces,
                trace_max_bytes=self.job_trace_max_bytes,
                eval_store=self.eval_store,
                mp_context=self._mp,
            )
        # Metrics folded in from finished jobs (workers publish
        # snapshots; inline jobs merge their registries directly).
        self._job_metrics = MetricsRegistry()
        self._event_bus: ServiceEventBus | None = None

    # -- submission (called from server threads too) -------------------
    def submit(self, spec: JobSpec) -> tuple[JobRecord, AdmissionDecision]:
        """Admission-check and register one job.  Rejections are recorded
        in the registry (state ``rejected``) — explicit, never silent."""
        with self._lock:
            if self.admission is not None:
                decision = self.admission.decide(
                    spec, self.registry, draining=self.draining
                )
            elif self.draining:
                decision = AdmissionDecision(
                    admitted=False, reason="draining",
                    detail="service is draining; not accepting jobs",
                )
            else:
                decision = AdmissionDecision(admitted=True)
            if decision.admitted:
                rec = self.registry.submit(spec)
                self.tracer.event(
                    "job_submitted", job=rec.job_id, tenant=rec.spec.tenant,
                    kind=rec.spec.kind,
                )
                self._wake()
            else:
                rec = self.registry.submit(spec, reject_reason=decision.reason)
                self.tracer.event(
                    "job_rejected", job=rec.job_id, tenant=rec.spec.tenant,
                    reason=decision.reason,
                )
                self.metrics.counter(
                    "service_rejections", reason=decision.reason
                ).inc()
            self._gauge_queue_depth()
            return rec, decision

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job: queued jobs immediately, running jobs at the
        next supervision tick (fence, kill, record ``cancelled``), which
        this wakes."""
        with self._lock:
            rec = self.registry.get(job_id)
            if rec.state == JobState.QUEUED:
                rec = self.registry.transition(
                    job_id, JobState.CANCELLED, reason="cancelled"
                )
                self.tracer.event("job_cancelled", job=job_id)
                return rec
            lease = self._leases.get(job_id)
            if lease is not None:
                lease.cancel_requested = True
                self._wake()
            return rec

    # -- drain ---------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def request_drain(self) -> None:
        """Stop leasing and signal every worker guard to stop cleanly."""
        if self._drain.is_set():
            return
        self._drain.set()
        with open(self.drain_path, "w") as f:
            f.write("drain\n")
        self.tracer.event("drain_started")
        logger.info("drain requested: no new leases; waiting for workers")
        self._wake()

    def install_signal_handlers(self) -> None:
        """SIGTERM -> graceful drain (main thread only)."""
        signal.signal(signal.SIGTERM, lambda signum, frame: self.request_drain())

    # -- supervision loop ----------------------------------------------
    def active_leases(self) -> list[Lease]:
        with self._lock:
            return list(self._leases.values())

    def tick(self) -> bool:
        """One supervision step: collect/expire leases, lease new jobs.

        Returns whether any work remains (leases active or jobs queued).
        """
        with self._lock:
            self._poll_leases()
            if not self.draining:
                while len(self._leases) < self.workers:
                    if not self._lease_next():
                        break
            self._gauge_queue_depth()
            return bool(self._leases) or self.registry.queue_depth() > 0

    def run(
        self,
        *,
        drain_when_idle: bool = False,
        poll_interval: float = 0.05,
        max_seconds: float | None = None,
    ) -> bool:
        """Supervise until drained (or idle, with ``drain_when_idle``).

        Between ticks the loop blocks in one
        :func:`multiprocessing.connection.wait` on every handle whose
        readiness makes a tick useful: each busy pool slot's pipe (an
        exit code, or EOF when its worker dies), each per-job worker's
        process sentinel, and a wake pipe that :meth:`submit`,
        :meth:`cancel` and :meth:`request_drain` write to.  A finished
        job is collected, and a new submission leased, as soon as it
        happens.  A stalled worker signals nothing, so ``poll_interval``
        bounds the wait: it is the longest time between heartbeat,
        lease-expiry and cancel checks.

        Returns ``True`` on a clean exit, ``False`` on ``max_seconds``
        expiry (leases may still be active).
        """
        started = time.monotonic()
        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_r, False)
        os.set_blocking(wake_w, False)
        with self._wake_lock:
            self._wake_fd = wake_w
        try:
            while True:
                busy = self.tick()
                if self.draining and not self._leases:
                    self.tracer.event("drained")
                    logger.info("drained: all workers stopped, queue persisted")
                    self.close_pool()
                    return True
                if drain_when_idle and not busy and not self.draining:
                    self.close_pool()
                    return True
                if (
                    max_seconds is not None
                    and time.monotonic() - started > max_seconds
                ):
                    return False
                # Rebuilt every pass: a respawned slot has a new pipe.
                with self._lock:
                    handles = [lease.handle for lease in self._leases.values()]
                ready = multiprocessing.connection.wait(
                    [wake_r, *handles], poll_interval
                )
                if wake_r in ready:
                    os.read(wake_r, 4096)  # the next tick serves every wake
        finally:
            with self._wake_lock:
                self._wake_fd = None
            os.close(wake_w)
            os.close(wake_r)

    def _wake(self) -> None:
        """Wake the :meth:`run` loop's wait (no-op when none runs)."""
        with self._wake_lock:
            if self._wake_fd is not None:
                try:
                    os.write(self._wake_fd, b"w")
                except BlockingIOError:  # pipe full: a wake is pending
                    pass

    # -- leasing -------------------------------------------------------
    def _workdir(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id)

    def recover(self) -> list[JobRecord]:
        """Requeue orphaned leases and re-fence their workdirs."""
        orphans = self.registry.recover_orphans()
        for rec in orphans:
            workdir = self._workdir(rec.job_id)
            if os.path.isdir(workdir):
                write_fence(workdir, rec.epoch)
            self.tracer.event(
                "job_requeued", job=rec.job_id, reason="orphaned",
                epoch=rec.epoch,
            )
            logger.info("requeued orphaned job %s (epoch %d)", rec.job_id, rec.epoch)
        return orphans

    def _lease_next(self) -> bool:
        queued = self.registry.queued()
        if not queued:
            return False
        rec = self.registry.lease(queued[0].job_id, owner=f"pid-{os.getpid()}")
        workdir = self._workdir(rec.job_id)
        os.makedirs(workdir, exist_ok=True)
        resumed = os.path.isdir(os.path.join(workdir, "checkpoints")) or (
            os.path.isdir(os.path.join(workdir, "analysis"))
        )
        # Fence *before* the worker starts: the worker's first guard
        # check must already see its own epoch.
        write_fence(workdir, rec.epoch)
        hb_path = os.path.join(workdir, HEARTBEAT_NAME)
        if os.path.exists(hb_path):
            os.unlink(hb_path)
        self.tracer.event(
            "job_leased", job=rec.job_id, epoch=rec.epoch, attempt=rec.attempt,
        )
        if resumed:
            self.tracer.event("job_resumed", job=rec.job_id, epoch=rec.epoch)
        if self.inline:
            self._run_inline(rec, workdir)
            return True
        slot = None
        if self.pool is not None:
            slot = self.pool.acquire()
            if slot is None:  # pragma: no cover - leases are capped at size
                requeued = self.registry.requeue(rec.job_id, "no_idle_slot")
                write_fence(workdir, requeued.epoch)
                return False
            self.pool.submit(
                slot, rec.job_id, rec.spec.to_dict(), workdir, rec.epoch
            )
            proc = slot.process
        else:
            proc = self._mp.Process(
                target=_worker_main,
                args=(
                    rec.spec.to_dict(), workdir, rec.epoch,
                    self.heartbeat_interval, self.drain_path,
                    self.job_traces, self.job_trace_max_bytes,
                    self.eval_store,
                ),
                name=f"repro-job-{rec.job_id}",
            )
            proc.start()
        self.registry.transition(rec.job_id, JobState.RUNNING, owner=rec.owner)
        now = time.monotonic()
        self._leases[rec.job_id] = Lease(
            job_id=rec.job_id, epoch=rec.epoch, workdir=workdir,
            process=proc, started=now, last_beat_at=now, slot=slot,
        )
        return True

    def _run_inline(self, rec: JobRecord, workdir: str) -> None:
        self.registry.transition(rec.job_id, JobState.RUNNING, owner=rec.owner)
        guard = JobGuard(
            workdir=workdir, epoch=rec.epoch, drain_path=self.drain_path
        )
        job_telemetry = (
            _job_telemetry(workdir, self.job_trace_max_bytes)
            if self.job_traces else None
        )
        try:
            # Trace close + metrics fold-in happen in the inner finally,
            # i.e. *before* any terminal registry transition below: a
            # live tailer keyed on the WAL's terminal event must find
            # the trace complete when it performs its final drain.
            try:
                result = run_job(
                    rec.spec, workdir, guard=guard, telemetry=job_telemetry,
                    eval_store=self.eval_store,
                )
                result["epoch"] = rec.epoch
            finally:
                if job_telemetry is not None:
                    job_telemetry.close()
                    self._job_metrics.merge(job_telemetry.metrics)
        except DrainRequested:
            requeued = self.registry.requeue(rec.job_id, "drained")
            write_fence(workdir, requeued.epoch)
            self.metrics.counter("service_requeues", reason="drained").inc()
            self.tracer.event(
                "job_requeued", job=rec.job_id, reason="drained",
                epoch=requeued.epoch,
            )
            return
        except Exception as exc:  # noqa: BLE001 - terminal job failure
            self.registry.transition(
                rec.job_id, JobState.FAILED, error=repr(exc)
            )
            self.tracer.event(
                "job_failed", job=rec.job_id, reason="error", error=repr(exc)
            )
            self.metrics.counter("service_jobs_failed", reason="error").inc()
            if self.admission is not None:
                self.admission.record_failure(rec.spec.tenant)
            return
        self.registry.transition(rec.job_id, JobState.DONE, result=result)
        self.tracer.event("job_done", job=rec.job_id, epoch=rec.epoch)
        self.metrics.counter("service_jobs_done").inc()

    # -- collection ----------------------------------------------------
    def _poll_leases(self) -> None:
        for lease in list(self._leases.values()):
            if lease.slot is not None:
                self._poll_pooled_lease(lease)
                continue
            proc = lease.process
            if proc.is_alive():
                if lease.cancel_requested:
                    self._expire(lease, cancel=True)
                    continue
                self._check_heartbeat(lease)
                continue
            proc.join()
            del self._leases[lease.job_id]
            self._collect(lease, proc.exitcode)

    def _poll_pooled_lease(self, lease: Lease) -> None:
        """Pooled collection: the slot reports an exit-protocol code over
        its pipe instead of a process exit status; everything downstream
        (:meth:`_collect`) is shared with per-job workers."""
        outcome = self.pool.poll(lease.slot)
        if outcome is None:
            if lease.cancel_requested:
                self._expire(lease, cancel=True)
                return
            self._check_heartbeat(lease)
            return
        del self._leases[lease.job_id]
        slot = lease.slot
        self.pool.release(slot)
        if outcome == SLOT_LOST:
            # The slot's worker died without reporting (SIGKILL, OOM):
            # heal the slot, then treat it as a crashed worker.
            self.pool.ensure(slot)
            self.metrics.counter(
                "service_pool_respawns", reason="worker_lost"
            ).inc()
            self.tracer.event(
                "pool_slot_respawned", slot=slot.index, reason="worker_lost",
            )
            self._collect(lease, None)
            return
        self._collect(lease, outcome)

    def _check_heartbeat(self, lease: Lease) -> None:
        beat = _read_heartbeat(os.path.join(lease.workdir, HEARTBEAT_NAME))
        now = time.monotonic()
        if beat != lease.last_beat:
            lease.last_beat = beat
            lease.last_beat_at = now
            return
        if now - lease.last_beat_at > self.max_missed * self.heartbeat_interval:
            logger.warning(
                "lease expired: job %s missed %d heartbeats (pid %s)",
                lease.job_id, self.max_missed, lease.pid,
            )
            self.tracer.event(
                "lease_expired", job=lease.job_id, epoch=lease.epoch,
                missed=self.max_missed,
            )
            self.metrics.counter("service_leases_expired").inc()
            self._expire(lease)

    def _expire(self, lease: Lease, *, cancel: bool = False) -> None:
        """Kill-then-fence: SIGKILL the worker, then bump the epoch (in
        the registry *and* the fence file) so any straggler that somehow
        survives is rejected at its next guard check or publish.

        In pool mode the slot's long-lived worker is what gets killed —
        same SIGKILL, same ordering — and the slot respawns with a fresh
        process and pipe, so one expired lease never poisons the pool."""
        if lease.slot is not None:
            self.pool.kill(lease.slot)
            self.pool.release(lease.slot)
            self.metrics.counter(
                "service_pool_respawns", reason="expired"
            ).inc()
            self.tracer.event(
                "pool_slot_respawned", slot=lease.slot.index, reason="expired",
            )
        else:
            proc = lease.process
            if proc.is_alive():
                proc.kill()
            proc.join()
        del self._leases[lease.job_id]
        if cancel:
            self.registry.transition(
                lease.job_id, JobState.CANCELLED, reason="cancelled"
            )
            write_fence(lease.workdir, lease.epoch + 1)
            self.tracer.event("job_cancelled", job=lease.job_id)
            return
        self._requeue_or_fail(lease, "lease_expired")

    def _requeue_or_fail(self, lease: Lease, reason: str) -> None:
        rec = self.registry.get(lease.job_id)
        if reason != "drained" and rec.attempt >= self.max_attempts:
            self.registry.transition(
                lease.job_id, JobState.FAILED,
                error=f"{reason} after {rec.attempt} attempts",
            )
            write_fence(lease.workdir, lease.epoch + 1)
            self.tracer.event(
                "job_failed", job=lease.job_id, reason=reason,
                attempts=rec.attempt,
            )
            self.metrics.counter("service_jobs_failed", reason=reason).inc()
            if self.admission is not None:
                self.admission.record_failure(rec.spec.tenant)
            return
        requeued = self.registry.requeue(lease.job_id, reason)
        write_fence(lease.workdir, requeued.epoch)
        self.metrics.counter("service_requeues", reason=reason).inc()
        self.tracer.event(
            "job_requeued", job=lease.job_id, reason=reason,
            epoch=requeued.epoch,
        )

    def _collect(self, lease: Lease, exitcode: int | None) -> None:
        rec = self.registry.get(lease.job_id)
        if rec.epoch != lease.epoch or rec.state != JobState.RUNNING:
            # Superseded while exiting (expiry raced completion); the
            # current epoch's owner is responsible for the job now.
            return
        if exitcode == EXIT_DONE:
            result = self._read_result(lease)
            if result is not None and int(result.get("epoch", -1)) == lease.epoch:
                self._merge_workdir_metrics(lease.workdir)
                self.registry.transition(
                    lease.job_id, JobState.DONE, result=result
                )
                self.tracer.event(
                    "job_done", job=lease.job_id, epoch=lease.epoch,
                )
                self.metrics.counter("service_jobs_done").inc()
                return
            # Exit 0 without a fresh result: treat as a lost worker.
            self._requeue_or_fail(lease, "worker_lost")
            return
        if exitcode == EXIT_DRAINED:
            self._requeue_or_fail(lease, "drained")
            return
        if exitcode == EXIT_FENCED:
            # The worker observed it lost its lease; with the registry
            # still naming this epoch RUNNING (checked above) the job
            # must go back to the queue rather than hang.
            self._requeue_or_fail(lease, "fenced")
            return
        error = self._read_error(lease)
        if exitcode == EXIT_ERROR and error is not None:
            self._merge_workdir_metrics(lease.workdir)
            rec = self.registry.get(lease.job_id)
            self.registry.transition(
                lease.job_id, JobState.FAILED, error=error["error"]
            )
            write_fence(lease.workdir, lease.epoch + 1)
            self.tracer.event(
                "job_failed", job=lease.job_id, reason="error",
                error=error["error"],
            )
            self.metrics.counter("service_jobs_failed", reason="error").inc()
            if self.admission is not None:
                self.admission.record_failure(rec.spec.tenant)
            return
        # SIGKILLed / crashed without a report: worker lost.
        self._requeue_or_fail(lease, "worker_lost")

    def _read_result(self, lease: Lease) -> dict[str, Any] | None:
        path = os.path.join(lease.workdir, RESULT_NAME)
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    def _read_error(self, lease: Lease) -> dict[str, Any] | None:
        path = os.path.join(lease.workdir, ERROR_NAME)
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, ValueError):
            return None
        return data if int(data.get("epoch", -1)) == lease.epoch else None

    # -- observability ---------------------------------------------------
    def _merge_workdir_metrics(self, workdir: str) -> None:
        """Fold a worker's published metrics snapshot into the service's
        job-metrics registry.  Only called on terminal outcomes (done or
        permanently failed) so requeued attempts are not double-counted
        — the worker's final snapshot already covers the whole attempt."""
        try:
            with open(job_metrics_path(workdir)) as f:
                snap = json.load(f)
        except (OSError, ValueError):
            return
        try:
            self._job_metrics.merge_snapshot(snap)
        except (ValueError, KeyError, TypeError):  # malformed snapshot
            logger.warning("discarding malformed metrics snapshot in %s", workdir)

    def metrics_snapshot(self) -> dict[str, Any]:
        """Merged service-wide metrics: the supervisor's own registry
        (queue depth, jobs done/failed/rejected, lease expiries, retry
        counts), metrics folded in from finished jobs, and the latest
        published snapshot from every live worker.  Safe to call from
        server threads."""
        merged = MetricsRegistry()
        with self._lock:
            merged.merge(self.metrics)
            merged.merge(self._job_metrics)
            live = [lease.workdir for lease in self._leases.values()]
        for workdir in live:
            try:
                with open(job_metrics_path(workdir)) as f:
                    snap = json.load(f)
            except (OSError, ValueError):
                continue
            try:
                merged.merge_snapshot(snap)
            except (ValueError, KeyError, TypeError):
                continue
        return merged.snapshot()

    def event_bus(self) -> ServiceEventBus:
        """The service-wide event bus, created on first use.  Until this
        is called no bus, tailer, or poller thread exists — the
        zero-overhead guarantee for unobserved services."""
        with self._lock:
            if self._event_bus is None:
                self._event_bus = ServiceEventBus(
                    self.registry, self.jobs_dir
                )
            return self._event_bus

    def close_event_bus(self) -> None:
        """Close the bus (if one was created), waking every subscriber."""
        with self._lock:
            bus, self._event_bus = self._event_bus, None
        if bus is not None:
            bus.close()

    def close_pool(self) -> None:
        """Stop the shared pool's workers (no-op without a pool, or when
        it was never started).  A later lease restarts it — the pool
        forks lazily — so this is safe to call between bursts of work."""
        with self._lock:
            if self.pool is not None:
                self.pool.close()

    # ------------------------------------------------------------------
    def _gauge_queue_depth(self) -> None:
        self.metrics.gauge("service_queue_depth").set(
            self.registry.queue_depth()
        )
        if self.pool is not None:
            self.metrics.gauge("service_pool_slots", state="busy").set(
                self.pool.busy_count
            )
            self.metrics.gauge("service_pool_slots", state="idle").set(
                self.pool.idle_count
            )
