"""Lease supervision: completion, expiry, drain, cancel, recovery, and
the event-driven ``run()`` loop."""

import os
import signal
import threading
import time

import pytest

from repro.service import (
    AdmissionController,
    JobRegistry,
    JobSpec,
    JobState,
    Supervisor,
    run_job,
)
from repro.telemetry import MemorySink, Telemetry

#: Fast BO campaign job — deterministic, ~0.1s.
FAST = {"engine": "bo", "budget": 8, "seed": 0}
#: Slow BO campaign job — ~1s, long enough to interfere with mid-run.
SLOW = {"engine": "bo", "budget": 40, "seed": 0}


def jspec(params=FAST, tenant="default", kind="campaign"):
    return JobSpec(kind=kind, tenant=tenant, params=dict(params))


def baseline_fingerprint(tmp_path, params=FAST, kind="campaign"):
    """Uninterrupted reference run of the same job."""
    result = run_job(jspec(params, kind=kind), tmp_path / "baseline")
    return result["fingerprint"]


def make_service(tmp_path, **kw):
    telemetry = Telemetry([MemorySink()])
    registry = JobRegistry(tmp_path / "registry")
    supervisor = Supervisor(
        registry,
        jobs_dir=str(tmp_path / "jobs"),
        telemetry=telemetry,
        **kw,
    )
    return registry, supervisor, telemetry


def tick_until(supervisor, predicate, timeout=30.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        supervisor.tick()
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition not reached within timeout")


def wait_until(predicate, timeout=30.0, poll=0.005):
    """Poll ``predicate`` from the test thread while ``run()`` supervises."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition not reached within timeout")


def start_run(supervisor, poll_interval):
    loop = threading.Thread(
        target=supervisor.run, kwargs={"poll_interval": poll_interval},
        name="supervisor-run", daemon=True,
    )
    loop.start()
    return loop


def stop_run(supervisor, loop):
    supervisor.request_drain()
    loop.join(60)
    assert not loop.is_alive()


def event_names(telemetry):
    sink = telemetry.sinks[0]
    return [e["name"] for e in sink.events if e.get("kind") == "event"]


class TestCompletion:
    def test_job_runs_to_done_on_worker_process(self, tmp_path):
        registry, sup, tel = make_service(tmp_path, workers=1)
        rec, decision = sup.submit(jspec())
        assert decision.admitted
        tick_until(sup, lambda: registry.get(rec.job_id).state == JobState.DONE)
        done = registry.get(rec.job_id)
        assert done.result["fingerprint"] == baseline_fingerprint(tmp_path)
        assert done.epoch == 1 and done.attempt == 1
        names = event_names(tel)
        assert "job_submitted" in names and "job_leased" in names
        assert "job_done" in names and "job_resumed" not in names
        assert tel.metrics.snapshot()["counters"]["service_jobs_done"] == 1.0
        registry.close()

    def test_inline_mode_matches_worker_mode(self, tmp_path):
        registry, sup, _ = make_service(tmp_path, workers=1, inline=True)
        rec, _ = sup.submit(jspec())
        sup.tick()  # inline: the lease runs synchronously inside tick
        done = registry.get(rec.job_id)
        assert done.state == JobState.DONE
        assert done.result["fingerprint"] == baseline_fingerprint(tmp_path)
        registry.close()

    def test_failing_job_records_error(self, tmp_path):
        registry, sup, tel = make_service(tmp_path, workers=1)
        rec, _ = sup.submit(jspec({"case": 99}))  # invalid case -> ValueError
        tick_until(
            sup, lambda: registry.get(rec.job_id).state == JobState.FAILED
        )
        failed = registry.get(rec.job_id)
        assert "case must be 1..5" in failed.error
        assert "job_failed" in event_names(tel)
        registry.close()

    def test_failing_job_counts_against_tenant_breaker(self, tmp_path):
        admission = AdmissionController(max_queue=8, tenant_fail_threshold=1)
        registry, sup, _ = make_service(
            tmp_path, workers=1, inline=True, admission=admission
        )
        rec, _ = sup.submit(jspec({"case": 99}, tenant="flaky"))
        sup.tick()
        assert registry.get(rec.job_id).state == JobState.FAILED
        _, decision = sup.submit(jspec(tenant="flaky"))
        assert decision.reason == "tenant_quarantined"
        registry.close()


class TestRejection:
    def test_queue_full_recorded_in_registry_and_metrics(self, tmp_path):
        admission = AdmissionController(max_queue=1)
        registry, sup, tel = make_service(
            tmp_path, workers=1, admission=admission
        )
        sup.submit(jspec())
        rec, decision = sup.submit(jspec())
        assert not decision.admitted and decision.reason == "queue_full"
        assert registry.get(rec.job_id).state == JobState.REJECTED
        assert registry.get(rec.job_id).reason == "queue_full"
        counters = tel.metrics.snapshot()["counters"]
        assert counters["service_rejections{reason=queue_full}"] == 1.0
        assert "job_rejected" in event_names(tel)
        registry.close()


class TestCancel:
    def test_cancel_queued_job_immediately(self, tmp_path):
        registry, sup, _ = make_service(tmp_path, workers=1)
        rec, _ = sup.submit(jspec())
        cancelled = sup.cancel(rec.job_id)
        assert cancelled.state == JobState.CANCELLED
        registry.close()

    def test_cancel_running_job_kills_and_fences(self, tmp_path):
        registry, sup, _ = make_service(tmp_path, workers=1)
        rec, _ = sup.submit(jspec(SLOW))
        tick_until(sup, lambda: sup.active_leases())
        sup.cancel(rec.job_id)
        tick_until(
            sup, lambda: registry.get(rec.job_id).state == JobState.CANCELLED
        )
        assert not sup.active_leases()
        registry.close()


class TestLeaseExpiry:
    def test_stalled_worker_expires_and_job_resumes(self, tmp_path):
        registry, sup, tel = make_service(
            tmp_path, workers=1, heartbeat_interval=0.05, max_missed=4
        )
        reference = baseline_fingerprint(tmp_path, SLOW)
        rec, _ = sup.submit(jspec(SLOW))
        tick_until(sup, lambda: sup.active_leases())
        # Let the worker checkpoint at least something before freezing,
        # so the second lease is a genuine resume.
        ckpt = os.path.join(sup.active_leases()[0].workdir, "checkpoints")
        tick_until(sup, lambda: os.path.isdir(ckpt) and os.listdir(ckpt))
        # Freeze the worker: heartbeats stop advancing, the lease expires
        # (kill-then-fence), and the job requeues with a bumped epoch.
        os.kill(sup.active_leases()[0].pid, signal.SIGSTOP)
        tick_until(sup, lambda: registry.get(rec.job_id).state == JobState.DONE)
        done = registry.get(rec.job_id)
        assert done.epoch >= 3  # lease(1) + requeue(2) + re-lease(3)
        assert done.attempt >= 2
        assert done.result["fingerprint"] == reference  # bit-identical resume
        names = event_names(tel)
        assert "lease_expired" in names and "job_resumed" in names
        counters = tel.metrics.snapshot()["counters"]
        assert counters["service_leases_expired"] >= 1.0
        registry.close()

    def test_sigkilled_worker_is_worker_lost_and_resumes(self, tmp_path):
        registry, sup, _ = make_service(tmp_path, workers=1)
        reference = baseline_fingerprint(tmp_path, SLOW)
        rec, _ = sup.submit(jspec(SLOW))
        tick_until(sup, lambda: sup.active_leases())
        os.kill(sup.active_leases()[0].pid, signal.SIGKILL)
        tick_until(sup, lambda: registry.get(rec.job_id).state == JobState.DONE)
        done = registry.get(rec.job_id)
        assert done.reason == "worker_lost" or done.attempt >= 2
        assert done.result["fingerprint"] == reference
        registry.close()

    def test_attempt_cap_fails_job_permanently(self, tmp_path):
        registry, sup, tel = make_service(tmp_path, workers=1, max_attempts=1)
        rec, _ = sup.submit(jspec(SLOW))
        tick_until(sup, lambda: sup.active_leases())
        os.kill(sup.active_leases()[0].pid, signal.SIGKILL)
        tick_until(
            sup, lambda: registry.get(rec.job_id).state == JobState.FAILED
        )
        assert "worker_lost" in registry.get(rec.job_id).error
        assert "job_failed" in event_names(tel)
        registry.close()


class TestDrain:
    def test_drain_requeues_running_and_restart_completes(self, tmp_path):
        registry, sup, tel = make_service(tmp_path, workers=1)
        reference = baseline_fingerprint(tmp_path, SLOW)
        first, _ = sup.submit(jspec(SLOW))
        second, _ = sup.submit(jspec())
        tick_until(sup, lambda: sup.active_leases())
        sup.request_drain()
        # Draining rejects new submissions explicitly.
        _, decision = sup.submit(jspec())
        assert decision.reason == "draining"
        assert sup.run(poll_interval=0.01) is True  # clean drain exit
        states = {registry.get(j.job_id).state for j in (first, second)}
        assert states == {JobState.QUEUED}  # persisted, not lost
        assert registry.get(first.job_id).reason == "drained"
        assert "drain_started" in event_names(tel)
        registry.close()

        # Restart the service on the same state: both jobs complete,
        # the drained one resuming bit-identically from its checkpoints.
        registry2 = JobRegistry(tmp_path / "registry")
        sup2 = Supervisor(registry2, jobs_dir=str(tmp_path / "jobs"), workers=2)
        sup2.recover()
        assert sup2.run(drain_when_idle=True, poll_interval=0.01) is True
        assert registry2.get(first.job_id).state == JobState.DONE
        assert registry2.get(second.job_id).state == JobState.DONE
        assert registry2.get(first.job_id).result["fingerprint"] == reference
        registry2.close()


#: The two worker modes every wake-up test covers.
WORKER_MODES = pytest.mark.parametrize(
    "mode", [{"pool_size": 1}, {"workers": 1}], ids=["pooled", "per-job"]
)


class TestEventDrivenLoop:
    """``run()`` blocks on worker pipes, process sentinels and a wake
    channel, so with a 5 s ``poll_interval`` a job is still leased as
    soon as it is submitted and collected as soon as it finishes.  A
    loop that slept between ticks would take at least one full poll for
    each."""

    POLL = 5.0

    @WORKER_MODES
    def test_submit_to_done_without_waiting_for_a_poll(self, tmp_path, mode):
        registry, sup, _ = make_service(tmp_path, **mode)
        loop = start_run(sup, self.POLL)
        try:
            time.sleep(0.2)  # the loop is now blocked in its wait
            t0 = time.monotonic()
            rec, _ = sup.submit(jspec())
            wait_until(
                lambda: registry.get(rec.job_id).state == JobState.DONE
            )
            elapsed = time.monotonic() - t0
        finally:
            stop_run(sup, loop)
        assert elapsed < 1.0
        assert registry.get(rec.job_id).result["fingerprint"] == (
            baseline_fingerprint(tmp_path)
        )
        registry.close()

    @WORKER_MODES
    def test_cancel_wakes_the_loop(self, tmp_path, mode):
        registry, sup, _ = make_service(tmp_path, **mode)
        loop = start_run(sup, self.POLL)
        try:
            rec, _ = sup.submit(jspec(SLOW))
            wait_until(
                lambda: registry.get(rec.job_id).state == JobState.RUNNING
            )
            time.sleep(0.1)  # the loop is blocked in its wait again
            t0 = time.monotonic()
            sup.cancel(rec.job_id)
            wait_until(
                lambda: registry.get(rec.job_id).state == JobState.CANCELLED,
                timeout=10.0,
            )
            elapsed = time.monotonic() - t0
        finally:
            stop_run(sup, loop)
        assert elapsed < 1.0
        assert not sup.active_leases()
        registry.close()

    @WORKER_MODES
    def test_wake_channel_does_not_leak(self, tmp_path, mode):
        def fds():
            return len(os.listdir("/proc/self/fd"))

        before = fds()
        registry, sup, _ = make_service(tmp_path, **mode)
        loop = start_run(sup, self.POLL)
        rec, _ = sup.submit(jspec())
        wait_until(lambda: registry.get(rec.job_id).state == JobState.DONE)
        stop_run(sup, loop)
        sup.close_pool()
        registry.close()
        assert fds() == before


class TestRecovery:
    def test_startup_requeues_orphans_with_fence(self, tmp_path):
        with JobRegistry(tmp_path / "registry") as registry:
            rec = registry.submit(jspec())
            registry.lease(rec.job_id, owner="dead-supervisor")
            registry.transition(rec.job_id, JobState.RUNNING, owner="dead")
            job_id = rec.job_id
        # A dead supervisor left the job RUNNING in the WAL.
        registry, sup, tel = make_service(tmp_path, workers=1)
        orphans = sup.recover()
        assert [r.job_id for r in orphans] == [job_id]
        assert registry.get(job_id).state == JobState.QUEUED
        assert registry.get(job_id).epoch == 2
        tick_until(sup, lambda: registry.get(job_id).state == JobState.DONE)
        assert registry.get(job_id).result["fingerprint"] == (
            baseline_fingerprint(tmp_path)
        )
        registry.close()

    def test_constructor_validation(self, tmp_path):
        registry = JobRegistry(tmp_path / "registry")
        with pytest.raises(ValueError, match="workers"):
            Supervisor(registry, jobs_dir=str(tmp_path / "jobs"), workers=0)
        with pytest.raises(ValueError, match="max_attempts"):
            Supervisor(
                registry, jobs_dir=str(tmp_path / "jobs"), max_attempts=0
            )
        registry.close()
