"""Shared pool + cross-job store: reuse, chaos parity, store races.

The pool must be *transparent*: every guarantee the chaos suite proves
for per-job workers (exactly-once, bit-identical fingerprints, clean
drain) must hold verbatim when jobs run on pooled long-lived workers,
and the cross-job evaluation store must never perturb a fingerprint.

Kill points reuse the ``REPRO_CHAOS_SEED`` idiom from
:mod:`tests.service.test_chaos` so the CI matrix exercises genuinely
different interleavings per seed.
"""

import glob
import json
import os
import signal
import threading
import time

from repro.bo.history import EvaluationDatabase
from repro.faults.injection import _mix64
from repro.search import EvaluationStore
from repro.service import (
    JobRegistry,
    JobSpec,
    JobState,
    Supervisor,
    run_job,
)
from repro.telemetry import MemorySink, Telemetry

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

FAST = {"engine": "bo", "budget": 8, "seed": 0}
SLOW = {"engine": "bo", "budget": 40, "seed": 0}


def chaos_uniform(i, lo, hi):
    u = _mix64((CHAOS_SEED << 8) ^ (i + 1)) / 2.0**64
    return lo + (hi - lo) * u


def jspec(params=FAST, kind="campaign"):
    return JobSpec(kind=kind, params=dict(params))


def baseline_fingerprint(tmp_path, params=FAST, kind="campaign"):
    """Uninterrupted, unpooled, cold-store reference run."""
    label = "-".join(f"{k}{v}" for k, v in sorted(params.items()))
    return run_job(jspec(params, kind), tmp_path / f"baseline-{label}")[
        "fingerprint"
    ]


def make_service(tmp_path, **kw):
    telemetry = Telemetry([MemorySink()])
    registry = JobRegistry(tmp_path / "registry")
    supervisor = Supervisor(
        registry, jobs_dir=str(tmp_path / "jobs"), telemetry=telemetry, **kw
    )
    return registry, supervisor, telemetry


def tick_until(supervisor, predicate, timeout=60.0, poll=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        supervisor.tick()
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition not reached within timeout")


def wait_until(predicate, timeout=60.0, poll=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError("condition not reached within timeout")


def checkpoint_records(jobs_dir, job_id):
    records = []
    for path in sorted(
        glob.glob(os.path.join(jobs_dir, job_id, "checkpoints", "*.jsonl"))
    ):
        records.extend(EvaluationDatabase(path=path))
    return records


def store_eval_lines(path):
    """Parsed non-header store lines (every line must parse)."""
    lines = [json.loads(raw) for raw in open(path)]
    return [d for d in lines if "format" not in d]


class TestPooledCompletion:
    def test_pooled_job_matches_unpooled_fingerprint(self, tmp_path):
        registry, sup, tel = make_service(tmp_path, pool_size=2)
        rec, decision = sup.submit(jspec())
        assert decision.admitted
        tick_until(sup, lambda: registry.get(rec.job_id).state == JobState.DONE)
        done = registry.get(rec.job_id)
        assert done.result["fingerprint"] == baseline_fingerprint(tmp_path)
        sup.close_pool()
        registry.close()

    def test_pool_reuses_processes_across_jobs(self, tmp_path):
        registry, sup, _ = make_service(tmp_path, pool_size=1)
        recs = [sup.submit(jspec())[0] for _ in range(4)]
        tick_until(
            sup,
            lambda: all(
                registry.get(r.job_id).state == JobState.DONE for r in recs
            ),
        )
        snap = sup.pool.snapshot()
        # Four jobs, one slot, zero respawns: one long-lived process
        # (generation 1) served them all.
        assert snap["respawns"] == 0
        assert snap["generations"] == [1]
        sup.close_pool()
        registry.close()

    def test_pool_gauges_and_clean_close(self, tmp_path):
        registry, sup, tel = make_service(tmp_path, pool_size=2)
        recs = [sup.submit(jspec())[0] for _ in range(2)]
        assert sup.run(drain_when_idle=True, poll_interval=0.01) is True
        for rec in recs:
            assert registry.get(rec.job_id).state == JobState.DONE
        # run() closed the pool on its clean exit.
        assert all(slot.process is None for slot in sup.pool.slots)
        gauges = tel.metrics.snapshot()["gauges"]
        assert "service_pool_slots{state=busy}" in gauges
        assert "service_pool_slots{state=idle}" in gauges
        registry.close()


class TestPooledWorkerKill:
    """SIGKILL a pooled worker mid-job: the slot respawns, the job
    requeues, and the resumed attempt is bit-identical."""

    def test_sigkill_pooled_worker_exactly_once_bit_identical(self, tmp_path):
        params = dict(SLOW)
        reference = baseline_fingerprint(tmp_path, params)
        registry, sup, tel = make_service(tmp_path, pool_size=2)
        jobs_dir = str(tmp_path / "jobs")
        recs = [sup.submit(jspec(params))[0] for _ in range(2)]

        killed: set[str] = set()
        chaos_round = 0
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            busy = sup.tick()
            for lease in sup.active_leases():
                if lease.job_id in killed:
                    continue
                if checkpoint_records(jobs_dir, lease.job_id):
                    time.sleep(chaos_uniform(400 + chaos_round, 0.0, 0.15))
                    chaos_round += 1
                    if lease.process.is_alive():
                        os.kill(lease.pid, signal.SIGKILL)
                    killed.add(lease.job_id)
            if not busy:
                break
            time.sleep(0.01)

        assert killed, "chaos never killed a pooled worker"
        assert sup.pool.respawns >= 1  # the slot healed itself
        for rec in recs:
            done = registry.get(rec.job_id)
            assert done.state == JobState.DONE, (done.job_id, done.error)
            assert done.result["fingerprint"] == reference
            evals = checkpoint_records(jobs_dir, rec.job_id)
            assert len(evals) == params["budget"]
            configs = [tuple(sorted(r.config.items())) for r in evals]
            assert len(set(configs)) == len(configs), "duplicated evaluations"
        counters = tel.metrics.snapshot()["counters"]
        assert counters.get("service_pool_respawns{reason=worker_lost}", 0) >= 1
        sup.close_pool()
        registry.close()


class TestRunLoopUnderFaults:
    """The kill and stall tests above drive ``tick()`` by hand; these
    drive ``run()``, so the loop's blocking wait itself must notice the
    fault: a stopped worker by timing out, a killed one by EOF."""

    def run_slow_job(self, tmp_path, fault, poll_interval, **kw):
        """Run one SLOW job under ``run()``, apply ``fault`` to its
        worker once it has checkpointed, and return the seconds until the
        registry moved the job to a new epoch (the faulted lease ended)
        plus the service's counters.  The job must still finish
        bit-identically, exactly once per evaluation."""
        params = dict(SLOW)
        reference = baseline_fingerprint(tmp_path, params)
        registry, sup, tel = make_service(tmp_path, pool_size=2, **kw)
        jobs_dir = str(tmp_path / "jobs")
        loop = threading.Thread(
            target=sup.run, kwargs={"poll_interval": poll_interval},
            daemon=True,
        )
        loop.start()
        try:
            rec, _ = sup.submit(jspec(params))
            wait_until(lambda: checkpoint_records(jobs_dir, rec.job_id))
            time.sleep(chaos_uniform(700, 0.0, 0.1))
            lease = sup.active_leases()[0]
            os.kill(lease.pid, fault)
            t0 = time.monotonic()
            wait_until(lambda: registry.get(rec.job_id).epoch > lease.epoch)
            ended_after = time.monotonic() - t0
            wait_until(lambda: registry.get(rec.job_id).state == JobState.DONE)
        finally:
            sup.request_drain()
            loop.join(60)
        assert not loop.is_alive()
        done = registry.get(rec.job_id)
        assert done.result["fingerprint"] == reference
        evals = checkpoint_records(jobs_dir, rec.job_id)
        assert len(evals) == params["budget"]
        configs = [tuple(sorted(r.config.items())) for r in evals]
        assert len(set(configs)) == len(configs), "duplicated evaluations"
        registry.close()
        return ended_after, tel.metrics.snapshot()["counters"]

    def test_sigstopped_worker_expires_when_the_wait_times_out(self, tmp_path):
        hb, missed, poll = 0.05, 4, 0.1
        ended_after, counters = self.run_slow_job(
            tmp_path, signal.SIGSTOP, poll,
            heartbeat_interval=hb, max_missed=missed,
        )
        # The last beat may be seen up to one poll late, and expiry is
        # checked up to one poll after the deadline: one poll of slack
        # beyond the bound, plus scheduling noise.
        assert ended_after < missed * hb + poll + poll + 0.5
        assert counters["service_leases_expired"] >= 1
        assert counters["service_pool_respawns{reason=expired}"] >= 1

    def test_sigkilled_worker_wakes_the_loop_by_eof(self, tmp_path):
        # A 5 s poll and a 2 s heartbeat deadline: only EOF on the
        # slot's pipe can end the lease within a second.
        ended_after, counters = self.run_slow_job(tmp_path, signal.SIGKILL, 5.0)
        assert ended_after < 1.0
        assert counters["service_pool_respawns{reason=worker_lost}"] >= 1


class TestDrainUnderPool:
    def test_drain_then_restart_finishes_backlog(self, tmp_path):
        reference = baseline_fingerprint(tmp_path, SLOW)
        registry, sup, _ = make_service(tmp_path, pool_size=1)
        jobs_dir = str(tmp_path / "jobs")
        recs = [sup.submit(jspec(SLOW))[0] for _ in range(2)]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not sup.active_leases():
            sup.tick()
            time.sleep(0.01)
        time.sleep(chaos_uniform(500, 0.0, 0.2))
        sup.request_drain()
        assert sup.run(poll_interval=0.01) is True
        assert registry.queue_depth() == 2  # nothing lost, nothing leased
        assert all(slot.process is None for slot in sup.pool.slots)
        registry.close()

        registry = JobRegistry(tmp_path / "registry")
        sup = Supervisor(registry, jobs_dir=jobs_dir, pool_size=2)
        sup.recover()
        assert sup.run(drain_when_idle=True, poll_interval=0.01) is True
        for rec in recs:
            done = registry.get(rec.job_id)
            assert done.state == JobState.DONE
            assert done.result["fingerprint"] == reference
        registry.close()


class TestCrossJobStore:
    def test_second_identical_job_served_from_store(self, tmp_path):
        reference = baseline_fingerprint(tmp_path)
        store_path = tmp_path / "evals.jsonl"
        registry, sup, tel = make_service(
            tmp_path, pool_size=1, eval_store=store_path
        )
        first, _ = sup.submit(jspec())
        tick_until(
            sup, lambda: registry.get(first.job_id).state == JobState.DONE
        )
        second, _ = sup.submit(jspec())
        tick_until(
            sup, lambda: registry.get(second.job_id).state == JobState.DONE
        )

        budget = FAST["budget"]
        done1 = registry.get(first.job_id)
        done2 = registry.get(second.job_id)
        # ISSUE acceptance: >= 90% cross-job hits, zero duplicated
        # objective evaluations, fingerprints byte-identical to the
        # unpooled cold-store baseline.
        memo = done2.result["memo"]
        assert memo["cross_job_hits"] >= 0.9 * budget
        assert memo["misses"] == 0
        assert done1.result["fingerprint"] == reference
        assert done2.result["fingerprint"] == reference
        # The store holds exactly the first job's measurements: the
        # second job added nothing (no duplicated evaluations service-wide).
        assert len(store_eval_lines(store_path)) == done1.result["memo"]["misses"]
        # Workers publish memo counters in their metrics snapshots; the
        # supervisor folds them into the service-wide merged view.
        counters = sup.metrics_snapshot()["counters"]
        assert counters["service_memo_hits{scope=cross_job}"] >= 0.9 * budget
        sup.close_pool()
        registry.close()

    def test_concurrent_jobs_race_the_store_safely(self, tmp_path):
        reference = baseline_fingerprint(tmp_path)
        store_path = tmp_path / "evals.jsonl"
        registry, sup, _ = make_service(
            tmp_path, pool_size=2, eval_store=store_path
        )
        recs = [sup.submit(jspec())[0] for _ in range(2)]
        tick_until(
            sup,
            lambda: all(
                registry.get(r.job_id).state == JobState.DONE for r in recs
            ),
        )
        total_misses = 0
        for rec in recs:
            done = registry.get(rec.job_id)
            assert done.result["fingerprint"] == reference
            total_misses += done.result["memo"]["misses"]
        # Racing writers interleave whole lines only; the store ends up
        # with exactly one record per fresh evaluation.
        lines = store_eval_lines(store_path)
        assert len(lines) == total_misses
        keys = {(d["space"], d["key"], json.dumps(d["provenance"], sort_keys=True))
                for d in lines}
        assert len(keys) == len(lines)  # record() never duplicated a key
        sup.close_pool()
        registry.close()

    def test_noisy_job_bypasses_store(self, tmp_path):
        store_path = tmp_path / "evals.jsonl"
        registry, sup, _ = make_service(
            tmp_path, pool_size=1, eval_store=store_path
        )
        rec, _ = sup.submit(jspec({**FAST, "noise": 0.01}))
        tick_until(sup, lambda: registry.get(rec.job_id).state == JobState.DONE)
        done = registry.get(rec.job_id)
        assert "memo" not in done.result
        assert not os.path.exists(store_path)
        sup.close_pool()
        registry.close()

    def test_kill_and_resume_with_torn_store_tail(self, tmp_path):
        """A worker dies mid-append: the torn final store line is repaired
        by the next writer and the resumed job still matches baseline."""
        params = dict(SLOW)
        reference = baseline_fingerprint(tmp_path, params)
        store_path = tmp_path / "evals.jsonl"
        registry, sup, _ = make_service(
            tmp_path, pool_size=1, eval_store=store_path
        )
        jobs_dir = str(tmp_path / "jobs")
        rec, _ = sup.submit(jspec(params))

        tick_until(
            sup,
            lambda: bool(
                sup.active_leases()
                and checkpoint_records(jobs_dir, rec.job_id)
            ),
        )
        time.sleep(chaos_uniform(600, 0.0, 0.1))
        lease = sup.active_leases()[0]
        if lease.process.is_alive():
            os.kill(lease.pid, signal.SIGKILL)
        # Simulate the kill landing mid-append: a torn final store line.
        with open(store_path, "a") as f:
            f.write('{"space": "torn", "key": "{\\"x\\"')

        tick_until(sup, lambda: registry.get(rec.job_id).state == JobState.DONE)
        done = registry.get(rec.job_id)
        assert done.result["fingerprint"] == reference
        evals = checkpoint_records(jobs_dir, rec.job_id)
        assert len(evals) == params["budget"]
        # The resumed attempt's writer repaired the tear: every line in
        # the store parses and the torn fragment is gone.
        for d in store_eval_lines(store_path):
            assert d["space"] != "torn"
        sup.close_pool()
        registry.close()

    def test_methodology_job_uses_store(self, tmp_path):
        params = {"budget": 6, "variations": 4, "seed": 0}
        reference = baseline_fingerprint(tmp_path, params, kind="methodology")
        store_path = tmp_path / "evals.jsonl"
        registry, sup, _ = make_service(
            tmp_path, pool_size=1, eval_store=store_path
        )
        first, _ = sup.submit(jspec(params, kind="methodology"))
        tick_until(
            sup, lambda: registry.get(first.job_id).state == JobState.DONE,
            timeout=120.0,
        )
        second, _ = sup.submit(jspec(params, kind="methodology"))
        tick_until(
            sup, lambda: registry.get(second.job_id).state == JobState.DONE,
            timeout=120.0,
        )
        done1 = registry.get(first.job_id)
        done2 = registry.get(second.job_id)
        assert done1.result["fingerprint"] == reference
        assert done2.result["fingerprint"] == reference
        assert done2.result["memo"]["misses"] == 0
        assert done2.result["memo"]["cross_job_hits"] > 0
        sup.close_pool()
        registry.close()
