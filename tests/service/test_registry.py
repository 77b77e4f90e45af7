"""WAL job registry: transitions, recovery, torn tails, compaction."""

import json
import os
import random

import pytest

from repro.service import (
    IllegalTransition,
    JobRegistry,
    JobSpec,
    JobState,
    RegistryError,
)
from repro.service.registry import SNAPSHOT_NAME, WAL_NAME


def spec(job_id=None, tenant="default", **params):
    return JobSpec(kind="campaign", job_id=job_id, tenant=tenant, params=params)


class TestSubmitAndTransitions:
    def test_submit_assigns_id_and_queues(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            rec = reg.submit(spec())
            assert rec.state == JobState.QUEUED
            assert rec.job_id.startswith("job-")
            assert reg.queue_depth() == 1

    def test_wal_is_header_then_events(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            reg.submit(spec(job_id="a"))
        lines = [
            json.loads(s)
            for s in (tmp_path / WAL_NAME).read_text().splitlines()
        ]
        assert lines[0]["event"] == "header"
        assert [e["event"] for e in lines[1:]] == ["submit", "transition"]
        assert [e["seq"] for e in lines[1:]] == [1, 2]

    def test_duplicate_job_id_rejected(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            reg.submit(spec(job_id="a"))
            with pytest.raises(RegistryError, match="duplicate"):
                reg.submit(spec(job_id="a"))

    def test_illegal_transition_raises(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            rec = reg.submit(spec())
            with pytest.raises(IllegalTransition):
                reg.transition(rec.job_id, JobState.DONE)  # queued -> done
            with pytest.raises(IllegalTransition):
                reg.transition(rec.job_id, "nonsense")

    def test_terminal_states_are_final(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            rec = reg.submit(spec())
            reg.transition(rec.job_id, JobState.CANCELLED)
            with pytest.raises(IllegalTransition):
                reg.transition(rec.job_id, JobState.QUEUED)

    def test_lease_bumps_epoch_and_attempt(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            rec = reg.submit(spec())
            leased = reg.lease(rec.job_id, owner="w0")
            assert (leased.epoch, leased.attempt) == (1, 1)
            assert leased.owner == "w0"
            requeued = reg.requeue(rec.job_id, "lease_expired")
            assert (requeued.epoch, requeued.attempt) == (2, 1)
            assert requeued.reason == "lease_expired"
            leased = reg.lease(rec.job_id, owner="w1")
            assert (leased.epoch, leased.attempt) == (3, 2)

    def test_rejection_recorded_explicitly(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            rec = reg.submit(spec(), reject_reason="queue_full")
            assert rec.state == JobState.REJECTED
            assert rec.reason == "queue_full"
            assert reg.queue_depth() == 0

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            JobRegistry(tmp_path, fsync="sometimes")


class TestRecovery:
    def test_reopen_reconstructs_state(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            a = reg.submit(spec(job_id="a")).job_id
            b = reg.submit(spec(job_id="b")).job_id
            reg.lease(a, owner="w0")
            reg.transition(a, JobState.RUNNING, owner="w0")
            reg.transition(b, JobState.CANCELLED)
            seq = reg.seq
        with JobRegistry(tmp_path) as reg:
            assert reg.seq == seq
            assert reg.get("a").state == JobState.RUNNING
            assert reg.get("a").epoch == 1
            assert reg.get("b").state == JobState.CANCELLED
            assert not reg.recovered_torn_tail

    def test_torn_tail_dropped_and_appendable(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            reg.submit(spec(job_id="a"))
        with open(tmp_path / WAL_NAME, "a") as f:
            f.write('{"event": "transition", "job": "a", "sta')  # power cut
        with JobRegistry(tmp_path) as reg:
            assert reg.recovered_torn_tail
            assert reg.get("a").state == JobState.QUEUED
            reg.lease("a", owner="w0")  # appends cleanly after repair
        with JobRegistry(tmp_path) as reg:
            assert reg.get("a").state == JobState.LEASED

    def test_corrupt_interior_line_raises(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            reg.submit(spec(job_id="a"))
        lines = (tmp_path / WAL_NAME).read_text().splitlines()
        lines[1] = "not json at all"
        (tmp_path / WAL_NAME).write_text("\n".join(lines) + "\n")
        with pytest.raises(RegistryError, match="corrupt"):
            JobRegistry(tmp_path)

    def test_recover_orphans_requeues_in_flight(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            a = reg.submit(spec(job_id="a")).job_id
            b = reg.submit(spec(job_id="b")).job_id
            reg.lease(a, owner="w0")
            reg.lease(b, owner="w1")
            reg.transition(b, JobState.RUNNING, owner="w1")
        with JobRegistry(tmp_path) as reg:
            orphans = reg.recover_orphans()
            assert {r.job_id for r in orphans} == {"a", "b"}
            for job_id in ("a", "b"):
                rec = reg.get(job_id)
                assert rec.state == JobState.QUEUED
                assert rec.reason == "orphaned"
                assert rec.epoch == 2  # fenced past the dead lease


class TestCompaction:
    def fill(self, reg):
        done = reg.submit(spec(job_id="done-job")).job_id
        reg.lease(done, owner="w0")
        reg.transition(done, JobState.RUNNING, owner="w0")
        reg.transition(done, JobState.DONE, result={"fingerprint": "f"})
        reg.submit(spec(job_id="waiting"))

    def test_compact_truncates_wal_and_preserves_state(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            self.fill(reg)
            before = {r.job_id: r.to_dict() for r in reg.jobs()}
            seq = reg.seq
            reg.compact()
            # WAL is now header-only; snapshot carries the state.
            lines = (tmp_path / WAL_NAME).read_text().splitlines()
            assert len(lines) == 1
            assert (tmp_path / SNAPSHOT_NAME).exists()
            # Post-compaction appends still work.
            reg.submit(spec(job_id="later"))
        with JobRegistry(tmp_path) as reg:
            assert {r.job_id: r.to_dict() for r in reg.jobs()} == {
                **before,
                "later": reg.get("later").to_dict(),
            }
            assert reg.seq > seq

    def test_crash_between_snapshot_and_wal_truncate(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            self.fill(reg)
            stale_wal = (tmp_path / WAL_NAME).read_bytes()
            before = {r.job_id: r.to_dict() for r in reg.jobs()}
            reg.compact()
        # Simulate dying after the snapshot rename but before the WAL
        # replace: the old WAL (all seqs <= snapshot seq) reappears.
        (tmp_path / WAL_NAME).write_bytes(stale_wal)
        with JobRegistry(tmp_path) as reg:
            # Replay must skip the already-snapshotted events.
            assert {r.job_id: r.to_dict() for r in reg.jobs()} == before
            assert reg.get("done-job").state == JobState.DONE


TENANTS = ("t0", "t1", "t2")


def assert_indexes_match(reg):
    recs = reg.jobs()  # full scan, submission order
    queued = [r.job_id for r in recs if r.state == JobState.QUEUED]
    active = [r.spec.tenant for r in recs if r.state in JobState.ACTIVE]
    assert [r.job_id for r in reg.queued()] == queued
    assert reg.queue_depth() == len(queued)
    assert reg.active_count() == len(active)
    for tenant in TENANTS:
        assert reg.active_count(tenant) == active.count(tenant)


def random_ops(reg, rng, n):
    """``n`` random legal operations, checking the indexes after each."""
    active = (JobState.QUEUED, JobState.LEASED, JobState.RUNNING)
    for _ in range(n):
        op = rng.choice(
            ["submit", "submit", "reject", "lease", "running", "requeue",
             "done", "fail", "cancel"]
        )
        if op in ("submit", "reject"):
            reg.submit(
                spec(tenant=rng.choice(TENANTS)),
                reject_reason="queue_full" if op == "reject" else None,
            )
        else:
            states = {
                "lease": (JobState.QUEUED,),
                "running": (JobState.LEASED,),
                "requeue": (JobState.LEASED, JobState.RUNNING),
                "done": (JobState.RUNNING,),
                "fail": active,
                "cancel": active,
            }[op]
            picks = [r.job_id for r in reg.jobs() if r.state in states]
            if not picks:
                continue
            job_id = rng.choice(picks)
            if op == "lease":
                reg.lease(job_id, owner="w0")
            elif op == "requeue":
                reg.requeue(job_id, "lease_expired")
            else:
                state = {
                    "running": JobState.RUNNING, "done": JobState.DONE,
                    "fail": JobState.FAILED, "cancel": JobState.CANCELLED,
                }[op]
                reg.transition(job_id, state)
        assert_indexes_match(reg)


class TestQueries:
    def test_fifo_queue_and_counts(self, tmp_path):
        with JobRegistry(tmp_path) as reg:
            reg.submit(spec(job_id="a", tenant="t1"))
            reg.submit(spec(job_id="b", tenant="t2"))
            reg.submit(spec(job_id="c", tenant="t1"))
            reg.lease("a", owner="w0")
            assert [r.job_id for r in reg.queued()] == ["b", "c"]
            assert reg.queue_depth() == 2
            assert reg.active_count() == 3
            assert reg.active_count("t1") == 2
            assert reg.active_count("t3") == 0
            assert "a" in reg and "z" not in reg
            assert len(reg) == 3
            with pytest.raises(KeyError, match="unknown job"):
                reg.get("z")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_indexes_match_brute_force_scans(self, tmp_path, seed):
        """The queue and active-count indexes agree with full scans after
        every random transition, across compaction, snapshot load + WAL
        replay, and a torn WAL tail."""
        rng = random.Random(seed)
        with JobRegistry(tmp_path) as reg:
            random_ops(reg, rng, 150)
            reg.compact()
            random_ops(reg, rng, 60)
        with JobRegistry(tmp_path) as reg:
            assert_indexes_match(reg)
            random_ops(reg, rng, 60)
        wal = tmp_path / WAL_NAME
        wal.write_bytes(wal.read_bytes()[:-7])  # power cut mid-event
        with JobRegistry(tmp_path) as reg:
            assert reg.recovered_torn_tail
            assert_indexes_match(reg)
            random_ops(reg, rng, 30)

    def test_close_is_idempotent(self, tmp_path):
        reg = JobRegistry(tmp_path)
        reg.submit(spec(job_id="a"))
        reg.close()
        reg.close()
        with JobRegistry(tmp_path) as reopened:
            assert reopened.get("a").state == JobState.QUEUED
