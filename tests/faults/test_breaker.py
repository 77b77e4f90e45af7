"""Circuit breaker: cell mapping, trip semantics, and end-to-end
quarantine of a poison region (zero evaluations after the trip)."""

import pytest

from repro.faults import (
    CircuitBreaker,
    FailureKind,
    FaultPlan,
    PoisonRegion,
)
from repro.search import SearchCampaign, SearchSpec
from repro.space import Real, SearchSpace


def space_1d(name="B"):
    return SearchSpace([Real("x", 0.0, 1.0)], name=name)


class TestBreakerUnit:
    def test_trips_after_threshold_permanent_failures(self):
        br = CircuitBreaker(space_1d(), threshold=3, resolution=4)
        cfg = {"x": 0.1}
        assert br.record(cfg, FailureKind.PERMANENT) is False
        assert br.record(cfg, FailureKind.PERMANENT) is False
        assert br.allows(cfg)
        assert br.record(cfg, FailureKind.PERMANENT) is True  # trip
        assert not br.allows(cfg)
        assert br.is_quarantined({"x": 0.2})  # same cell [0, 0.25)
        assert br.allows({"x": 0.3})  # next cell untouched
        assert br.n_tripped == 1

    def test_transient_and_timeout_do_not_count(self):
        br = CircuitBreaker(space_1d(), threshold=1, resolution=4)
        cfg = {"x": 0.1}
        assert br.record(cfg, FailureKind.TRANSIENT) is False
        assert br.record(cfg, FailureKind.TIMEOUT) is False
        assert br.record(cfg, FailureKind.WORKER_LOST) is False
        assert br.record(cfg, None) is False
        assert br.allows(cfg)
        assert br.record(cfg, FailureKind.NUMERIC) is True  # counted kind

    def test_accepts_string_kinds_from_checkpoints(self):
        br = CircuitBreaker(space_1d(), threshold=1)
        assert br.record({"x": 0.1}, "permanent") is True

    def test_cell_resolution(self):
        br = CircuitBreaker(space_1d(), threshold=1, resolution=4)
        assert br.cell({"x": 0.0}) == (0,)
        assert br.cell({"x": 0.26}) == (1,)
        assert br.cell({"x": 1.0}) == (3,)  # clipped into the top cell

    def test_summary_is_jsonl_safe(self):
        import json

        br = CircuitBreaker(space_1d(), threshold=1, resolution=4)
        br.record({"x": 0.1}, FailureKind.PERMANENT)
        s = br.summary()
        assert json.loads(json.dumps(s)) == s
        assert s["cells"] == [[0]]
        assert s["failures_counted"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(space_1d(), threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(space_1d(), resolution=0)


class PoisonAware:
    """Picklable objective; the fault plan provides the poison."""

    def __call__(self, cfg):
        return float(cfg["x"]) + 0.05


class TestQuarantineEndToEnd:
    def test_poison_region_gets_zero_evaluations_after_trip(self):
        # Poison the first breaker cell [0, 0.25); after `threshold`
        # permanent failures there, the engine must never sample it again.
        threshold = 3
        spec = SearchSpec(
            space_1d("Q"),
            PoisonAware(),
            engine="random",
            max_evaluations=60,
            fault_plan=FaultPlan(poison=(PoisonRegion({"x": [0.0, 0.2499]}),)),
            quarantine_threshold=threshold,
            quarantine_resolution=4,
        )
        result = SearchCampaign([spec], random_state=0).run()
        search = result.searches[0]

        failed = [r for r in search.database if not r.ok]
        assert all(r.meta["failure_kind"] == "permanent" for r in failed)
        # Exactly `threshold` failures were paid before the trip; every
        # evaluation after it stays out of the quarantined cell.
        assert len(failed) == threshold
        tripped_at = max(
            i for i, r in enumerate(search.database) if not r.ok
        )
        for rec in list(search.database)[tripped_at + 1:]:
            assert rec.config["x"] >= 0.25

        assert search.meta["quarantined"]["cells"] == [[0]]
        assert search.meta["quarantine_skipped"] > 0

    def test_bo_engine_quarantines_too(self):
        spec = SearchSpec(
            space_1d("QB"),
            PoisonAware(),
            engine="bo",
            max_evaluations=15,
            fault_plan=FaultPlan(poison=(PoisonRegion({"x": [0.0, 0.2499]}),)),
            quarantine_threshold=2,
            quarantine_resolution=4,
            engine_options={"n_initial": 5, "n_candidates": 64},
        )
        result = SearchCampaign([spec], random_state=3).run()
        search = result.searches[0]
        failed_idx = [i for i, r in enumerate(search.database) if not r.ok]
        if search.meta.get("quarantined"):
            trip = failed_idx[1]  # threshold=2 -> second failure trips
            for rec in list(search.database)[trip + 1:]:
                assert rec.config["x"] >= 0.25

    def test_quarantine_state_survives_resume(self, tmp_path):
        plan = FaultPlan(poison=(PoisonRegion({"x": [0.0, 0.2499]}),))

        def spec(n):
            return SearchSpec(
                space_1d("R"),
                PoisonAware(),
                engine="random",
                max_evaluations=n,
                fault_plan=plan,
                quarantine_threshold=2,
                quarantine_resolution=4,
            )

        # First leg: enough samples to trip the breaker.
        first = SearchCampaign(
            [spec(30)], random_state=1, checkpoint_dir=str(tmp_path)
        ).run()
        assert first.searches[0].meta.get("quarantined")

        # Resumed leg: the breaker is replayed from the checkpointed
        # failure kinds, so the extension never re-enters the cell.
        second = SearchCampaign(
            [spec(50)], random_state=1, checkpoint_dir=str(tmp_path)
        ).run()
        db = second.searches[0].database
        fresh = list(db)[30:]
        assert fresh  # the resume actually extended the search
        for rec in fresh:
            assert rec.config["x"] >= 0.25


class TestBreakerPersistence:
    """Breaker state rides in the checkpoint scope (sidecar file) and is
    restored exactly on resume — partial counts included."""

    def test_state_dict_roundtrip(self):
        br = CircuitBreaker(space_1d(), threshold=3, resolution=4)
        br.record({"x": 0.1}, FailureKind.PERMANENT)
        br.record({"x": 0.1}, FailureKind.PERMANENT)
        br.record({"x": 0.9}, FailureKind.NUMERIC)
        clone = CircuitBreaker(space_1d(), threshold=3, resolution=4)
        clone.load_state(br.state_dict())
        assert clone.state_dict() == br.state_dict()
        assert clone.total_counted == 3
        # One more failure in the partially-counted cell trips it — the
        # pre-crash partial count was preserved, not re-derived.
        assert clone.record({"x": 0.2}, FailureKind.PERMANENT) is True

    def test_tripped_cells_restored(self):
        br = CircuitBreaker(space_1d(), threshold=1, resolution=4)
        br.record({"x": 0.1}, FailureKind.PERMANENT)
        clone = CircuitBreaker(space_1d(), threshold=1, resolution=4)
        clone.load_state(br.state_dict())
        assert not clone.allows({"x": 0.2})
        assert clone.allows({"x": 0.3})

    def test_geometry_mismatch_ignored(self):
        br = CircuitBreaker(space_1d(), threshold=1, resolution=4)
        br.record({"x": 0.1}, FailureKind.PERMANENT)
        other = CircuitBreaker(space_1d(), threshold=1, resolution=8)
        other.load_state(br.state_dict())
        assert other.total_counted == 0  # snapshot rejected, state clean
        assert other.allows({"x": 0.1})

    def test_persist_and_restore_sidecar(self, tmp_path):
        from repro.faults.breaker import (
            breaker_sidecar_path,
            persist_breaker,
            restore_breaker,
        )

        ckpt = tmp_path / "S-0.jsonl"
        br = CircuitBreaker(space_1d(), threshold=2, resolution=4)
        br.record({"x": 0.1}, FailureKind.PERMANENT)
        persist_breaker(br, ckpt)
        assert (tmp_path / "S-0.jsonl.breaker.json").exists()
        assert breaker_sidecar_path(ckpt).endswith(".breaker.json")

        fresh = CircuitBreaker(space_1d(), threshold=2, resolution=4)
        assert restore_breaker(fresh, ckpt) is True
        assert fresh.total_counted == 1

    def test_restore_missing_or_corrupt_returns_false(self, tmp_path):
        from repro.faults.breaker import persist_breaker, restore_breaker

        br = CircuitBreaker(space_1d(), threshold=2, resolution=4)
        assert restore_breaker(br, tmp_path / "absent.jsonl") is False
        assert restore_breaker(br, None) is False
        bad = tmp_path / "bad.jsonl"
        (tmp_path / "bad.jsonl.breaker.json").write_text("{not json")
        assert restore_breaker(br, bad) is False
        # Empty (no counts) sidecar also reports False: nothing restored.
        empty = CircuitBreaker(space_1d(), threshold=2, resolution=4)
        persist_breaker(empty, tmp_path / "empty.jsonl")
        assert restore_breaker(br, tmp_path / "empty.jsonl") is False


class TestBreakerKillAndResume:
    def test_sidecar_restored_without_double_counting(self, tmp_path):
        import os

        from repro.bo import EvaluationDatabase
        from repro.faults.breaker import breaker_sidecar_path
        from repro.faults.injection import FaultyObjective
        from repro.search import RandomSampler, SamplerSearch

        plan = FaultPlan(poison=(PoisonRegion({"x": [0.0, 0.2499]}),))
        ckpt = tmp_path / "KR.jsonl"

        def search():
            # Threshold high enough never to trip: the state at stake is
            # the *partial* per-cell counts only the sidecar preserves
            # exactly.
            return SamplerSearch(
                space_1d("KR"),
                FaultyObjective(PoisonAware(), plan),
                RandomSampler(),
                max_evaluations=20,
                quarantine_threshold=50,
                quarantine_resolution=4,
                database=EvaluationDatabase(path=ckpt),
                random_state=7,
            )

        first = search()
        first.run()
        c1 = first.breaker.total_counted
        assert c1 > 0  # the poison region was actually hit
        assert os.path.exists(breaker_sidecar_path(ckpt))

        # "Crash" + resume: a fresh search on the same checkpoint restores
        # the sidecar and must NOT also replay the checkpointed failures
        # (which would double every count).
        second = search()
        second.run()
        assert second.breaker.total_counted == c1
        assert second.breaker.state_dict() == first.breaker.state_dict()

        # Fallback path: without the sidecar the breaker is rebuilt from
        # the records and (with no partial retry state) agrees exactly.
        os.unlink(breaker_sidecar_path(ckpt))
        third = search()
        third.run()
        assert third.breaker.state_dict() == first.breaker.state_dict()

    def test_bo_restore_prefers_sidecar_over_replay(self, tmp_path):
        from repro.bo import BayesianOptimizer, EvaluationDatabase
        from repro.faults.breaker import persist_breaker

        ckpt = tmp_path / "BO.jsonl"

        def optimizer():
            return BayesianOptimizer(
                space_1d("BO"),
                PoisonAware(),
                max_evaluations=8,
                quarantine_threshold=5,
                quarantine_resolution=4,
                database=EvaluationDatabase(path=ckpt),
                resume=True,
                random_state=7,
            )

        first = optimizer()
        # Simulate pre-crash breaker state with *partial* counts that no
        # record replay could reconstruct (e.g. counts from evaluations
        # whose records were lost with an unsynced trace).
        first.breaker.record({"x": 0.1}, FailureKind.PERMANENT)
        first.breaker.record({"x": 0.1}, FailureKind.PERMANENT)
        persist_breaker(first.breaker, ckpt)

        second = optimizer()
        assert second._restore_breaker_state() is True
        assert second.breaker.total_counted == 2
        assert second.breaker.state_dict() == first.breaker.state_dict()
