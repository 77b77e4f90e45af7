"""Watchdog: real wall-clock deadlines on genuinely hanging objectives,
in-process and through the campaign executor's checkpoint path."""

import time

import pytest

from repro.bo import EvaluationDatabase
from repro.faults import EvaluationTimeoutError, FailureKind, WatchdogObjective
from repro.search import SearchCampaign, SearchSpec
from repro.space import Real, SearchSpace


def hang_forever(cfg):
    time.sleep(3600)


class HangAbove:
    """Picklable objective that genuinely hangs for part of the space."""

    def __init__(self, cut=0.5):
        self.cut = cut

    def __call__(self, cfg):
        if cfg["a"] > self.cut:
            time.sleep(3600)
        return float(cfg["a"]) + 0.1


class TestWatchdogObjective:
    def test_hanging_objective_terminated_within_twice_timeout(self):
        wd = WatchdogObjective(hang_forever, timeout=0.4)
        t0 = time.perf_counter()
        with pytest.raises(EvaluationTimeoutError):
            wd({"a": 1.0})
        elapsed = time.perf_counter() - t0
        assert elapsed < 2 * 0.4  # the issue's acceptance bound
        assert wd.timeouts == 1

    def test_fast_objective_passes_through(self):
        wd = WatchdogObjective(lambda cfg: cfg["a"] * 2, timeout=5.0)
        assert wd({"a": 2.0}) == 4.0
        assert wd.timeouts == 0

    def test_objective_exception_reraised_with_original_type(self):
        def bad(cfg):
            raise ValueError("permanent")

        wd = WatchdogObjective(bad, timeout=5.0)
        with pytest.raises(ValueError):
            wd({"a": 1.0})

    def test_timeout_error_is_classified_timeout(self):
        exc = EvaluationTimeoutError("deadline")
        assert exc.failure_kind is FailureKind.TIMEOUT

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            WatchdogObjective(hang_forever, timeout=0.0)


class TestWatchdogInCampaign:
    def test_hangs_recorded_as_wallclock_timeouts_in_checkpoint(self, tmp_path):
        space = SearchSpace([Real("a", 0.0, 1.0)], name="W")
        # Scrambled Sobol' puts its first two points in different halves
        # of [0, 1] for every seed, so both halves are always sampled.
        spec = SearchSpec(
            space,
            HangAbove(0.5),
            engine="qmc",
            max_evaluations=6,
            wall_timeout=0.3,
        )
        t0 = time.perf_counter()
        result = SearchCampaign(
            [spec], random_state=0, checkpoint_dir=str(tmp_path)
        ).run()
        elapsed = time.perf_counter() - t0
        # Every evaluation bounded by the deadline (+ generous slack).
        assert elapsed < 6 * 2 * 0.3 + 1.0

        search = result.searches[0]
        timeouts = [r for r in search.database if r.status == "timeout"]
        oks = [r for r in search.database if r.ok]
        assert timeouts and oks  # both halves of the space sampled
        for rec in timeouts:
            assert rec.config["a"] > 0.5
            assert rec.meta["failure_kind"] == FailureKind.TIMEOUT.value
            assert rec.meta["timeout_kind"] == "wallclock"

        # And the classification is persisted through the JSONL checkpoint.
        db = EvaluationDatabase(tmp_path / "W-0.jsonl")
        persisted = [r for r in db if r.status == "timeout"]
        assert len(persisted) == len(timeouts)
        for rec in persisted:
            assert rec.meta["failure_kind"] == "timeout"
            assert rec.meta["timeout_kind"] == "wallclock"

    def test_simulated_timeout_distinguished_from_wallclock(self):
        # Returned-value cap (simulated) vs watchdog (wallclock): the two
        # TIMEOUT flavors documented in search/result.py.
        space = SearchSpace([Real("a", 0.0, 1.0)], name="S")
        spec = SearchSpec(
            space,
            lambda cfg: cfg["a"] * 10.0 + 0.01,  # values above ~5 time out
            engine="random",
            max_evaluations=20,
            engine_options={"evaluation_timeout": 5.0},
        )
        result = SearchCampaign([spec], random_state=0).run()
        timeouts = [
            r for r in result.searches[0].database if r.status == "timeout"
        ]
        assert timeouts
        for rec in timeouts:
            assert rec.meta["timeout_kind"] == "simulated"
            assert rec.meta["failure_kind"] == FailureKind.TIMEOUT.value
            assert rec.cost == 5.0  # charged the cap, not the value


class SlowThenFast:
    """First configuration overruns the deadline but then *succeeds*;
    the zombie-writer hazard is its late result leaking into state."""

    def __call__(self, cfg):
        if cfg["a"] == 1.0:
            time.sleep(0.5)
            return 111.0
        return 222.0


class TestZombieWriterFence:
    def test_late_result_of_abandoned_thread_discarded(self):
        # Regression: before the generation fence, the abandoned thread's
        # eventual 111.0 could be published into the shared result box
        # and race a later evaluation of the same wrapper.
        wd = WatchdogObjective(SlowThenFast(), timeout=0.1)
        with pytest.raises(EvaluationTimeoutError):
            wd({"a": 1.0})
        # A later evaluation runs while the zombie still sleeps...
        assert wd({"a": 2.0}) == 222.0
        # ...and when the zombie finally completes, its result is fenced
        # off and counted, not published.
        deadline = time.perf_counter() + 5.0
        while wd.stale_completions == 0 and time.perf_counter() < deadline:
            time.sleep(0.02)
        assert wd.stale_completions == 1
        assert wd.timeouts == 1
        assert wd({"a": 3.0}) == 222.0  # wrapper state still clean

    def test_zombie_exception_also_fenced(self):
        def bad_late(cfg):
            time.sleep(0.3)
            raise ValueError("late failure from abandoned thread")

        wd = WatchdogObjective(bad_late, timeout=0.1)
        with pytest.raises(EvaluationTimeoutError):
            wd({"a": 1.0})
        deadline = time.perf_counter() + 5.0
        while wd.stale_completions == 0 and time.perf_counter() < deadline:
            time.sleep(0.02)
        # The stale ValueError was discarded, not raised anywhere.
        assert wd.stale_completions == 1

    def test_fence_state_survives_pickling(self):
        import pickle

        wd = WatchdogObjective(SlowThenFast(), timeout=0.1)
        with pytest.raises(EvaluationTimeoutError):
            wd({"a": 1.0})
        deadline = time.perf_counter() + 5.0
        while wd.stale_completions == 0 and time.perf_counter() < deadline:
            time.sleep(0.02)
        clone = pickle.loads(pickle.dumps(wd))
        assert clone.stale_completions == 1
        assert clone.timeouts == 1
        assert clone({"a": 2.0}) == 222.0  # fresh lock/generation work
