"""Tests for the BO loop: convergence, accounting, failures, recovery."""

import numpy as np
import pytest

from repro.bo import BayesianOptimizer, EvaluationDatabase, EvaluationStatus
from repro.search import RandomSampler, SamplerSearch
from repro.space import Integer, Real, SearchSpace


def quadratic_space():
    return SearchSpace([Real("a", 0.0, 1.0), Real("b", 0.0, 1.0)], name="quad")


def quadratic(cfg):
    return (cfg["a"] - 0.3) ** 2 + (cfg["b"] - 0.7) ** 2 + 0.01


class TestConvergence:
    def test_beats_random_search_on_quadratic(self):
        sp = quadratic_space()
        bo_bests, rs_bests = [], []
        for seed in range(3):
            bo = BayesianOptimizer(sp, quadratic, max_evaluations=30, random_state=seed)
            bo_bests.append(bo.run().best_objective)
            rs = SamplerSearch(sp, quadratic, RandomSampler(),
                               max_evaluations=30, random_state=seed)
            rs_bests.append(rs.run().best_objective)
        assert np.mean(bo_bests) <= np.mean(rs_bests)

    def test_finds_near_optimum(self):
        sp = quadratic_space()
        r = BayesianOptimizer(sp, quadratic, max_evaluations=40, random_state=0).run()
        assert r.best_objective < 0.05

    def test_trajectory_monotone(self):
        sp = quadratic_space()
        r = BayesianOptimizer(sp, quadratic, max_evaluations=20, random_state=1).run()
        traj = r.trajectory
        assert len(traj) == 20
        assert np.all(np.diff(traj) <= 0)


class TestBudgets:
    def test_default_budget_is_10x_dims(self):
        opt = BayesianOptimizer(quadratic_space(), quadratic)
        assert opt.max_evaluations == 20

    def test_exact_evaluation_count(self):
        r = BayesianOptimizer(
            quadratic_space(), quadratic, max_evaluations=17, random_state=0
        ).run()
        assert r.n_evaluations == 17
        assert len(r.database) == 17

    def test_n_initial_validation(self):
        with pytest.raises(ValueError):
            BayesianOptimizer(quadratic_space(), quadratic, n_initial=0)
        with pytest.raises(ValueError):
            BayesianOptimizer(
                quadratic_space(), quadratic, n_initial=10, max_evaluations=5
            )


class TestAccounting:
    def test_search_time_components(self):
        r = BayesianOptimizer(
            quadratic_space(), quadratic, max_evaluations=15, random_state=0
        ).run()
        # Objective value doubles as simulated cost.
        assert r.evaluation_cost == pytest.approx(
            sum(rec.cost for rec in r.database), rel=1e-9
        )
        assert r.modeling_overhead > 0
        assert r.search_time == pytest.approx(r.evaluation_cost + r.modeling_overhead)

    def test_modeling_overhead_cubic_in_n(self):
        small = BayesianOptimizer(
            quadratic_space(), quadratic, max_evaluations=10, random_state=0
        ).run()
        large = BayesianOptimizer(
            quadratic_space(), quadratic, max_evaluations=40, random_state=0
        ).run()
        # O(N^3) accumulation: 4x evaluations >> 4x modeling cost.
        assert large.modeling_overhead > 8 * small.modeling_overhead


class TestFailureHandling:
    def test_objective_raising_is_recorded(self):
        sp = SearchSpace([Integer("n", 0, 9)], name="f")

        def flaky(cfg):
            if cfg["n"] == 3:
                raise RuntimeError("simulated crash")
            return float(cfg["n"]) + 1.0

        r = BayesianOptimizer(sp, flaky, max_evaluations=9, random_state=0).run()
        statuses = {rec.status for rec in r.database}
        assert r.best_objective >= 1.0
        # The crash configuration is never the winner.
        assert r.best_config["n"] != 3
        assert statuses <= {EvaluationStatus.OK, EvaluationStatus.FAILED}

    def test_timeout_recorded(self):
        sp = quadratic_space()

        def slow(cfg):
            return 100.0 if cfg["a"] > 0.5 else 1.0

        opt = BayesianOptimizer(
            sp, slow, max_evaluations=12, evaluation_timeout=50.0, random_state=0
        )
        r = opt.run()
        timeouts = [rec for rec in r.database if rec.status == EvaluationStatus.TIMEOUT]
        assert timeouts, "expected at least one timeout record"
        for rec in timeouts:
            assert rec.cost <= 50.0
        assert r.best_objective == pytest.approx(1.0)

    def test_all_failures_terminates(self):
        sp = quadratic_space()

        def always_fails(cfg):
            raise RuntimeError("broken")

        opt = BayesianOptimizer(sp, always_fails, max_evaluations=5, random_state=0)
        with pytest.raises(LookupError):
            opt.run()  # database.best() on zero successes


class TestEvaluateBranches:
    """Direct coverage of the FAILED/TIMEOUT/non-finite paths and their
    simulated-cost accounting (no real machine seconds in `cost`)."""

    def test_failed_cost_is_simulated_penalty_not_wall_clock(self):
        sp = quadratic_space()

        def crash(cfg):
            raise RuntimeError("boom")

        opt = BayesianOptimizer(sp, crash, max_evaluations=5, random_state=0)
        rec = opt._evaluate({"a": 0.5, "b": 0.5})
        assert rec.status == EvaluationStatus.FAILED
        assert rec.cost == 0.0  # no timeout configured -> default penalty 0
        assert rec.meta["measured_seconds"] >= 0.0
        assert "error" in rec.meta

    def test_failed_cost_uses_timeout_as_default_penalty(self):
        def crash(cfg):
            raise RuntimeError("boom")

        opt = BayesianOptimizer(
            quadratic_space(), crash, max_evaluations=5,
            evaluation_timeout=30.0, random_state=0,
        )
        rec = opt._evaluate({"a": 0.5, "b": 0.5})
        assert rec.status == EvaluationStatus.FAILED
        assert rec.cost == 30.0

    def test_explicit_failure_cost_overrides_timeout(self):
        def crash(cfg):
            raise RuntimeError("boom")

        opt = BayesianOptimizer(
            quadratic_space(), crash, max_evaluations=5,
            evaluation_timeout=30.0, failure_cost=7.0, random_state=0,
        )
        rec = opt._evaluate({"a": 0.5, "b": 0.5})
        assert rec.cost == 7.0

    def test_timeout_charged_at_cap(self):
        opt = BayesianOptimizer(
            quadratic_space(), lambda cfg: 120.0, max_evaluations=5,
            evaluation_timeout=50.0, random_state=0,
        )
        rec = opt._evaluate({"a": 0.5, "b": 0.5})
        assert rec.status == EvaluationStatus.TIMEOUT
        assert rec.cost == 50.0
        assert rec.meta["measured_seconds"] >= 0.0

    def test_nonfinite_with_timeout_is_timeout_at_penalty(self):
        opt = BayesianOptimizer(
            quadratic_space(), lambda cfg: float("inf"), max_evaluations=5,
            evaluation_timeout=50.0, random_state=0,
        )
        rec = opt._evaluate({"a": 0.5, "b": 0.5})
        assert rec.status == EvaluationStatus.TIMEOUT
        assert rec.cost == 50.0

    def test_nonfinite_without_timeout_is_failed(self):
        opt = BayesianOptimizer(
            quadratic_space(), lambda cfg: float("nan"), max_evaluations=5,
            random_state=0,
        )
        rec = opt._evaluate({"a": 0.5, "b": 0.5})
        assert rec.status == EvaluationStatus.FAILED
        assert rec.cost == 0.0

    def test_total_cost_stays_in_simulated_units(self):
        """A crashing objective must not leak perf_counter seconds into
        the summed evaluation cost ledger."""
        sp = SearchSpace([Integer("n", 0, 9)], name="f")

        def flaky(cfg):
            if cfg["n"] == 3:
                raise RuntimeError("simulated crash")
            return float(cfg["n"]) + 1.0

        r = BayesianOptimizer(sp, flaky, max_evaluations=9, random_state=0).run()
        failed = [rec for rec in r.database if not rec.ok]
        assert all(rec.cost == 0.0 for rec in failed)
        ok_sum = sum(rec.cost for rec in r.database if rec.ok)
        assert r.evaluation_cost == pytest.approx(ok_sum)


class TestCrashRecovery:
    def test_resume_from_checkpoint(self, tmp_path):
        path = tmp_path / "bo.json"
        sp = quadratic_space()

        db = EvaluationDatabase(path)
        first = BayesianOptimizer(
            sp, quadratic, max_evaluations=10, database=db, random_state=0
        )
        first.run()
        assert len(db) == 10

        # "crash" then resume with a larger budget: replays, evaluates only
        # the remainder.
        db2 = EvaluationDatabase(path)
        assert len(db2) == 10
        second = BayesianOptimizer(
            sp, quadratic, max_evaluations=15, database=db2, random_state=1
        )
        r = second.run()
        assert r.n_evaluations == 5
        assert len(r.database) == 15

    def test_resume_with_met_budget_runs_nothing(self, tmp_path):
        path = tmp_path / "bo.json"
        sp = quadratic_space()
        db = EvaluationDatabase(path)
        BayesianOptimizer(sp, quadratic, max_evaluations=8, database=db, random_state=0).run()

        db2 = EvaluationDatabase(path)
        r = BayesianOptimizer(
            sp, quadratic, max_evaluations=8, database=db2, random_state=1
        ).run()
        assert r.n_evaluations == 0

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        """Round-trip acceptance: kill a checkpointed search mid-run,
        resume with the same seed, and the incumbent, every record, and
        the evaluation count match an uninterrupted run."""
        sp = quadratic_space()
        uninterrupted = BayesianOptimizer(
            sp, quadratic, max_evaluations=20, random_state=3
        ).run()

        calls = {"n": 0}

        def killer(cfg):
            calls["n"] += 1
            if calls["n"] > 12:
                raise KeyboardInterrupt  # hard kill, not a FAILED record
            return quadratic(cfg)

        path = tmp_path / "ck.jsonl"
        with pytest.raises(KeyboardInterrupt):
            BayesianOptimizer(
                sp, killer, max_evaluations=20,
                database=EvaluationDatabase(path), random_state=3,
            ).run()
        n_done = len(EvaluationDatabase(path))
        assert n_done == 12

        resumed = BayesianOptimizer(
            sp, quadratic, max_evaluations=20,
            database=EvaluationDatabase(path), random_state=3,
        ).run()
        # Completed evaluations replayed, only the remainder re-run ...
        assert resumed.n_evaluations == 20 - n_done
        assert len(resumed.database) == 20
        # ... and the whole history matches never having crashed.
        assert resumed.best_config == uninterrupted.best_config
        assert resumed.best_objective == uninterrupted.best_objective
        for a, b in zip(resumed.database, uninterrupted.database):
            assert a.config == b.config
            assert a.objective == b.objective

    def test_resume_mid_initial_design(self, tmp_path):
        """A crash inside the LHS initial design resumes with the same
        design points (dedicated init stream)."""
        sp = quadratic_space()
        uninterrupted = BayesianOptimizer(
            sp, quadratic, max_evaluations=12, random_state=9
        ).run()

        calls = {"n": 0}

        def killer(cfg):
            calls["n"] += 1
            if calls["n"] > 3:  # n_initial defaults to 5: die inside it
                raise KeyboardInterrupt
            return quadratic(cfg)

        path = tmp_path / "ck.jsonl"
        with pytest.raises(KeyboardInterrupt):
            BayesianOptimizer(
                sp, killer, max_evaluations=12,
                database=EvaluationDatabase(path), random_state=9,
            ).run()
        assert len(EvaluationDatabase(path)) == 3

        resumed = BayesianOptimizer(
            sp, quadratic, max_evaluations=12,
            database=EvaluationDatabase(path), random_state=9,
        ).run()
        assert resumed.n_evaluations == 9
        assert resumed.best_config == uninterrupted.best_config
        for a, b in zip(resumed.database, uninterrupted.database):
            assert a.config == b.config

    def test_seed_sequence_random_state_accepted(self):
        seed = np.random.SeedSequence(11)
        a = BayesianOptimizer(
            quadratic_space(), quadratic, max_evaluations=10, random_state=seed
        ).run()
        b = BayesianOptimizer(
            quadratic_space(), quadratic, max_evaluations=10,
            random_state=np.random.SeedSequence(11),
        ).run()
        assert a.best_config == b.best_config


class TestObjectiveMeta:
    def test_tuple_objective_captures_meta(self):
        sp = quadratic_space()

        def obj(cfg):
            return quadratic(cfg), {"region": "slater"}

        r = BayesianOptimizer(sp, obj, max_evaluations=6, random_state=0).run()
        assert all(rec.meta.get("region") == "slater" for rec in r.database)


class TestAcquisitionChoices:
    @pytest.mark.parametrize("acq", ["ei", "pi", "lcb", "ts"])
    def test_all_acquisitions_run(self, acq):
        r = BayesianOptimizer(
            quadratic_space(), quadratic, max_evaluations=12,
            acquisition=acq, random_state=0,
        ).run()
        assert r.best_objective < 0.5
