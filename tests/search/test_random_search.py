"""Tests for the random-search baseline."""

import pytest

from repro.bo import EvaluationStatus
from repro.search import RandomSampler, SamplerSearch
from repro.space import ExpressionConstraint, Integer, Real, SearchSpace


def random_search(space, objective, **kwargs):
    """Random search on the generic driver."""
    return SamplerSearch(space, objective, RandomSampler(), **kwargs)


def space():
    return SearchSpace([Real("a", 0.0, 1.0), Real("b", 0.0, 1.0)], name="rs")


def objective(cfg):
    return (cfg["a"] - 0.5) ** 2 + cfg["b"] + 0.1


class TestBasics:
    def test_budget_and_best(self):
        r = random_search(space(), objective, max_evaluations=50, random_state=0).run()
        assert r.n_evaluations == 50
        assert r.engine == "random"
        assert 0.1 <= r.best_objective < 0.5
        assert r.best_objective == pytest.approx(objective(r.best_config), rel=1e-12)

    def test_default_budget(self):
        rs = random_search(space(), objective)
        assert rs.max_evaluations == 20

    def test_respects_constraints(self):
        sp = SearchSpace(
            [Integer("x", 0, 9), Integer("y", 0, 9)],
            [ExpressionConstraint("x + y <= 9")],
        )
        r = random_search(sp, lambda c: c["x"] + c["y"] + 1, max_evaluations=30,
                         random_state=0).run()
        for rec in r.database:
            assert rec.config["x"] + rec.config["y"] <= 9

    def test_deterministic_given_seed(self):
        a = random_search(space(), objective, max_evaluations=20, random_state=9).run()
        b = random_search(space(), objective, max_evaluations=20, random_state=9).run()
        assert a.best_objective == b.best_objective

    def test_validation(self):
        with pytest.raises(ValueError):
            random_search(space(), objective, max_evaluations=0)
        with pytest.raises(ValueError):
            random_search(space(), objective, parallelism=0)


class TestParallelAccounting:
    def test_fully_parallel_time_is_max_cost(self):
        r = random_search(space(), objective, max_evaluations=40, random_state=0).run()
        costs = [rec.cost for rec in r.database]
        assert r.search_time == pytest.approx(max(costs))

    def test_limited_parallelism_interpolates(self):
        full = random_search(space(), objective, max_evaluations=40, random_state=0).run()
        p4 = random_search(
            space(), objective, max_evaluations=40, parallelism=4, random_state=0
        ).run()
        p1 = random_search(
            space(), objective, max_evaluations=40, parallelism=1, random_state=0
        ).run()
        total = sum(rec.cost for rec in p1.database)
        assert p1.search_time == pytest.approx(total)
        assert full.search_time < p4.search_time < p1.search_time
        # Greedy scheduling is near sum/slots for uniform-ish costs.
        assert p4.search_time >= total / 4

    def test_random_much_faster_than_sequential_same_budget(self):
        """The Table III effect: parallel random search's wall-clock is a
        tiny fraction of the sequential sum."""
        r = random_search(space(), objective, max_evaluations=100, random_state=1).run()
        total = sum(rec.cost for rec in r.database)
        assert r.search_time < 0.05 * total


class TestFailures:
    def test_failing_objective_recorded(self):
        def flaky(cfg):
            if cfg["a"] > 0.8:
                raise RuntimeError("boom")
            return cfg["a"] + 0.1

        r = random_search(space(), flaky, max_evaluations=40, random_state=0).run()
        failed = [rec for rec in r.database if rec.status == EvaluationStatus.FAILED]
        assert failed
        assert r.best_config["a"] <= 0.8

    def test_timeout(self):
        def slow(cfg):
            return 1000.0 if cfg["a"] > 0.5 else 1.0

        r = random_search(
            space(), slow, max_evaluations=20, evaluation_timeout=10.0, random_state=0
        ).run()
        tos = [rec for rec in r.database if rec.status == EvaluationStatus.TIMEOUT]
        assert tos
        assert all(rec.cost == 10.0 for rec in tos)
        assert r.best_objective == pytest.approx(1.0)
