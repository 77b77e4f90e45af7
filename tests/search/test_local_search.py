"""Tests for the local-search baselines."""

import numpy as np
import pytest

from repro.search import (
    AnnealSampler,
    HillClimbSampler,
    RandomSampler,
    SamplerSearch,
)
from repro.space import ExpressionConstraint, Integer, Ordinal, SearchSpace


def hill_climbing(space, objective, **kwargs):
    return SamplerSearch(space, objective, HillClimbSampler(), **kwargs)


def annealing(space, objective, **kwargs):
    return SamplerSearch(space, objective, AnnealSampler(), **kwargs)


def discrete_space():
    return SearchSpace(
        [Integer("x", 0, 20), Integer("y", 0, 20)], name="local"
    )


def bowl(c):
    return (c["x"] - 13) ** 2 + (c["y"] - 6) ** 2 + 1.0


class TestHillClimbing:
    def test_descends_to_optimum(self):
        r = hill_climbing(discrete_space(), bowl, max_evaluations=150,
                          random_state=0).run()
        assert r.best_objective == pytest.approx(1.0)
        assert r.best_config["x"] == 13 and r.best_config["y"] == 6

    def test_budget_respected(self):
        r = hill_climbing(discrete_space(), bowl, max_evaluations=37,
                          random_state=0).run()
        assert r.n_evaluations == 37

    def test_restarts_escape_local_minima(self):
        """A two-basin objective: restarts must eventually find the
        deeper basin."""
        def two_basins(c):
            a = (c["x"] - 3) ** 2 + (c["y"] - 3) ** 2 + 5.0
            b = (c["x"] - 17) ** 2 + (c["y"] - 17) ** 2 + 1.0
            return min(a, b)

        r = hill_climbing(discrete_space(), two_basins, max_evaluations=400,
                          random_state=1).run()
        assert r.best_objective == pytest.approx(1.0)

    def test_respects_constraints(self):
        sp = SearchSpace(
            [Integer("x", 0, 20), Integer("y", 0, 20)],
            [ExpressionConstraint("x + y <= 20")],
        )
        r = hill_climbing(sp, bowl, max_evaluations=120, random_state=0).run()
        for rec in r.database:
            assert rec.config["x"] + rec.config["y"] <= 20

    def test_failures_skipped(self):
        def flaky(c):
            if c["x"] == 10:
                raise RuntimeError("boom")
            return bowl(c)

        r = hill_climbing(discrete_space(), flaky, max_evaluations=120,
                          random_state=0).run()
        assert r.best_config["x"] != 10


class TestSimulatedAnnealing:
    def test_finds_optimum_on_bowl(self):
        r = annealing(discrete_space(), bowl, max_evaluations=400,
                      random_state=0).run()
        assert r.best_objective <= 3.0  # near the basin floor

    def test_beats_or_matches_random(self):
        sa_best, rs_best = [], []
        for seed in range(3):
            sa = annealing(discrete_space(), bowl,
                           max_evaluations=150, random_state=seed).run()
            rs = SamplerSearch(discrete_space(), bowl, RandomSampler(),
                               max_evaluations=150, random_state=seed).run()
            sa_best.append(sa.best_objective)
            rs_best.append(rs.best_objective)
        assert np.mean(sa_best) <= np.mean(rs_best) + 1.0

    def test_temperature_schedule(self):
        sa = AnnealSampler(t_initial=1.0, t_final=0.01)
        sa.prepare(discrete_space(), np.random.SeedSequence(0), 100)
        assert sa._temperature(0) == pytest.approx(1.0)
        assert sa._temperature(99) == pytest.approx(0.01)
        assert sa._temperature(50) < sa._temperature(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealSampler(t_initial=0.0)
        with pytest.raises(ValueError):
            AnnealSampler(t_initial=0.1, t_final=0.5)
        with pytest.raises(ValueError):
            hill_climbing(discrete_space(), bowl, max_evaluations=0)

    def test_ordinal_space(self):
        sp = SearchSpace([Ordinal("u", [1, 2, 4, 8, 16])], name="ord")
        r = annealing(sp, lambda c: abs(c["u"] - 8) + 1.0,
                      max_evaluations=40, random_state=0).run()
        assert r.best_config["u"] == 8
