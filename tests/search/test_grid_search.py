"""Tests for the grid-search baseline."""

import itertools
import types

import numpy as np
import pytest

from repro.search import GridSampler, SamplerSearch, schedule_makespan
from repro.search.samplers import grid as grid_module
from repro.space import (
    Categorical,
    ExpressionConstraint,
    Integer,
    Ordinal,
    Real,
    SearchSpace,
)
from repro.synthetic import SyntheticFunction


def small_space():
    return SearchSpace([Integer("x", 0, 4), Integer("y", 0, 4)], name="gs")


def grid_search(space, objective, budget=None, parallelism=None, **options):
    """Grid search on the generic driver; ``budget=None`` walks the whole
    grid (its size is the budget)."""
    sampler = GridSampler(**options)
    return SamplerSearch(
        space,
        objective,
        sampler,
        max_evaluations=sampler.grid_size(space) if budget is None else budget,
        parallelism=parallelism,
    )


class TestExhaustive:
    def test_finds_exact_optimum(self):
        gs = grid_search(small_space(), lambda c: (c["x"] - 3) ** 2 + (c["y"] - 1) ** 2 + 1)
        r = gs.run()
        assert r.best_config["x"] == 3 and r.best_config["y"] == 1
        assert r.best_objective == 1
        assert r.n_evaluations == 25

    def test_grid_size(self):
        assert GridSampler().grid_size(small_space()) == 25

    def test_constraints_skipped_not_counted_as_best(self):
        sp = SearchSpace(
            [Integer("x", 0, 4), Integer("y", 0, 4)],
            [ExpressionConstraint("x + y >= 2")],
        )
        r = grid_search(sp, lambda c: c["x"] + c["y"] + 0.5).run()
        assert r.best_objective == pytest.approx(2.5)
        assert r.n_evaluations == 22  # the grid is exhausted before the budget

    def test_continuous_axes_discretized(self):
        sp = SearchSpace([Real("a", 0.0, 1.0)])
        assert GridSampler(points_per_axis=4).grid_size(sp) == 4
        r = grid_search(sp, lambda c: abs(c["a"] - 0.33) + 0.1, points_per_axis=4).run()
        assert r.best_config["a"] == pytest.approx(1 / 3, abs=0.01)


class TestBudgeted:
    def test_strided_subset(self):
        gs = grid_search(small_space(), lambda c: c["x"] + c["y"] + 1, budget=10)
        r = gs.run()
        assert r.n_evaluations <= 10

    def test_infeasible_grid_raises(self):
        sp = SearchSpace(
            [Integer("x", 0, 4)], [ExpressionConstraint("x > 100")]
        )
        with pytest.raises(RuntimeError, match="no feasible"):
            grid_search(sp, lambda c: 1.0).run()


class TestValidation:
    def test_points_per_axis(self):
        with pytest.raises(ValueError):
            GridSampler(points_per_axis=1)

    def test_failures_recorded(self):
        def flaky(c):
            if c["x"] == 2:
                raise RuntimeError("boom")
            return float(c["x"] + c["y"] + 1)

        r = grid_search(small_space(), flaky).run()
        assert r.best_config["x"] != 2
        assert any(not rec.ok for rec in r.database)

    def test_ordinal_axes_native_grid(self):
        sp = SearchSpace([Ordinal("u", [1, 2, 4, 8])])
        r = grid_search(sp, lambda c: 1.0 / c["u"]).run()
        assert r.best_config["u"] == 8
        assert r.n_evaluations == 4


def product_walk(sampler, space, budget):
    """The strided enumeration as ``_iter_grid`` used to walk it: every
    grid tuple in ``itertools.product`` order, keeping each stride-th."""
    names = space.names
    total = sampler.grid_size(space)
    stride = max(1, total // budget)
    return [
        dict(zip(names, combo))
        for i, combo in enumerate(itertools.product(*sampler.axes(space)))
        if i % stride == 0
    ]


def varied_cost(cfg):
    """A deterministic objective whose costs differ between points."""
    return 1.0 + sum(
        len(v) if isinstance(v, str) else abs(float(v)) for v in cfg.values()
    ) % 5.0


class TestDirectIndexing:
    SPACES = {
        "small": small_space,
        "mixed": lambda: SearchSpace(
            [
                Integer("tb", 32, 1024),
                Integer("tb_sm", 1, 32),
                Real("x", -50.0, 50.0),
                Ordinal("u", [1, 2, 4, 8]),
            ],
            [ExpressionConstraint("tb * tb_sm <= 2048")],
        ),
        "categorical": lambda: SearchSpace(
            [Categorical("c", ["a", "b", "c"]), Integer("n", 0, 6), Real("r", 0.0, 1.0)]
        ),
        "synthetic-6d": lambda: SyntheticFunction(case=1)
        .search_space()
        .subspace([f"x{i}" for i in range(6)]),
    }

    @pytest.mark.parametrize("budget", [None, 1, 3, 7, 16, 50, 1000])
    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_matches_the_product_walk(self, space_name, budget):
        space = self.SPACES[space_name]()
        sampler = GridSampler()
        if budget is None:
            budget = sampler.grid_size(space)
        assert list(sampler.strided(space, budget)) == product_walk(
            sampler, space, budget
        )

    @pytest.mark.parametrize("parallelism", [None, 2])
    @pytest.mark.parametrize("budget", [1, 3, 7, 16, 50])
    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_records_are_the_feasible_product_walk(
        self, space_name, budget, parallelism
    ):
        """The driver evaluates the walk's feasible points in order, stops
        at the budget or the walk's end (1 of 3 and 2 of 7 points on the
        constrained "mixed" space), and reports the makespan of their
        costs."""
        space = self.SPACES[space_name]()
        want = [
            cfg for cfg in product_walk(GridSampler(), space, budget)
            if space.is_valid(cfg)
        ][:budget]
        r = grid_search(space, varied_cost, budget=budget, parallelism=parallelism).run()
        complete = getattr(space, "complete", dict)
        assert [rec.config for rec in r.database] == [complete(c) for c in want]
        costs = np.array([varied_cost(complete(c)) for c in want])
        assert [rec.cost for rec in r.database] == list(costs)
        assert r.search_time == schedule_makespan(costs, parallelism or len(want))

    def test_budgeted_20d_grid_finishes(self, monkeypatch):
        """4^20 ~ 1.1e12 grid points with a stride of ~6.9e10: the 16
        budgeted points must not cost a walk over the skipped ones."""
        pulled = 0
        real_product = itertools.product

        def bounded_product(*axes):
            nonlocal pulled
            for combo in real_product(*axes):
                pulled += 1
                if pulled > 100_000:
                    raise AssertionError("walked the grid tuple by tuple")
                yield combo

        monkeypatch.setattr(
            grid_module,
            "itertools",
            types.SimpleNamespace(product=bounded_product),
            raising=False,
        )
        app = SyntheticFunction(case=1)
        assert GridSampler().grid_size(app.search_space()) == 4**20
        r = grid_search(app.search_space(), app, budget=16).run()
        assert r.n_evaluations == 16
        assert pulled <= 100_000
