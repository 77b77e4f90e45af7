"""Tests for the grid-search baseline."""

import itertools
import types

import pytest

from repro.search import GridSearch
from repro.search import grid_search as grid_search_module
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


class TestExhaustive:
    def test_finds_exact_optimum(self):
        gs = GridSearch(small_space(), lambda c: (c["x"] - 3) ** 2 + (c["y"] - 1) ** 2 + 1)
        r = gs.run()
        assert r.best_config["x"] == 3 and r.best_config["y"] == 1
        assert r.best_objective == 1
        assert r.n_evaluations == 25

    def test_grid_size(self):
        gs = GridSearch(small_space(), lambda c: 1.0)
        assert gs.grid_size() == 25

    def test_constraints_skipped_not_counted_as_best(self):
        sp = SearchSpace(
            [Integer("x", 0, 4), Integer("y", 0, 4)],
            [ExpressionConstraint("x + y >= 2")],
        )
        r = GridSearch(sp, lambda c: c["x"] + c["y"] + 0.5).run()
        assert r.best_objective == pytest.approx(2.5)

    def test_continuous_axes_discretized(self):
        sp = SearchSpace([Real("a", 0.0, 1.0)])
        gs = GridSearch(sp, lambda c: abs(c["a"] - 0.33) + 0.1, points_per_axis=4)
        assert gs.grid_size() == 4
        r = gs.run()
        assert r.best_config["a"] == pytest.approx(1 / 3, abs=0.01)


class TestBudgeted:
    def test_strided_subset(self):
        gs = GridSearch(small_space(), lambda c: c["x"] + c["y"] + 1, max_evaluations=10)
        r = gs.run()
        assert r.n_evaluations <= 10

    def test_hard_limit_guards_exhaustive_runs(self):
        sp = SearchSpace([Integer(f"p{i}", 0, 9) for i in range(8)])  # 10^8
        gs = GridSearch(sp, lambda c: 1.0, hard_limit=1000)
        with pytest.raises(RuntimeError, match="hard_limit"):
            gs.run()

    def test_infeasible_grid_raises(self):
        sp = SearchSpace(
            [Integer("x", 0, 4)], [ExpressionConstraint("x > 100")]
        )
        with pytest.raises(RuntimeError, match="no feasible"):
            GridSearch(sp, lambda c: 1.0).run()


class TestValidation:
    def test_points_per_axis(self):
        with pytest.raises(ValueError):
            GridSearch(small_space(), lambda c: 1.0, points_per_axis=1)

    def test_failures_recorded(self):
        def flaky(c):
            if c["x"] == 2:
                raise RuntimeError("boom")
            return float(c["x"] + c["y"] + 1)

        r = GridSearch(small_space(), flaky).run()
        assert r.best_config["x"] != 2
        assert any(not rec.ok for rec in r.database)

    def test_ordinal_axes_native_grid(self):
        sp = SearchSpace([Ordinal("u", [1, 2, 4, 8])])
        gs = GridSearch(sp, lambda c: 1.0 / c["u"])
        r = gs.run()
        assert r.best_config["u"] == 8
        assert r.n_evaluations == 4


def product_walk(gs):
    """The strided enumeration as ``_iter_grid`` used to walk it: every
    grid tuple in ``itertools.product`` order, keeping each stride-th."""
    names = gs.space.names
    total = gs.grid_size()
    stride = max(1, total // (gs.max_evaluations or total))
    return [
        dict(zip(names, combo))
        for i, combo in enumerate(itertools.product(*gs._axes()))
        if i % stride == 0
    ]


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
        gs = GridSearch(
            self.SPACES[space_name](), lambda c: 1.0, max_evaluations=budget
        )
        assert list(gs._iter_grid()) == product_walk(gs)

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
            grid_search_module,
            "itertools",
            types.SimpleNamespace(product=bounded_product),
            raising=False,
        )
        app = SyntheticFunction(case=1)
        gs = GridSearch(app.search_space(), app, max_evaluations=16)
        assert gs.grid_size() == 4**20
        r = gs.run()
        assert r.n_evaluations == 16
        assert pulled <= 100_000
