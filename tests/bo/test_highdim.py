"""Tests for the related-work high-dimensional BO strategies."""

import numpy as np
import pytest

from repro.bo import AdditiveBO, DropoutBO, RandomEmbeddingBO
from repro.search import RandomSampler, SamplerSearch
from repro.space import ExpressionConstraint, Real, SearchSpace


def space(d=12):
    return SearchSpace([Real(f"x{i}", 0.0, 1.0) for i in range(d)], name="hd")


def low_effective_dim(c):
    """12 visible dims, 3 effective dims."""
    return (c["x0"] - 0.3) ** 2 + (c["x5"] - 0.7) ** 2 + (c["x9"] - 0.5) ** 2 + 0.01


class TestRandomEmbedding:
    def test_finds_low_dim_structure(self):
        r = RandomEmbeddingBO(
            space(), low_effective_dim, latent_dim=4,
            max_evaluations=50, random_state=0,
        ).run()
        assert r.best_objective < 0.15

    def test_projection_always_in_domain(self):
        bo = RandomEmbeddingBO(space(), low_effective_dim, latent_dim=3,
                               random_state=0)
        for z in bo._sample_latent(50):
            cfg = bo._project(z)
            for p in bo.space.parameters:
                assert p.contains(cfg[p.name])

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomEmbeddingBO(space(), low_effective_dim, latent_dim=0)


class TestDropout:
    def test_runs_and_improves(self):
        drop, rand = [], []
        for seed in range(3):
            r = DropoutBO(
                space(), low_effective_dim, active_dims=4,
                max_evaluations=50, random_state=seed,
            ).run()
            drop.append(r.best_objective)
            rs = SamplerSearch(space(), low_effective_dim, RandomSampler(),
                               max_evaluations=50, random_state=seed).run()
            rand.append(rs.best_objective)
        assert np.mean(drop) <= np.mean(rand) * 1.2

    def test_respects_constraints(self):
        sp = SearchSpace(
            [Real("a", 0.0, 1.0), Real("b", 0.0, 1.0), Real("c", 0.0, 1.0)],
            [ExpressionConstraint("a + b <= 1.2")],
        )
        r = DropoutBO(sp, lambda cfg: cfg["a"] + cfg["b"] + cfg["c"] + 0.1,
                      active_dims=2, max_evaluations=20, random_state=0).run()
        for rec in r.database:
            assert rec.config["a"] + rec.config["b"] <= 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            DropoutBO(space(), low_effective_dim, active_dims=0)
        with pytest.raises(ValueError):
            DropoutBO(space(3), low_effective_dim, active_dims=5)


class TestAdditive:
    def test_correct_decomposition_works_well(self):
        """Truly additive objective + correct groups: near-optimal."""
        sp = space(8)

        def additive(c):
            return sum((c[f"x{i}"] - 0.4) ** 2 for i in range(8)) + 0.01

        groups = [[f"x{i}" for i in range(0, 4)], [f"x{i}" for i in range(4, 8)]]
        add, rand = [], []
        for seed in range(3):
            r = AdditiveBO(sp, additive, groups, max_evaluations=60,
                           random_state=seed).run()
            add.append(r.best_objective)
            rs = SamplerSearch(sp, additive, RandomSampler(),
                               max_evaluations=60, random_state=seed).run()
            rand.append(rs.best_objective)
        # On average competitive with random search and inside the
        # optimum's basin.  (The other group's contribution acts as
        # observation noise for each group GP, so exact convergence is not
        # expected at this budget.)
        assert np.mean(add) <= np.mean(rand) * 1.1
        assert np.mean(add) < 0.35

    def test_wrong_decomposition_hurts(self):
        """A strong cross-group interaction breaks the additive model —
        the failure mode the methodology's interdependence analysis
        prevents."""
        sp = space(6)

        def coupled(c):
            # x0 and x3 interact multiplicatively across the group split.
            return (c["x0"] * c["x3"] - 0.25) ** 2 + sum(
                (c[f"x{i}"] - 0.5) ** 2 for i in (1, 2, 4, 5)
            ) + 0.01

        wrong = [["x0", "x1", "x2"], ["x3", "x4", "x5"]]
        scores_wrong, scores_joint = [], []
        for seed in range(3):
            w = AdditiveBO(sp, coupled, wrong, max_evaluations=40,
                           random_state=seed).run()
            scores_wrong.append(w.best_objective)
            from repro.bo import BayesianOptimizer

            j = BayesianOptimizer(sp, coupled, max_evaluations=40,
                                  random_state=seed).run()
            scores_joint.append(j.best_objective)
        assert np.mean(scores_joint) <= np.mean(scores_wrong) * 1.1

    def test_groups_must_partition(self):
        sp = space(4)
        with pytest.raises(ValueError):
            AdditiveBO(sp, low_effective_dim, [["x0", "x1"]])
        with pytest.raises(ValueError):
            AdditiveBO(sp, low_effective_dim, [["x0", "x1"], ["x1", "x2", "x3"]])


class TestCommon:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda sp, f: RandomEmbeddingBO(sp, f, latent_dim=3,
                                            max_evaluations=15, random_state=1),
            lambda sp, f: DropoutBO(sp, f, active_dims=3,
                                    max_evaluations=15, random_state=1),
            lambda sp, f: AdditiveBO(
                sp, f,
                [[f"x{i}" for i in range(0, 6)], [f"x{i}" for i in range(6, 12)]],
                max_evaluations=15, random_state=1,
            ),
        ],
    )
    def test_budget_and_result_shape(self, factory):
        r = factory(space(), low_effective_dim).run()
        assert r.n_evaluations == 15
        assert np.isfinite(r.best_objective)
        assert len(r.trajectory) >= 1
