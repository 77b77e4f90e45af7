"""The cached scrambled Sobol' engine proposes the rebuild-per-point points.

``QMCSampler`` keeps one scrambled engine per ``prepare()`` and advances
it one point per proposal, rebuilding it (construct, then
``fast_forward``) only for an index other than the next one; it also
remembers the last point for the driver's same-index re-asks.  The
reference below is the rebuild-per-point algorithm the cache replaces:
a fresh ``Sobol(d, scramble=True, seed)`` fast-forwarded to every index.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.stats import qmc as scipy_qmc

from repro.search.samplers import qmc as qmc_module
from repro.search.samplers.driver import SamplerSearch
from repro.search.samplers.qmc import QMCSampler
from repro.space import Real, SearchSpace

from ..space.test_space import make_space


def reference_point(dim: int, seed: int, index: int) -> np.ndarray:
    sob = scipy_qmc.Sobol(d=dim, scramble=True, seed=seed)
    if index:
        sob.fast_forward(index)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return sob.random(1)[0]


def scramble_seed(seed_seq: np.random.SeedSequence) -> int:
    """The scramble seed ``prepare()`` derives from its stream."""
    return int(np.random.default_rng(seed_seq).integers(0, 2**63))


class CountingQMC:
    """Stands in for ``scipy.stats.qmc``, counting Sobol' constructions."""

    def __init__(self):
        self.built = 0

    def Sobol(self, *args, **kwargs):
        self.built += 1
        return scipy_qmc.Sobol(*args, **kwargs)


@pytest.fixture
def counter(monkeypatch):
    c = CountingQMC()
    monkeypatch.setattr(qmc_module, "_scipy_qmc", c)
    return c


def unit_space(dim: int) -> SearchSpace:
    return SearchSpace([Real(f"x{i}", 0.0, 1.0) for i in range(dim)])


class ReferenceQMCSampler(QMCSampler):
    """Today's proposals the old way: rebuild and fast-forward per point."""

    def _point(self, index: int) -> np.ndarray:
        return reference_point(self._dim, self._sobol_seed, index)


@pytest.mark.parametrize("dim", [1, 4, 20])
@pytest.mark.parametrize("entropy", [0, 17, 2**40 + 3])
def test_cached_engine_matches_rebuild_per_point(dim, entropy, counter):
    space = unit_space(dim)
    seed_seq = np.random.SeedSequence(entropy)
    seed = scramble_seed(seed_seq)
    sampler = QMCSampler(engine="sobol")
    # In order, a jump back, a jump forward, a same-index repeat.
    order = list(range(64)) + [5, 40, 40]
    for round_no in (1, 2):  # a second prepare() with the same material
        sampler.prepare(space, seed_seq, 64)
        for i in order:
            np.testing.assert_array_equal(
                sampler._point(i), reference_point(dim, seed, i)
            )
        # One construction per prepare() plus one per out-of-order
        # index (5, then 40 after 5); the repeat of 40 builds nothing.
        assert counter.built == 3 * round_no


def test_remembered_point_comes_back_as_a_copy(counter):
    sampler = QMCSampler(engine="sobol")
    sampler.prepare(unit_space(4), np.random.SeedSequence(3), 8)
    first = sampler._point(7)
    want = first.copy()
    first[:] = -1.0
    np.testing.assert_array_equal(sampler._point(7), want)
    assert counter.built == 1


def test_dimension_change_re_prepare_drops_the_engine(counter):
    sampler = QMCSampler(engine="sobol")
    rng = np.random.default_rng(0)
    a = sampler.suggest([], unit_space(3), rng)
    b = sampler.suggest([], unit_space(5), rng)
    assert len(a) == 3 and len(b) == 5
    assert counter.built == 2


def test_driver_re_asks_reuse_the_remembered_point(counter):
    """Infeasible points are re-asked at the same index up to 64 times;
    none of those re-asks may rebuild the scrambled engine."""

    def objective(cfg):
        return float(cfg["tb"] * cfg["tb_sm"] + abs(cfg["x"]) + cfg["u"])

    def run(sampler):
        search = SamplerSearch(
            make_space(), objective, sampler,
            max_evaluations=40, random_state=11,
        )
        return search, search.run()

    cached_search, cached = run(QMCSampler(engine="sobol"))
    assert counter.built == 1
    ref_search, ref = run(ReferenceQMCSampler(engine="sobol"))
    assert cached_search.invalid_proposals == ref_search.invalid_proposals > 64
    assert [r.config for r in cached.database] == [r.config for r in ref.database]
    assert cached.meta == ref.meta
