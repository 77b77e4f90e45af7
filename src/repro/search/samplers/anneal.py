"""Simulated annealing over the neighbourhood graph.

The second classical empirical baseline next to hill climbing
(:mod:`.hillclimb`).  Each proposal is a uniformly chosen feasible
one-parameter neighbour of the chain's current point; a worse outcome
is still accepted with the Metropolis probability
``exp(-relative_increase / T)`` under a geometric temperature schedule
over the member's budget.  Temperatures scale *relative* objective
increases, so runtimes of any magnitude work without tuning.

The chain is replayed from the history on every proposal — record *j*
is the outcome of the proposal made at index *j* — and the Metropolis
draw for record *j* is element *j* of a sequence fixed in
:meth:`AnnealSampler.prepare` from the run-stable seed, so a resumed
search recomputes the same acceptances.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from .base import BaseSampler, SamplerCapabilities, register_sampler
from .hillclimb import kept

__all__ = ["AnnealSampler"]


@register_sampler
class AnnealSampler(BaseSampler):
    """Metropolis annealing with a geometric temperature schedule.

    Parameters
    ----------
    t_initial / t_final:
        Temperature schedule endpoints; geometric decay over the budget.
    """

    name = "anneal"
    capabilities = SamplerCapabilities(
        floats=True,
        integers=True,
        categorical=True,
        multivariate=False,
        conditional=True,
        warm_start=True,  # seeded records start the chain
    )

    def __init__(self, t_initial: float = 0.3, t_final: float = 0.005):
        if t_initial <= 0 or t_final <= 0 or t_final > t_initial:
            raise ValueError("need t_initial >= t_final > 0")
        self.t_initial = float(t_initial)
        self.t_final = float(t_final)
        self._budget: int | None = None
        self._uniforms: np.ndarray | None = None

    def prepare(self, space, seed_seq: np.random.SeedSequence, budget: int) -> None:
        """Fix the schedule length and the Metropolis draws for ``budget``."""
        self._budget = int(budget)
        self._uniforms = np.random.default_rng(seed_seq).random(self._budget)

    def _temperature(self, i: int) -> float:
        frac = i / max(1, self._budget - 1)
        return self.t_initial * (self.t_final / self.t_initial) ** frac

    def _current(self, history: Sequence) -> tuple[dict[str, Any], float] | None:
        """The chain's point after replaying ``history`` (``None`` until
        the first successful record)."""
        if self._uniforms is None:
            raise RuntimeError("AnnealSampler needs prepare() first")
        point = None
        for j, rec in enumerate(history):
            if not rec.ok:
                continue
            if point is None:
                point = (rec.config, rec.objective)
                continue
            rel = (rec.objective - point[1]) / max(abs(point[1]), 1e-12)
            if rel <= 0 or self._uniforms[j] < math.exp(
                -rel / self._temperature(j + 1)
            ):
                point = (rec.config, rec.objective)
        return point

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any]:
        point = self._current(history)
        moves = space.neighbors(kept(space, point[0])) if point else []
        if not moves:
            return space.sample(rng)
        return moves[int(rng.integers(0, len(moves)))]
