"""Hill climbing: steepest descent with random restarts.

The paper's opening taxonomy: "Autotuning has traditionally accomplished
this task by either empirical searches or analytical models.  However,
these methods are becoming infeasible due to the complexity of large
search spaces."  Hill climbing and annealing (:mod:`.anneal`) are the
classical empirical engines that make that claim measurable on the same
problems as random, grid and BO.

From the current point every feasible one-parameter neighbour
(:meth:`repro.space.SearchSpace.neighbors`) is tried in turn; after the
scan the best strictly-improving one becomes the next point.  At a
local optimum the climb restarts from a fresh random configuration.

The climb is replayed from the history on every proposal — record *i*
is the outcome of the proposal made at index *i* — so the sampler keeps
no state between calls and the driver's resume, quarantine and tracing
apply unchanged.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from .base import BaseSampler, SamplerCapabilities, register_sampler

__all__ = ["HillClimbSampler"]


def kept(space, config: Mapping[str, Any]) -> dict[str, Any]:
    """``config`` restricted to ``space``'s own parameters.

    Records hold completed configurations (a subspace's pinned values
    merged in); neighbourhoods are taken over the tuned parameters only.
    """
    return {name: config[name] for name in space.names}


@register_sampler
class HillClimbSampler(BaseSampler):
    """Greedy neighbourhood descent with random restarts."""

    name = "hillclimb"
    capabilities = SamplerCapabilities(
        floats=True,
        integers=True,
        categorical=True,
        multivariate=False,
        conditional=True,
        warm_start=True,  # seeded records start the climb
    )

    @staticmethod
    def _next_move(history: Sequence, space) -> dict[str, Any] | None:
        """The neighbour to try next, or ``None`` to (re)start."""
        current = best = None  # (config, objective) of the climb
        moves: list[dict[str, Any]] = []
        tried = 0
        for rec in history:
            if current is None:  # a restart proposal
                if rec.ok:
                    current = best = (rec.config, rec.objective)
                    moves, tried = space.neighbors(kept(space, rec.config)), 0
            else:  # the outcome of moves[tried]
                if rec.ok and rec.objective < best[1]:
                    best = (rec.config, rec.objective)
                tried += 1
            while current is not None and tried == len(moves):
                if best is current:
                    current = None  # local optimum: restart
                else:
                    current = best
                    moves, tried = space.neighbors(kept(space, best[0])), 0
        return None if current is None else moves[tried]

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any]:
        move = self._next_move(history, space)
        return space.sample(rng) if move is None else move
