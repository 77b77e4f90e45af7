"""Constrained random search: the paper's Table III baseline.

Embarrassingly parallel — every evaluation can run concurrently — so its
reported search time is the driver's makespan over ``parallelism``
slots, ``sum(costs) / parallelism`` for uniform costs: the property that
makes random search's "Time" column tiny next to inherently sequential
BO despite evaluating the same number of configurations.

The proposal for database record *i* is one feasible draw from the
driver's stream *i*, so kill-and-resume and breaker redraws replay
exactly.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .base import BaseSampler, SamplerCapabilities, register_sampler

__all__ = ["RandomSampler"]


@register_sampler
class RandomSampler(BaseSampler):
    """Uniform feasible sampling over the (constrained) space."""

    name = "random"
    capabilities = SamplerCapabilities(
        floats=True,
        integers=True,
        categorical=True,
        multivariate=False,
        conditional=True,
        warm_start=False,
    )

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any]:
        return space.sample(rng)
