"""Strided grid enumeration: the second classic baseline.

Grid search is the second classic baseline named in the paper's related
work ("random search, along with other approaches such as grid search, has
been demonstrated to be not as accurate as Bayesian optimization ... in
massive search spaces").  For the 20-dimensional spaces of the paper an
exhaustive grid is astronomically infeasible — the point this sampler
makes quantitatively via :meth:`GridSampler.grid_size` — so the member's
budget keeps a uniformly strided subset of the enumeration instead.

The design is deterministic and seedless: :meth:`GridSampler.prepare`
fixes the strided points from the budget, and the proposal for database
record *i* is the *i*-th feasible one, so a resumed search continues at
exactly the next point.  ``None`` once the design is exhausted; a caller
who wants the whole grid passes its size as the budget.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Sequence

import numpy as np

from ...space import InfeasibleSpaceError, Real
from .base import BaseSampler, SamplerCapabilities, register_sampler

__all__ = ["GridSampler"]


@register_sampler
class GridSampler(BaseSampler):
    """Grid enumeration with a budgeted stride.

    Parameters
    ----------
    points_per_axis:
        Grid resolution for continuous (``Real``) axes.
    max_points_per_discrete_axis:
        Discrete axes use their full native grids up to this bound, above
        which they are subsampled to quantiles (an Integer axis of
        cardinality 1024 would otherwise explode the grid).
    """

    name = "grid"
    capabilities = SamplerCapabilities(
        floats=True,
        integers=True,
        categorical=True,
        multivariate=False,
        conditional=True,
        warm_start=False,
    )

    def __init__(
        self, points_per_axis: int = 4, max_points_per_discrete_axis: int = 32
    ):
        if points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")
        if max_points_per_discrete_axis < 2:
            raise ValueError("max_points_per_discrete_axis must be >= 2")
        self.points_per_axis = int(points_per_axis)
        self.max_points_per_discrete_axis = int(max_points_per_discrete_axis)
        self._points: list[dict[str, Any]] | None = None

    # ------------------------------------------------------------------
    def axes(self, space) -> list[list[Any]]:
        """The grid values of each parameter, in ``space.names`` order."""
        return [
            p.grid(
                self.points_per_axis
                if isinstance(p, Real)
                else self.max_points_per_discrete_axis
            )
            for p in space.parameters
        ]

    def grid_size(self, space) -> int:
        """Number of raw grid points (before constraint filtering)."""
        return math.prod(len(a) for a in self.axes(space))

    def strided(self, space, budget: int) -> Iterator[dict[str, Any]]:
        """Every ``total // budget``-th grid point in ``itertools.product``
        order (last axis fastest).

        Each kept flat index is decoded straight into per-axis digits
        (mixed radix), so the cost is per point kept, not per grid point
        skipped: a 20-dim grid of 4^20 points yields its 16 budgeted
        points at once instead of walking 10^12 tuples.
        """
        names = space.names
        axes = self.axes(space)
        total = math.prod(len(a) for a in axes)
        stride = max(1, total // budget)
        for flat in range(0, total, stride):
            combo, rest = [], flat
            for axis in reversed(axes):
                rest, digit = divmod(rest, len(axis))
                combo.append(axis[digit])
            yield dict(zip(names, reversed(combo)))

    def prepare(self, space, seed_seq: np.random.SeedSequence, budget: int) -> None:
        """Fix the feasible strided points for ``budget``.

        Raises :class:`~repro.space.InfeasibleSpaceError` when no grid
        point is feasible.
        """
        self._points = [
            cfg for cfg in self.strided(space, budget)
            if self.candidate_is_valid(space, cfg)
        ]
        if not self._points:
            raise InfeasibleSpaceError(
                f"grid search found no feasible point in {space.name!r}"
            )

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any] | None:
        """The ``len(history)``-th feasible strided point (``None`` past
        the last one)."""
        if self._points is None:
            raise RuntimeError("GridSampler.suggest needs prepare() first")
        i = len(history)
        return dict(self._points[i]) if i < len(self._points) else None
