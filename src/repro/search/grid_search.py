"""Exhaustive / strided grid search baseline.

Grid search is the second classic baseline named in the paper's related
work ("random search, along with other approaches such as grid search, has
been demonstrated to be not as accurate as Bayesian optimization ... in
massive search spaces").  For the 20-dimensional spaces of the paper an
exhaustive grid is astronomically infeasible — the point this engine makes
quantitatively via :meth:`GridSearch.grid_size` — so a ``max_evaluations``
budget samples a stratified subset of grid points instead.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Mapping

import numpy as np

from ..bo.history import Evaluation, EvaluationDatabase
from ..bo.optimizer import Objective
from ..space import Real, SearchSpace
from .evaluate import evaluate_config, schedule_makespan
from .result import SearchResult
from .samplers.base import BaseSampler
from .tracing import emit_eval

__all__ = ["GridSearch"]


class GridSearch:
    """Grid enumeration with an evaluation budget.

    Parameters
    ----------
    points_per_axis:
        Grid resolution for continuous (``Real``) axes.
    max_points_per_discrete_axis:
        Discrete axes use their full native grids up to this bound, above
        which they are subsampled to quantiles (an Integer axis of
        cardinality 1024 would otherwise explode the grid).
    max_evaluations:
        When the full grid exceeds this budget, a uniformly strided subset
        of the enumeration order is evaluated (deterministic, seedless).
        ``None`` evaluates the whole grid — guarded by ``hard_limit``.
    hard_limit:
        Absolute safety cap on enumerations to protect against accidentally
        exhaustive runs on huge spaces.
    database:
        Optional (checkpointed) :class:`~repro.bo.EvaluationDatabase`.
        Records already present are treated as the first feasible grid
        points *replayed*: the enumeration (deterministic and seedless,
        so stable across a crash) skips that many feasible points and
        continues — kill-and-resume is bit-identical to an uninterrupted
        run.  ``None`` (default) starts a fresh in-memory database.
    tracer:
        Optional :class:`repro.telemetry.Tracer` (pure observer —
        ``evaluation`` spans plus one ``eval`` event per record,
        replayed records included).  ``None`` (default) disables.
    """

    def __init__(
        self,
        space: SearchSpace,
        objective: Objective,
        *,
        points_per_axis: int = 4,
        max_points_per_discrete_axis: int = 32,
        max_evaluations: int | None = None,
        parallelism: int | None = None,
        hard_limit: int = 1_000_000,
        database: EvaluationDatabase | None = None,
        tracer=None,
    ):
        if points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")
        if max_points_per_discrete_axis < 2:
            raise ValueError("max_points_per_discrete_axis must be >= 2")
        self.space = space
        self.objective = objective
        self.points_per_axis = int(points_per_axis)
        self.max_points_per_discrete_axis = int(max_points_per_discrete_axis)
        self.max_evaluations = max_evaluations
        self.parallelism = parallelism
        self.hard_limit = int(hard_limit)
        self.tracer = tracer
        self.database = database if database is not None else EvaluationDatabase()

    # ------------------------------------------------------------------
    def _axes(self) -> list[list[Any]]:
        axes = []
        for p in self.space.parameters:
            if isinstance(p, Real):
                axes.append(p.grid(self.points_per_axis))
            else:
                axes.append(p.grid(self.max_points_per_discrete_axis))
        return axes

    def grid_size(self) -> int:
        """Number of raw grid points (before constraint filtering)."""
        return math.prod(len(a) for a in self._axes())

    def _iter_grid(self) -> Iterator[dict[str, Any]]:
        """Every ``stride``-th point of the grid in ``itertools.product``
        order (last axis fastest).

        Each kept flat index is decoded straight into per-axis digits
        (mixed radix), so the cost is per point kept, not per grid point
        skipped: a 20-dim grid of 4^20 points yields its 16 budgeted
        points at once instead of walking 10^12 tuples.
        """
        names = self.space.names
        axes = self._axes()
        total = math.prod(len(a) for a in axes)
        budget = self.max_evaluations or total
        stride = max(1, total // budget)
        for flat in range(0, total, stride):
            combo, rest = [], flat
            for axis in reversed(axes):
                rest, digit = divmod(rest, len(axis))
                combo.append(axis[digit])
            yield dict(zip(names, reversed(combo)))

    def _complete(self, config: Mapping[str, Any]) -> dict[str, Any]:
        complete = getattr(self.space, "complete", None)
        return complete(config) if complete is not None else dict(config)

    def _evaluate_one(self, full: dict[str, Any]) -> Evaluation:
        """Evaluate one completed configuration with failure capture."""
        return evaluate_config(self.objective, full)

    def run(self) -> SearchResult:
        """Evaluate the (strided) grid, skipping infeasible points."""
        if self.grid_size() > self.hard_limit and self.max_evaluations is None:
            raise RuntimeError(
                f"grid of {self.grid_size()} points exceeds hard_limit="
                f"{self.hard_limit}; set max_evaluations"
            )
        best_seen: float | None = None
        # Resume support: records already in a checkpointed database are
        # the first feasible enumeration points (the enumeration order is
        # deterministic and seedless, hence stable across a crash) — skip
        # that many and re-emit their eval events for trace byte equality.
        n_replayed = len(self.database)
        if self.tracer is not None:
            for i, rec in enumerate(self.database):
                best_seen = emit_eval(self.tracer, i, rec, best_seen)
        n_seen = 0
        budget = self.max_evaluations or self.hard_limit
        for cfg in self._iter_grid():
            if len(self.database) >= budget:
                break
            if not BaseSampler.candidate_is_valid(self.space, cfg):
                continue
            n_seen += 1
            if n_seen <= n_replayed:
                continue
            full = self._complete(cfg)
            if self.tracer is None:
                rec = self._evaluate_one(full)
            else:
                with self.tracer.span("evaluation") as sp:
                    rec = self._evaluate_one(full)
                    sp.attrs.update(status=rec.status, cost=rec.cost)
            self.database.append(rec)
            if self.tracer is not None:
                best_seen = emit_eval(
                    self.tracer, len(self.database) - 1, rec, best_seen
                )
        if not self.database.ok_records():
            raise RuntimeError(f"grid search found no feasible point in {self.space.name!r}")
        costs = np.array([r.cost for r in self.database], dtype=float)
        slots = self.parallelism if self.parallelism is not None else max(1, costs.size)
        best = self.database.best()
        return SearchResult(
            name=self.space.name,
            engine="grid",
            best_config=dict(best.config),
            best_objective=best.objective,
            search_time=schedule_makespan(costs, slots),
            n_evaluations=len(self.database),
            database=self.database,
        )
