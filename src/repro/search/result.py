"""Result containers shared by all search engines.

:class:`SearchResult` normalizes the outcome of a single search (BO,
random, or grid) so the campaign runner and the benchmark harness can
compare engines uniformly.  :class:`CampaignResult` aggregates a *set* of
searches run under one strategy (e.g. the paper's "G1, G2, G3+G4") with the
paper's cost accounting: independent searches run in parallel, so campaign
wall-clock is the *maximum* search time, while total core-cost is the sum.

Timeout semantics
-----------------
Two distinct conditions produce TIMEOUT evaluation records, and they are
distinguished by ``Evaluation.meta["timeout_kind"]``:

``"simulated"``
    The objective *returned* a simulated runtime above the engine's
    ``evaluation_timeout`` budget — the paper's 15-minute kill switch
    applied to the value on the simulated-cost ledger.  The objective
    itself completed normally; the cost charged is the cap.
``"wallclock"``
    The evaluation exceeded a *real* wall-clock deadline: the
    :class:`repro.faults.WatchdogObjective` fired (the objective hung or
    genuinely ran too long) and the record additionally carries
    ``meta["failure_kind"] = "timeout"`` for the failure taxonomy.

Both are excluded from surrogate training and neither is retried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..bo.history import EvaluationDatabase

__all__ = ["SearchResult", "CampaignResult"]


@dataclass
class SearchResult:
    """Uniform single-search outcome.

    Attributes
    ----------
    name:
        Label of the (sub)search, e.g. ``"Group 3+4"``.
    engine:
        The engine's result label: its registry name (``"random"``,
        ``"grid"``, ``"tpe"``, ...), except ``"bo"`` for GP-BO.
    best_config:
        Best *full* configuration found (pinned values merged in).
    best_objective:
        Its objective value.
    search_time:
        Simulated wall-clock of this search: evaluation cost + modeling
        overhead for BO; for the samplers on the generic driver, the
        makespan of the evaluation costs over ``parallelism`` slots (see
        :class:`repro.search.SamplerSearch`).
    n_evaluations:
        Number of objective evaluations.
    database:
        Full evaluation history.
    tuned_names:
        The parameters this search actually tuned (``None`` = all keys of
        ``best_config``).  Campaign merging only takes tuned values so a
        subsearch's pinned defaults never overwrite another subsearch's
        tuned result.
    """

    name: str
    engine: str
    best_config: dict[str, Any]
    best_objective: float
    search_time: float
    n_evaluations: int
    database: EvaluationDatabase | None = None
    tuned_names: tuple[str, ...] | None = None
    measured_time: float = 0.0
    """Real wall-clock seconds the search process itself consumed (the
    modeling/engine overhead measured on this machine — what the paper's
    Table III "Time" column reports for the synthetic functions, where
    objective evaluations are essentially free)."""
    meta: dict[str, Any] = field(default_factory=dict)
    """Robustness annotations: ``"quarantined"`` (circuit-breaker summary
    when any region tripped), ``"failure_counts"`` (evaluations per
    :class:`repro.faults.FailureKind`), ``"worker_lost"`` / ``"recovery"``
    (the member's pool worker died and the executor resubmitted or
    re-ran it), ``"quarantine_skipped"`` (samples suppressed because
    their region was quarantined)."""

    @property
    def tuned_config(self) -> dict[str, Any]:
        """Only the parameters this search tuned."""
        if self.tuned_names is None:
            return dict(self.best_config)
        return {k: self.best_config[k] for k in self.tuned_names}

    @property
    def trajectory(self) -> np.ndarray:
        if self.database is None:
            return np.array([])
        return self.database.best_so_far()


@dataclass
class CampaignResult:
    """Outcome of a *strategy*: a set of searches covering all routines.

    ``combined_config`` merges each search's best configuration; when two
    searches tune the same parameter (which the planner avoids but users
    may construct), the value from the search listed later wins and the
    collision is recorded in ``overlaps``.
    """

    strategy: str
    searches: list[SearchResult] = field(default_factory=list)
    measured_campaign_seconds: float = 0.0
    """Real elapsed wall-clock of the whole campaign when the executor
    actually ran members concurrently (0.0 when members ran sequentially
    and the parallel wall-clock is simulated as the max over members)."""
    executed_parallel: bool = False
    """Whether the members genuinely ran concurrently (process pool)."""

    @property
    def combined_config(self) -> dict[str, Any]:
        # Pinned defaults first (so every parameter gets a value), then
        # tuned values override — later searches win on (rare) collisions.
        merged: dict[str, Any] = {}
        for s in self.searches:
            merged.update(s.best_config)
        for s in self.searches:
            merged.update(s.tuned_config)
        return merged

    @property
    def overlaps(self) -> set[str]:
        seen: set[str] = set()
        clashes: set[str] = set()
        for s in self.searches:
            for k in s.tuned_config:
                if k in seen:
                    clashes.add(k)
                seen.add(k)
        return clashes

    @property
    def wall_time(self) -> float:
        """Parallel wall-clock: independent searches run concurrently."""
        return max((s.search_time for s in self.searches), default=0.0)

    @property
    def total_time(self) -> float:
        """Aggregate core-time across all searches."""
        return float(sum(s.search_time for s in self.searches))

    @property
    def measured_wall_time(self) -> float:
        """Real (machine-measured) parallel wall-clock of the strategy.

        When the executor ran members concurrently this is the campaign's
        true elapsed time (including pool overhead); otherwise it falls
        back to the simulated-parallel max over member times.
        """
        if self.measured_campaign_seconds > 0.0:
            return self.measured_campaign_seconds
        return max((s.measured_time for s in self.searches), default=0.0)

    @property
    def measured_total_time(self) -> float:
        """Real (machine-measured) aggregate search-process time."""
        return float(sum(s.measured_time for s in self.searches))

    @property
    def n_evaluations(self) -> int:
        return sum(s.n_evaluations for s in self.searches)

    def objective_sum(self) -> float:
        """Sum of per-search best objectives.

        For additive objectives (the synthetic functions decompose into
        per-group terms) this is the natural figure of merit of a
        decomposed strategy before re-evaluating the merged configuration.
        """
        return float(sum(s.best_objective for s in self.searches))

    def evaluate_combined(self, objective) -> float:
        """Score the merged configuration on a full-application objective."""
        out = objective(self.combined_config)
        return float(out[0] if isinstance(out, tuple) else out)
