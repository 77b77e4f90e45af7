"""Campaign runner: execute a *set* of searches as one strategy.

The paper compares strategies that are sets of searches: fully independent
("G1, G2, G3, G4"), fully joint ("G1+G2+G3+G4"), and the methodology's
suggestion ("G1, G2, G3+G4" — three searches run in parallel with budgets
N = {50, 50, 100}).  :class:`SearchCampaign` takes a list of
:class:`SearchSpec` (space + objective + engine + budget) and produces a
:class:`CampaignResult` whose wall-clock is the maximum over the member
searches, mirroring the paper's parallel execution of independent searches.

Execution is delegated to :class:`repro.search.executor.CampaignExecutor`:
pass ``parallel=True`` to run members concurrently in a process pool (with
a deterministic in-process fallback for unpicklable objectives) and
``checkpoint_dir=`` to make every member crash-recoverable via append-only
JSONL evaluation checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..bo.optimizer import Objective
from ..bo.pool import EncodedPool
from ..faults.injection import FaultPlan
from ..space import SearchSpace
from .executor import CampaignExecutor, spec_seed_sequences
from .result import CampaignResult
from .scalarize import Scalarization

__all__ = ["SearchSpec", "SearchCampaign"]


@dataclass
class SearchSpec:
    """Description of one member search of a campaign.

    Attributes
    ----------
    space:
        The (sub)space to tune — typically produced by
        :meth:`repro.core.SearchPlanner` or :meth:`SearchSpace.subspace`.
    objective:
        Black-box objective for this search.  Decomposed strategies pass a
        per-routine objective (e.g. only Group 3+4's contribution); the
        joint strategy passes the full application.
    engine:
        Any registered sampler name or alias: ``"bo"`` (default, the
        GP-BO engine), ``"batch-bo"``, ``"random"``, ``"grid"``,
        ``"hillclimb"``, ``"anneal"``, ``"tpe"``, ``"cma-es-lite"`` or
        ``"qmc"`` (see :func:`repro.search.registered_samplers`).
    max_evaluations:
        Budget; ``None`` -> the paper's ``10 x dimensions``.
    engine_options:
        Extra keyword arguments forwarded to the engine constructor.
    max_retries / retry_backoff:
        Retry policy for objectives that raise transient errors: up to
        ``max_retries`` extra attempts with exponential backoff starting
        at ``retry_backoff`` seconds.  ``0`` (default) disables retries.
    memoize:
        Cache objective results keyed on the canonicalized configuration
        so repeated configurations (after a resume, or in grid/random
        engines over small spaces) are not re-evaluated.  Checkpointed
        PERMANENT/NUMERIC failures are remembered as poison keys and
        never paid for twice.
    wall_timeout:
        Real wall-clock deadline (seconds) per evaluation, enforced by a
        :class:`repro.faults.WatchdogObjective` — catches objectives that
        genuinely hang, which the engines' simulated
        ``evaluation_timeout`` cannot.  ``None`` disables.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` injected around the
        objective (innermost wrapper) for deterministic chaos testing.
    quarantine_threshold / quarantine_resolution:
        Circuit breaker configuration, honored by every engine: after
        ``quarantine_threshold`` permanently-classified failures in one
        cell of the ``quarantine_resolution``-per-axis grid, the cell is
        quarantined and receives no further evaluations.  ``None``
        disables.
    warm_start:
        Optional seed history: :class:`~repro.bo.history.Evaluation`
        records (typically Phase-1 observations projected onto this
        search's subspace by
        :func:`repro.insights.project_observations`) injected into the
        member's evaluation database before the engine starts.  The
        engine's resume path treats them exactly like replayed
        evaluations — the BO surrogate is fit on them and each seeded
        record replaces one evaluation of budget — so a warm-started
        search pays for strictly fewer fresh objective calls.  Records
        are injected only when the database starts empty (a resumed
        checkpoint already persisted them).
    candidate_pool:
        Optional fixed :class:`~repro.bo.EncodedPool` for the ``bo`` and
        ``batch-bo`` engines: proposals are scored against this
        pre-encoded candidate matrix instead of freshly sampled pools.
        When the campaign runs members in a process pool, the executor
        promotes the matrix into :mod:`multiprocessing.shared_memory`
        before pickling member payloads (workers attach to the same
        physical pages instead of receiving a copy each) and releases
        the segment afterwards; results are bit-identical either way.
    scalarize:
        Optional :class:`~repro.search.scalarize.Scalarization`: the
        engine minimizes ``objective_weight * runtime + sum(w_k *
        meta[k])`` instead of the raw returned value, with the secondary
        metrics (energy, cloud cost, ...) read from the objective's meta
        dict.  Applied as the innermost objective adapter; the raw value
        is preserved in each record's ``meta["raw_objective"]``.
        ``None`` (default) leaves the objective untouched.
    eval_store / eval_store_key / eval_provenance:
        Optional cross-job persistence: an
        :class:`~repro.search.store.EvaluationStore` shared with other
        jobs, the space fingerprint scoping this member's entries
        (computed via :func:`~repro.search.store.space_fingerprint` when
        omitted), and the provenance dict gating which stored records may
        be served (see the store module).  Setting a store implies
        memoization: the member's cache is backed by the store, misses
        poll it for concurrently appended measurements, and fresh
        measurements are written back — so a second job on the same
        space never re-evaluates a configuration.
    """

    space: SearchSpace
    objective: Objective
    engine: str = "bo"
    max_evaluations: int | None = None
    engine_options: dict[str, Any] = field(default_factory=dict)
    max_retries: int = 0
    retry_backoff: float = 0.05
    memoize: bool = False
    wall_timeout: float | None = None
    fault_plan: FaultPlan | None = None
    quarantine_threshold: int | None = None
    quarantine_resolution: int = 4
    warm_start: list | None = None
    candidate_pool: EncodedPool | None = None
    scalarize: Scalarization | None = None
    eval_store: Any = None
    eval_store_key: str | None = None
    eval_provenance: dict[str, Any] | None = None

    def budget(self) -> int:
        return (
            self.max_evaluations
            if self.max_evaluations is not None
            else 10 * self.space.dimension
        )


class SearchCampaign:
    """Run a list of member searches and aggregate them into one strategy
    result.

    Parameters
    ----------
    specs:
        Member searches.  They are logically concurrent; with
        ``parallel=True`` they also *run* concurrently (process pool),
        otherwise they execute sequentially and wall-clock is accounted
        as the max of their individual times.
    strategy:
        Label, e.g. ``"G1, G2, G3+G4"``.
    random_state:
        Seed.  Each member search gets an independent
        :class:`~numpy.random.SeedSequence` keyed by its space name (plus
        an occurrence ordinal for duplicates), so results do not depend
        on the member order and adding/removing one member never reseeds
        the others.
    parallel:
        Execute members concurrently via a process pool.  Falls back to
        the deterministic in-process loop when objectives cannot be
        pickled; both paths give bit-identical per-member results.
    n_workers:
        Pool width (``None`` -> ``os.cpu_count()`` capped at the member
        count).
    checkpoint_dir:
        Directory for per-member crash-recovery checkpoints; an existing
        checkpoint resumes the member instead of restarting it.
    member_timeout:
        Pool-level watchdog deadline (real seconds) per pooled member;
        see :class:`~repro.search.executor.CampaignExecutor`.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` — enables span
        tracing, per-member eval events, metrics, and live progress for
        this campaign.  A pure observer: results are bit-identical with
        telemetry on or off.  ``None`` (default) disables.
    """

    def __init__(
        self,
        specs: Sequence[SearchSpec],
        *,
        strategy: str = "campaign",
        random_state: int | np.random.Generator | None = None,
        parallel: bool = False,
        n_workers: int | None = None,
        checkpoint_dir: str | None = None,
        member_timeout: float | None = None,
        telemetry=None,
    ):
        if not specs:
            raise ValueError("campaign needs at least one search spec")
        self.specs = list(specs)
        self.strategy = strategy
        self.parallel = bool(parallel)
        self.n_workers = n_workers
        self.checkpoint_dir = checkpoint_dir
        self.member_timeout = member_timeout
        self.telemetry = telemetry
        self._seeds = spec_seed_sequences(self.specs, random_state)

    def run(self) -> CampaignResult:
        """Execute every member search; aggregate into a CampaignResult."""
        executor = CampaignExecutor(
            n_workers=self.n_workers,
            checkpoint_dir=self.checkpoint_dir,
            member_timeout=self.member_timeout,
            telemetry=self.telemetry,
        )
        return executor.run(
            self.specs,
            self._seeds,
            strategy=self.strategy,
            parallel=self.parallel,
        )
