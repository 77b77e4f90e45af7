"""The end-to-end tuning methodology (the paper's Section IV pipeline).

:class:`TuningMethodology` wires the five guideline steps together:

1. **Constrain the search and fix the budget** — the caller provides an
   already-constrained :class:`~repro.space.SearchSpace` (domain-expert
   knowledge) and an optional evaluation budget / timeout.
2. **Statistical insights** — an optional random evaluation sample feeds
   Pearson + random-forest feature importance
   (:func:`repro.insights.analyze_parameters`), with the one-in-ten rule
   checked.
3. **Interdependence discovery** — a per-routine sensitivity analysis
   produces the influence matrix (phase 1).
4. **Merge dependent searches, drop parameters** — the
   :class:`~repro.core.SearchPlanner` prunes the DAG at the cut-off,
   partitions it, and caps each search at 10 dimensions (phase 2).
5. **Shared-kernel priority** — handled inside the planner.

:meth:`TuningMethodology.run` then executes the planned searches with the
chosen engine (BO by default) through a :class:`~repro.search.SearchCampaign`
and returns a :class:`MethodologyResult` carrying every intermediate
artifact, the combined best configuration, and the full observation
accounting that backs the paper's cost claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..faults.injection import FaultPlan
from ..insights.importance import ParameterInsights, analyze_parameters
from ..insights.phase1 import (
    MeasureTask,
    Phase1Evaluator,
    ProfiledMeasurer,
    TargetMeasurer,
    project_observations,
)
from ..insights.sensitivity import SensitivityAnalysis, SensitivityResult
from ..log import get_logger
from ..search.result import CampaignResult
from ..search.runner import SearchCampaign, SearchSpec
from ..search.samplers.base import canonical_engine_name
from ..search.store import space_fingerprint
from ..space import SearchSpace
from ..telemetry.core import NULL_TRACER
from .dag import InterdependenceDAG
from .influence import InfluenceMatrix
from .planner import SearchPlan, SearchPlanner
from .routine import RoutineSet

__all__ = ["TuningMethodology", "MethodologyResult"]

logger = get_logger("core")


@dataclass
class MethodologyResult:
    """Everything the methodology produced, end to end.

    Attributes
    ----------
    sensitivity:
        Phase-1 per-routine sensitivity analysis.
    influence:
        The influence matrix derived from it.
    dag:
        The pruned interdependence DAG.
    plan:
        The final set of searches (Table VII material).
    insights:
        Step-2 statistical insights (``None`` when skipped).
    campaign:
        Search execution results (``None`` for ``plan_only`` runs).
    analysis_evaluations:
        Objective evaluations spent on sensitivity + insights — the
        methodology's *overhead*, which the paper argues is small compared
        to a traditional orthogonality analysis.  With profiled
        evaluation (a profiler-carrying routine set) each analysis
        configuration costs **one** application run regardless of the
        number of targets, so this figure is the paper's ``1 + V x d``
        (plus the insight sample and any re-measurements) rather than
        ``t x`` that.
    analysis_warnings:
        Degradation notes from the insight sample (failed measurements
        that were re-measured once and then dropped); sensitivity-phase
        warnings live on ``sensitivity.warnings``.
    warm_seeded:
        Phase-1 observations injected into search evaluation databases as
        warm-start seed history, summed over members.  Every seeded
        record replaces one fresh search evaluation, so the campaign's
        ``n_evaluations`` is smaller by exactly this amount.
    """

    sensitivity: SensitivityResult
    influence: InfluenceMatrix
    dag: InterdependenceDAG
    plan: SearchPlan
    insights: ParameterInsights | None = None
    campaign: CampaignResult | None = None
    analysis_evaluations: int = 0
    analysis_warnings: list[str] = field(default_factory=list)
    warm_seeded: int = 0
    dag_diagram: str = ""
    """Hierarchy-aware rendering of the DAG (staged edges separated)."""

    @property
    def best_config(self) -> dict[str, Any]:
        if self.campaign is None:
            raise RuntimeError("methodology was run plan-only; no best_config")
        return self.campaign.combined_config

    @property
    def staged_wall_time(self) -> float:
        """Wall-clock respecting stages: searches within a stage run in
        parallel; stages run back to back."""
        if self.campaign is None:
            return 0.0
        by_name = {s.name: s for s in self.campaign.searches}
        total = 0.0
        for stage in self.plan.stages():
            total += max(
                (by_name[p.name].search_time for p in stage if p.name in by_name),
                default=0.0,
            )
        return total

    @property
    def total_evaluations(self) -> int:
        n = self.analysis_evaluations
        if self.campaign is not None:
            n += self.campaign.n_evaluations
        return n

    def summary(self) -> str:
        lines = [
            f"cut-off: {100 * self.plan.cutoff:.0f}%  "
            f"dimension cap: {self.plan.dimension_cap}",
            f"analysis evaluations: {self.analysis_evaluations}",
            "",
            "interdependence DAG:",
            (self.dag_diagram or self.dag.format_diagram())
            or "  (no cross-routine edges)",
            "",
            "planned searches:",
            self.plan.format_table(),
        ]
        if self.campaign is not None:
            lines += [
                "",
                f"campaign wall-time: {self.campaign.measured_wall_time:.2f}s "
                f"(measured)  evaluations: {self.campaign.n_evaluations}",
            ]
            if self.warm_seeded:
                lines.append(
                    f"warm-start: seeded {self.warm_seeded} phase-1 "
                    f"observations ({self.warm_seeded} fewer search "
                    "evaluations)"
                )
        return "\n".join(lines)


class TuningMethodology:
    """Cost-effective complex-tuning-search methodology.

    Parameters
    ----------
    space:
        Constrained full application search space (step 1).
    routines:
        The application's tunable routines with ownership and objectives.
    cutoff:
        Interdependence cut-off (paper: 0.25 synthetic, 0.10 RT-TDDFT).
    dimension_cap:
        Maximum dimensions per search (paper: 10).
    n_variations / variation / variation_mode:
        Sensitivity-analysis controls (paper: V=100 at +10% for synthetic,
        V=5 expert-guided for RT-TDDFT).
    n_baselines:
        Independent random baselines to average the sensitivity scores
        over (>1 stabilizes the influence ranking at proportional
        observation cost).
    insight_samples:
        Size of the random sample for step-2 statistics (0 disables; the
        paper uses 100-200 application runs).
    total_objective:
        Optional full-application objective used for the insight sample
        (defaults to the weighted sum of routine objectives).
    engine / engine_options:
        Search engine for the planned searches.
    engine_overrides:
        Optional mapping of planned-search name (a DAG region label like
        ``"G1"`` or a merged-group name like ``"G3+G4"``) to an engine
        name from the sampler registry — so each region can run the
        engine that fits its space (e.g. ``cma-es-lite`` on an
        all-numeric region, ``tpe`` on a conditional one) while every
        other search keeps the default ``engine``.  Names are validated
        against the registry up front; warm-start seeding is applied per
        member according to its *resolved* engine.
    hierarchy:
        Optional region nesting forwarded to the planner (see
        :class:`~repro.core.SearchPlanner`); enables staged plans like the
        paper's batch-first / MPI-first RT-TDDFT sequencing.
    parallel / n_workers:
        Execute each stage's member searches concurrently in a process
        pool (deterministic in-process fallback when objectives are not
        picklable — per-member results are identical either way).
    parallel_analysis:
        Fan the Phase-1 measurements (baseline, variations, insight
        sample) across the same process pool.  Planning consumes all
        random state before any measurement, so the parallel analysis is
        bit-identical to the sequential one for deterministic objectives
        (set ``noise_scale=0`` on the synthetic suite to verify).
    analysis_checkpoint_dir:
        Directory for Phase-1 append-only observation logs
        (``sensitivity-b<i>.jsonl``, ``insights.jsonl``); a killed
        analysis resumes mid-``V x d`` instead of restarting.
    warm_start:
        Recycle Phase-1 observations as BO seed history: each planned
        search's subspace is matched against the observation log
        (non-tuned parameters are pinned at the sensitivity baseline so
        one-at-a-time variations of tuned parameters match exactly) and
        up to ``warm_start_max`` matches are injected into the member's
        evaluation database before the engine starts — replacing that
        many cold evaluations.  Applies to the ``bo`` / ``batch-bo``
        engines; off by default so existing campaigns reproduce
        bit-for-bit.
    warm_start_tolerance:
        Relative tolerance for numeric pin matching during projection
        (0 = exact).  Tolerance-matched records are tagged
        ``warm_inexact`` and never served from the memoization cache.
    warm_start_max:
        Cap on seeded records per search (``None`` -> the engine's
        ``n_initial``, default 5).  Uncapped seeding could swallow the
        whole budget with one-at-a-time variations and leave BO no fresh
        evaluations.
    checkpoint_dir:
        Directory for crash-recovery checkpoints; each stage writes its
        members' append-only JSONL evaluation databases to
        ``<checkpoint_dir>/stage-<i>/`` and a rerun resumes them.
    max_retries / retry_backoff / memoize:
        Robustness policy applied to every search-stage objective (see
        :class:`~repro.search.SearchSpec`).  Retries absorb
        transiently-classified failures; permanently-classified ones
        short-circuit.
    wall_timeout:
        Real wall-clock deadline (seconds) per search evaluation,
        enforced by the :class:`~repro.faults.WatchdogObjective`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` injected around every
        *search-stage* objective for chaos testing.  Sensitivity and
        insight evaluations are never fault-injected, so
        ``analysis_evaluations`` accounting is unaffected.
    quarantine_threshold / quarantine_resolution:
        Circuit-breaker configuration forwarded to every search (see
        :class:`~repro.faults.CircuitBreaker`).
    eval_store / eval_store_extra / eval_provenance:
        Optional cross-job :class:`~repro.search.EvaluationStore`: every
        search-stage member is given the store with a
        :func:`~repro.search.space_fingerprint` derived from its own
        subspace (pinned assignments included) plus the
        ``eval_store_extra`` context dict, and the ``eval_provenance``
        gate — so successive jobs on the same application never
        re-evaluate a configuration another job already measured.
        Phase-1 analysis measurements are not stored: they observe
        per-routine timings under the profiler, not the search
        objectives.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`.  The pipeline emits
        ``campaign`` / ``insights`` / ``sensitivity`` / ``dag_partition``
        spans in the campaign scope and threads the handle through every
        stage's :class:`~repro.search.SearchCampaign` (member ``search``
        spans, per-evaluation events, metrics, live progress).  A pure
        observer: results are bit-identical with telemetry on or off.
        ``None`` (default) disables.
    """

    def __init__(
        self,
        space: SearchSpace,
        routines: RoutineSet,
        *,
        cutoff: float = 0.10,
        dimension_cap: int = 10,
        n_variations: int = 5,
        n_baselines: int = 1,
        variation: float = 0.10,
        variation_mode: str = "relative",
        insight_samples: int = 0,
        total_objective: Callable[[Mapping[str, Any]], float] | None = None,
        engine: str = "bo",
        engine_options: dict[str, Any] | None = None,
        engine_overrides: Mapping[str, str] | None = None,
        hierarchy: Mapping[str, Sequence[str]] | None = None,
        parallel: bool = False,
        n_workers: int | None = None,
        parallel_analysis: bool = False,
        analysis_checkpoint_dir: str | None = None,
        warm_start: bool = False,
        warm_start_tolerance: float = 0.0,
        warm_start_max: int | None = None,
        checkpoint_dir: str | None = None,
        max_retries: int = 0,
        retry_backoff: float = 0.05,
        memoize: bool = False,
        wall_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        quarantine_threshold: int | None = None,
        quarantine_resolution: int = 4,
        eval_store=None,
        eval_store_extra: Mapping[str, Any] | None = None,
        eval_provenance: Mapping[str, Any] | None = None,
        telemetry=None,
        random_state: int | np.random.Generator | None = None,
    ):
        self.space = space
        self.routines = routines
        self.cutoff = float(cutoff)
        self.dimension_cap = int(dimension_cap)
        self.hierarchy = dict(hierarchy) if hierarchy else None
        self.n_variations = int(n_variations)
        self.n_baselines = int(n_baselines)
        self.variation = float(variation)
        self.variation_mode = variation_mode
        self.insight_samples = int(insight_samples)
        self.total_objective = total_objective
        self.engine = engine
        self.engine_options = dict(engine_options or {})
        self.engine_overrides = dict(engine_overrides or {})
        for region, eng in self.engine_overrides.items():
            canonical_engine_name(eng)  # fail fast on unknown engines
            if not region:
                raise ValueError("engine_overrides keys must be non-empty")
        self.parallel = bool(parallel)
        self.n_workers = n_workers
        self.parallel_analysis = bool(parallel_analysis)
        self.analysis_checkpoint_dir = analysis_checkpoint_dir
        self.warm_start = bool(warm_start)
        self.warm_start_tolerance = float(warm_start_tolerance)
        self.warm_start_max = warm_start_max
        self.checkpoint_dir = checkpoint_dir
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.memoize = bool(memoize)
        self.wall_timeout = wall_timeout
        self.fault_plan = fault_plan
        self.quarantine_threshold = quarantine_threshold
        self.quarantine_resolution = int(quarantine_resolution)
        self.eval_store = eval_store
        self.eval_store_extra = dict(eval_store_extra or {})
        self.eval_provenance = dict(eval_provenance or {})
        self.telemetry = telemetry
        self.rng = (
            random_state
            if isinstance(random_state, np.random.Generator)
            else np.random.default_rng(random_state)
        )

    # ------------------------------------------------------------------
    def _tracer(self):
        """Campaign-scope tracer (the no-op singleton when disabled)."""
        if self.telemetry is None:
            return NULL_TRACER
        return self.telemetry.tracer()

    def _default_total(self, config: Mapping[str, Any]) -> float:
        return float(sum(r.weight * r.evaluate(config) for r in self.routines))

    def _phase1_evaluator(self) -> Phase1Evaluator:
        """The Phase-1 evaluation engine configured for this run."""
        return Phase1Evaluator(
            parallel=self.parallel_analysis,
            n_workers=self.n_workers,
            checkpoint_dir=self.analysis_checkpoint_dir,
            telemetry=self.telemetry,
        )

    def collect_insights(
        self, evaluator: Phase1Evaluator | None = None
    ) -> tuple[ParameterInsights, int, list[str]]:
        """Step 2: random evaluation sample -> statistical insights.

        Measurements run through the Phase-1 engine: profiled (one
        application run yields all routine timings, summed with their
        weights for the total objective) when the routine set has a
        profiler and no explicit ``total_objective`` was given.  Failed
        measurements (raised or non-finite) are re-measured once; a
        sample point that fails twice is dropped from the sample with a
        warning instead of aborting the campaign.  Returns ``(insights,
        n_evaluations, warnings)``.
        """
        configs = self.space.sample_batch(self.insight_samples, self.rng)
        tasks = [
            MeasureTask(i, "insight", None, dict(c))
            for i, c in enumerate(configs)
        ]
        if self.total_objective is not None:
            measurer = TargetMeasurer({"__total__": self.total_objective})
        elif self.routines.has_profiler:
            measurer = ProfiledMeasurer(self.routines)
        else:
            measurer = TargetMeasurer({"__total__": self._default_total})
        if evaluator is None:
            evaluator = Phase1Evaluator()
        observations = evaluator.run(tasks, measurer, label="insights")

        kept: list[Mapping[str, Any]] = []
        objectives: list[float] = []
        warns: list[str] = []
        n_evals = 0
        for task in tasks:
            obs = observations[task.index]
            n_evals += 1 + obs.extra_runs
            if "__total__" in obs.values:
                y = obs.values["__total__"]
            elif obs.ok:
                y = float(
                    sum(
                        r.weight * obs.values[r.name] for r in self.routines
                    )
                )
            else:
                y = None
            if y is None or not np.isfinite(y):
                last = "; ".join(
                    f"{t}: {e}" for t, e in obs.errors.items()
                ) or f"non-finite total {y!r}"
                warns.append(
                    f"insight sample {task.index}: measurement failed "
                    f"twice ({last}); dropped from the sample"
                )
                continue
            kept.append(configs[task.index])
            objectives.append(y)
        if warns:
            logger.warning(
                "insight sample degraded: %d of %d configurations dropped",
                len(warns), len(configs),
            )
        ins = analyze_parameters(
            self.space, kept, objectives, random_state=self.rng
        )
        return ins, n_evals, warns

    def run_sensitivity(
        self,
        baseline: Mapping[str, Any] | None = None,
        *,
        evaluator: Phase1Evaluator | None = None,
    ) -> SensitivityResult:
        """Step 3 / phase 1: per-routine sensitivity analysis."""
        sa = SensitivityAnalysis.from_routines(
            self.space,
            self.routines,
            n_variations=self.n_variations,
            variation=self.variation,
            mode=self.variation_mode,
            random_state=self.rng,
        )
        if self.n_baselines > 1 and baseline is None:
            return sa.run_averaged(self.n_baselines, evaluator=evaluator)
        return sa.run(baseline, evaluator=evaluator)

    # ------------------------------------------------------------------
    def analyze(
        self,
        baseline: Mapping[str, Any] | None = None,
        *,
        checkpoint: str | None = None,
        evaluator: Phase1Evaluator | None = None,
    ) -> MethodologyResult:
        """Run the analysis phases only (no search execution).

        With ``checkpoint`` set, the phase-1 sensitivity result is loaded
        from that JSON file when it exists (skipping the ``1 + V x d``
        application runs) and saved there after a fresh analysis — crash
        recovery for the observation-expensive phase, mirroring the
        evaluation database's role for the searches.  The file is written
        atomically (:func:`repro.durable.atomic_write`), and an unparsable
        checkpoint falls back to a fresh analysis with a warning instead
        of poisoning the resume.  Phase 2 is pure computation and always
        re-runs (so cut-off/cap changes re-plan from cached observations
        for free).

        ``evaluator`` overrides the Phase-1 evaluation engine (default:
        one built from ``parallel_analysis`` / ``analysis_checkpoint_dir``
        / ``telemetry``); :meth:`run` passes its own so warm-start
        projection can reuse the collected observations.
        """
        import json
        import os

        from ..durable import atomic_write

        if evaluator is None:
            evaluator = self._phase1_evaluator()
        tracer = self._tracer()
        insights: ParameterInsights | None = None
        analysis_warns: list[str] = []
        analysis_evals = 0
        if self.insight_samples > 0:
            with tracer.span("insights", n_samples=self.insight_samples):
                insights, n, analysis_warns = self.collect_insights(evaluator)
            analysis_evals += n

        sens: SensitivityResult | None = None
        if checkpoint and os.path.exists(checkpoint):
            try:
                with open(checkpoint) as f:
                    sens = SensitivityResult.from_dict(json.load(f))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                logger.warning(
                    "sensitivity checkpoint %s is unparsable (%r); "
                    "falling back to a fresh analysis", checkpoint, exc,
                )
                sens = None
            else:
                tracer.event("sensitivity_checkpoint_loaded", path=checkpoint)
        if sens is None:
            with tracer.span("sensitivity", n_variations=self.n_variations) as sp:
                sens = self.run_sensitivity(baseline, evaluator=evaluator)
                sp.attrs["n_evaluations"] = sens.n_evaluations
            analysis_evals += sens.n_evaluations
            if checkpoint:
                atomic_write(checkpoint, json.dumps(sens.to_dict()))

        with tracer.span("dag_partition") as sp:
            influence = InfluenceMatrix.from_sensitivity(self.routines, sens)
            planner = self._planner(influence, insights)
            plan = planner.plan()
            dag = planner.build_dag()
            sp.attrs.update(
                n_searches=len(plan.searches), n_stages=plan.n_stages
            )
        return MethodologyResult(
            sensitivity=sens,
            influence=influence,
            dag=dag,
            plan=plan,
            insights=insights,
            analysis_evaluations=analysis_evals,
            analysis_warnings=analysis_warns,
            dag_diagram=planner.format_dag(dag),
        )

    def _planner(self, influence, insights) -> SearchPlanner:
        return SearchPlanner(
            self.routines,
            influence,
            self.space,
            cutoff=self.cutoff,
            dimension_cap=self.dimension_cap,
            insights=insights,
            hierarchy=self.hierarchy,
        )

    def run(
        self,
        baseline: Mapping[str, Any] | None = None,
        *,
        defaults: Mapping[str, Any] | None = None,
    ) -> MethodologyResult:
        """Full pipeline: analyze, plan, and execute the searches.

        Stages run in order; each stage's searches execute (logically in
        parallel) with every parameter tuned by an *earlier* stage pinned
        to its found optimum.
        """
        tracer = self._tracer()
        with tracer.span("campaign", space=self.space.name) as campaign_span:
            result = self._run_pipeline(baseline, defaults)
            if result.campaign is not None:
                campaign_span.attrs["n_evaluations"] = (
                    result.campaign.n_evaluations
                )
        return result

    def _engine_for(self, search_name: str) -> str:
        """Resolve one planned search's engine (override or default)."""
        return self.engine_overrides.get(search_name, self.engine)

    def _warm_records(self, observations, planner, search, subspace, engine=None):
        """Project Phase-1 observations onto one member's subspace."""
        engine = engine if engine is not None else self.engine
        if not observations or engine not in ("bo", "batch-bo", "gp-bo"):
            return None
        cap = self.warm_start_max
        if cap is None:
            cap = int(self.engine_options.get("n_initial", 5))
        records = project_observations(
            observations,
            planner.members(search),
            subspace,
            tolerance=self.warm_start_tolerance,
            max_records=cap,
        )
        return records or None

    def _run_pipeline(
        self,
        baseline: Mapping[str, Any] | None,
        defaults: Mapping[str, Any] | None,
    ) -> MethodologyResult:
        evaluator = self._phase1_evaluator()
        result = self.analyze(baseline, evaluator=evaluator)
        planner = self._planner(result.influence, result.insights)

        carried: dict[str, Any] = dict(defaults or {})
        observations = evaluator.observations if self.warm_start else []
        if self.warm_start:
            if observations:
                # Pin non-tuned parameters at the sensitivity baseline (a
                # caller's explicit defaults still win): one-at-a-time
                # variations of a search's tuned parameters then match its
                # pinned slice exactly, which is what makes Phase-1
                # observations projectable onto the search subspaces.
                carried = {
                    **dict(result.sensitivity.baseline),
                    **(defaults or {}),
                }
            else:
                logger.debug(
                    "warm start requested but no phase-1 observations were "
                    "collected (checkpoint-loaded analysis?); searches "
                    "start cold"
                )
        campaign = CampaignResult(
            strategy=", ".join(s.name for s in result.plan.searches)
        )
        for stage in range(result.plan.n_stages):
            specs = [
                SearchSpec(
                    space=sub,
                    objective=obj,
                    engine=self._engine_for(s.name),
                    max_evaluations=s.budget,
                    engine_options=dict(self.engine_options),
                    max_retries=self.max_retries,
                    retry_backoff=self.retry_backoff,
                    memoize=self.memoize,
                    wall_timeout=self.wall_timeout,
                    fault_plan=self.fault_plan,
                    quarantine_threshold=self.quarantine_threshold,
                    quarantine_resolution=self.quarantine_resolution,
                    warm_start=self._warm_records(
                        observations, planner, s, sub,
                        engine=self._engine_for(s.name),
                    ),
                    eval_store=self.eval_store,
                    eval_store_key=(
                        space_fingerprint(sub, extra=self.eval_store_extra)
                        if self.eval_store is not None
                        else None
                    ),
                    eval_provenance=(
                        dict(self.eval_provenance)
                        if self.eval_store is not None
                        else None
                    ),
                )
                for s, sub, obj in planner.materialize(
                    result.plan, defaults=carried, stage=stage
                )
            ]
            if not specs:
                continue
            stage_campaign = SearchCampaign(
                specs,
                strategy=f"stage-{stage}",
                random_state=self.rng,
                parallel=self.parallel,
                n_workers=self.n_workers,
                checkpoint_dir=(
                    f"{self.checkpoint_dir}/stage-{stage}"
                    if self.checkpoint_dir
                    else None
                ),
                telemetry=self.telemetry,
            )
            stage_result = stage_campaign.run()
            campaign.searches.extend(stage_result.searches)
            for s in stage_result.searches:
                carried.update(s.tuned_config)
        result.campaign = campaign
        result.warm_seeded = sum(
            s.meta.get("warm_seeded", 0) for s in campaign.searches
        )
        return result
