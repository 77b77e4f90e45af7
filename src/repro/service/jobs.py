"""Job model: specs, lease fencing, and the deterministic job runner.

A *job* is one full tuning workload — a search campaign or an end-to-end
methodology run — executed by the service on behalf of a tenant.  The
runner here is deliberately a thin, deterministic shell around the
existing engines: all crash-safety comes from the engines' own JSONL
checkpoints, and all the service adds is

* a **workdir** per job that scopes every checkpoint, so a requeued job
  resumes exactly where the dead worker stopped;
* a **fence** (lease epoch persisted in the workdir) consulted before
  every objective evaluation and before publishing the result, so a
  zombie worker whose lease expired cannot corrupt a successor's state;
* a **result fingerprint** built only from resume-invariant quantities
  (database records, best configuration/objective — never
  ``n_evaluations``, which excludes replayed records), so a kill/resume
  run and an uninterrupted run produce byte-identical results.

Fencing and drain use ``BaseException`` subclasses on purpose: the
engines' evaluation loops catch ``Exception`` and would otherwise record
a fence trip as a FAILED evaluation *in the checkpoint database*,
polluting the very state the fence protects.  As ``BaseException`` they
abort the whole job run and surface in the worker's exit code instead.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..durable import atomic_write

__all__ = [
    "JobSpec",
    "JobGuard",
    "GuardedCallable",
    "LeaseFencedError",
    "DrainRequested",
    "read_fence",
    "write_fence",
    "run_job",
]

FENCE_NAME = "fence.json"
RESULT_NAME = "result.json"
ERROR_NAME = "error.json"
JOB_KINDS = ("campaign", "methodology")


class LeaseFencedError(BaseException):
    """The job's lease epoch is no longer current: a supervisor expired
    the lease and (possibly) handed the job to a new worker.  Raised as
    ``BaseException`` so engine evaluation loops (which catch
    ``Exception``) cannot swallow it into a FAILED checkpoint record —
    the zombie must stop, not degrade."""


class DrainRequested(BaseException):
    """The service is draining (SIGTERM): stop *before* the next
    evaluation, leaving the checkpoint database consistent, and let the
    supervisor requeue the job for the next service start.  Also a
    ``BaseException`` — drain is an orderly abort, not a failure."""


def atomic_write_json(path: str | os.PathLike, payload: Mapping[str, Any]) -> None:
    """Durably publish ``payload`` at ``path``
    (:func:`repro.durable.atomic_write`)."""
    atomic_write(path, json.dumps(payload, sort_keys=True))


def write_fence(workdir: str | os.PathLike, epoch: int) -> None:
    """Persist the current lease epoch in the job's workdir."""
    atomic_write_json(os.path.join(os.fspath(workdir), FENCE_NAME), {"epoch": int(epoch)})


def read_fence(workdir: str | os.PathLike) -> int | None:
    """The fenced lease epoch, or ``None`` when no fence exists."""
    path = os.path.join(os.fspath(workdir), FENCE_NAME)
    try:
        with open(path) as f:
            return int(json.load(f)["epoch"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


@dataclass(frozen=True)
class JobGuard:
    """Per-evaluation fence + drain check, carried into worker processes.

    ``check`` is called before every objective evaluation (via
    :class:`GuardedCallable`) and once more before the worker publishes
    its result.  Plain picklable data — no handles — so it crosses the
    process boundary with the job spec.
    """

    workdir: str
    epoch: int
    drain_path: str | None = None

    def check(self) -> None:
        fence = read_fence(self.workdir)
        if fence != self.epoch:
            raise LeaseFencedError(
                f"lease epoch {self.epoch} superseded (fence now {fence})"
            )
        if self.drain_path is not None and os.path.exists(self.drain_path):
            raise DrainRequested("service drain requested")


@dataclass(frozen=True)
class GuardedCallable:
    """Wrap any objective/profiler callable with a pre-call guard check."""

    fn: Any
    guard: JobGuard

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.guard.check()
        return self.fn(*args, **kwargs)


@dataclass(frozen=True)
class JobSpec:
    """What to run: kind + parameters, owned by a tenant.

    ``params`` drives the deterministic builders in :func:`run_job`:

    ``case``
        Synthetic case 1..5 (default 1).
    ``seed``
        Master seed for the whole job (default 0).
    ``noise``
        Objective noise scale — default **0.0**, not the synthetic
        functions' 0.001: noisy objectives draw from their own RNG per
        *fresh* evaluation, so a resumed run (which replays checkpointed
        records instead of re-evaluating) would diverge from an
        uninterrupted one.  Determinism is a service invariant; tenants
        must opt in to noise explicitly.
    ``engine`` / ``budget``
        Search engine (default ``"bo"``) and per-member evaluation budget.
    ``eval_cost``
        Seconds of simulated measurement cost per application run
        (default 0) — used by service benchmarks to reproduce the
        expensive-evaluation regime the paper targets.
    ``cutoff`` / ``variations``
        Methodology-kind analysis knobs.
    """

    kind: str
    job_id: str | None = None
    tenant: str = "default"
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValueError(f"kind must be one of {JOB_KINDS}, got {self.kind!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(
            kind=data["kind"],
            job_id=data.get("job_id"),
            tenant=data.get("tenant", "default"),
            params=dict(data.get("params", {})),
        )


# ----------------------------------------------------------------------
# Deterministic job execution


def _db_digest(database) -> str:
    """Resume-invariant digest of an evaluation database's records."""
    h = hashlib.sha256()
    for rec in database:
        h.update(
            json.dumps(
                {
                    "config": {k: rec.config[k] for k in sorted(rec.config)},
                    "objective": None if rec.objective != rec.objective else rec.objective,
                    "cost": rec.cost,
                    "status": str(rec.status),
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode()
        )
    return h.hexdigest()


def _search_summaries(searches) -> list[dict[str, Any]]:
    return [
        {
            "name": s.name,
            "engine": s.engine,
            "n_records": len(s.database),
            "best_objective": s.best_objective,
            "digest": _db_digest(s.database),
        }
        for s in searches
    ]


def _build_app(params: Mapping[str, Any]):
    from ..synthetic import SyntheticFunction

    return SyntheticFunction(
        case=int(params.get("case", 1)),
        noise_scale=float(params.get("noise", 0.0)),
        random_state=int(params.get("seed", 0)),
        eval_cost=float(params.get("eval_cost", 0.0)),
    )


def _final_result(spec: JobSpec, best_config, searches, extra) -> dict[str, Any]:
    # Score the winning configuration with a fresh noise-free copy of the
    # application: deterministic, independent of search history length.
    scorer = _build_app({**spec.params, "noise": 0.0})
    summaries = _search_summaries(searches)
    result = {
        "kind": spec.kind,
        "case": int(spec.params.get("case", 1)),
        "seed": int(spec.params.get("seed", 0)),
        "best_config": {k: best_config[k] for k in sorted(best_config)},
        "best_objective": float(scorer(best_config)),
        "searches": summaries,
        **extra,
    }
    h = hashlib.sha256()
    h.update(json.dumps(result, sort_keys=True, separators=(",", ":")).encode())
    result["fingerprint"] = h.hexdigest()
    return result


def _store_binding(spec: JobSpec, eval_store):
    """``(store, extra, provenance)`` for cross-job reuse, or ``(None,)*3``.

    The store serves a value *instead of* evaluating the objective, so it
    is only sound when the objective is a pure function of the
    configuration.  Noisy jobs draw fresh samples per evaluation — a
    served draw would change the job's sample sequence — so they bypass
    the store entirely (the provenance gate in the store would block
    cross-seed serving anyway; bypassing also keeps same-job semantics
    identical to a store-free run).

    ``extra`` identifies the measured function beyond the space shape:
    the application family and its case number.  It is folded into every
    space fingerprint derived for this job, so two cases sharing a space
    layout can never serve each other's values.
    """
    if eval_store is None:
        return None, None, None
    noise = float(spec.params.get("noise", 0.0))
    if noise != 0.0:
        return None, None, None
    from ..search.store import EvaluationStore

    store = EvaluationStore(eval_store)
    extra = {
        "app": "synthetic",
        "case": int(spec.params.get("case", 1)),
        "noise": noise,
    }
    provenance = {"noise": noise, "seed": int(spec.params.get("seed", 0))}
    return store, extra, provenance


def _attach_memo_stats(result: dict[str, Any], searches) -> dict[str, Any]:
    """Fold per-search memoization accounting into the job result.

    Added *after* the fingerprint is computed (like ``epoch``): hit
    counts legitimately differ between a warm-store and a cold-store run
    of the same job, and must not perturb the resume-invariant
    fingerprint the chaos suite asserts on.
    """
    totals = {"hits": 0, "cross_job_hits": 0, "misses": 0, "permanent_hits": 0}
    seen = False
    for s in searches:
        memo = s.meta.get("memo")
        if memo:
            seen = True
            for k in totals:
                totals[k] += int(memo.get(k, 0))
    if seen:
        result["memo"] = totals
    return result


def _run_campaign_job(
    spec: JobSpec, workdir: str, guard: JobGuard | None, telemetry,
    eval_store=None,
):
    from ..search import SearchCampaign, SearchSpec
    from ..search.store import space_fingerprint

    app = _build_app(spec.params)
    objective = GuardedCallable(app, guard) if guard is not None else app
    store, extra, provenance = _store_binding(spec, eval_store)
    space = app.search_space()
    search = SearchSpec(
        space=space,
        objective=objective,
        engine=spec.params.get("engine", "bo"),
        max_evaluations=int(spec.params.get("budget", 16)),
        max_retries=int(spec.params.get("max_retries", 0)),
        eval_store=store,
        eval_store_key=(
            space_fingerprint(space, extra=extra) if store is not None else None
        ),
        eval_provenance=provenance,
    )
    campaign = SearchCampaign(
        [search],
        strategy=f"job:{spec.job_id or 'campaign'}",
        random_state=int(spec.params.get("seed", 0)),
        parallel=False,
        checkpoint_dir=os.path.join(workdir, "checkpoints"),
        telemetry=telemetry,
    )
    try:
        result = campaign.run()
    finally:
        if store is not None:
            store.close()  # a pooled worker runs many jobs: no fd leaks
    out = _final_result(spec, result.combined_config, result.searches, {})
    return _attach_memo_stats(out, result.searches)


def _guarded_routines(routines, guard: JobGuard):
    from ..core import Routine, RoutineSet

    guarded = [
        Routine(
            name=r.name,
            parameters=list(r.parameters),
            objective=GuardedCallable(r.objective, guard),
            weight=r.weight,
        )
        for r in routines.routines
    ]
    profiler = routines.profiler
    if profiler is not None:
        profiler = GuardedCallable(profiler, guard)
    return RoutineSet(guarded, profiler=profiler)


def _run_methodology_job(
    spec: JobSpec, workdir: str, guard: JobGuard | None, telemetry,
    eval_store=None,
):
    from ..core import TuningMethodology

    app = _build_app(spec.params)
    routines = app.routines()
    if guard is not None:
        routines = _guarded_routines(routines, guard)
    store, extra, provenance = _store_binding(spec, eval_store)
    tm = TuningMethodology(
        app.search_space(),
        routines,
        cutoff=float(spec.params.get("cutoff", 0.25)),
        n_variations=int(spec.params.get("variations", 10)),
        engine=spec.params.get("engine", "bo"),
        parallel=False,
        checkpoint_dir=os.path.join(workdir, "checkpoints"),
        analysis_checkpoint_dir=os.path.join(workdir, "analysis"),
        eval_store=store,
        eval_store_extra=extra,
        eval_provenance=provenance,
        telemetry=telemetry,
        random_state=int(spec.params.get("seed", 0)),
    )
    try:
        result = tm.run()
    finally:
        if store is not None:
            store.close()
    out = _final_result(
        spec,
        result.best_config,
        result.campaign.searches,
        {"analysis_evaluations": int(result.analysis_evaluations)},
    )
    return _attach_memo_stats(out, result.campaign.searches)


def run_job(
    spec: JobSpec,
    workdir: str | os.PathLike,
    *,
    guard: JobGuard | None = None,
    telemetry=None,
    eval_store: str | os.PathLike | None = None,
) -> dict[str, Any]:
    """Execute ``spec`` with every checkpoint scoped under ``workdir``.

    Returns the resume-invariant result dict.  Re-running after a kill
    resumes from the workdir's checkpoints and returns a byte-identical
    result (same ``fingerprint``) — the exactly-once guarantee the chaos
    suite asserts.

    ``eval_store`` names a service-wide
    :class:`~repro.search.EvaluationStore` JSONL file shared across
    jobs: configurations another job on the same space already measured
    are served from the store instead of re-evaluated, and fresh
    measurements are written back.  Store hits are attributed in
    ``result["memo"]`` (added post-fingerprint — the fingerprint stays
    byte-identical to a cold-store run of the same job).  Noisy jobs
    (``params["noise"] != 0``) bypass the store entirely.
    """
    workdir = os.fspath(workdir)
    os.makedirs(workdir, exist_ok=True)
    eval_store = os.fspath(eval_store) if eval_store is not None else None
    if guard is not None:
        guard.check()
    if spec.kind == "campaign":
        return _run_campaign_job(spec, workdir, guard, telemetry, eval_store)
    if spec.kind == "methodology":
        return _run_methodology_job(spec, workdir, guard, telemetry, eval_store)
    raise ValueError(f"unknown job kind {spec.kind!r}")
