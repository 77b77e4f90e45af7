"""Adapters publishing the GP-based optimizers through the sampler registry.

The GP-BO and batch-BO engines predate the
:class:`~repro.search.samplers.base.BaseSampler` interface and run their
own loops (surrogate refits, acquisition schedules, batch rounds) rather
than a suggest-per-iteration protocol.  Each adapter here overrides
:meth:`run_search` to construct its optimizer **exactly** as the
campaign executor's dispatch historically did — same constructor
arguments, same seed handling, same result assembly — which is what
keeps every GP-BO fingerprint and simulated Table-III cost-ledger number
byte-for-byte unchanged.

Their :meth:`suggest` is a deliberately modest stand-in (one uniform
feasible configuration, matching the optimizers' initial designs) for
the conformance harness's interface checks.  The authoritative execution
path is ``run_search``.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ...bo.optimizer import BayesianOptimizer
from ..result import SearchResult
from .base import BaseSampler, SamplerCapabilities, register_sampler

__all__ = ["GPBOSamplerAdapter", "BatchBOSamplerAdapter"]


def _bo_result(spec, r, engine: str) -> SearchResult:
    return SearchResult(
        name=spec.space.name,
        engine=engine,
        best_config=r.best_config,
        best_objective=r.best_objective,
        search_time=r.search_time,
        n_evaluations=r.n_evaluations,
        database=r.database,
        tuned_names=tuple(spec.space.names),
        meta=dict(r.meta),
    )


def _common_kwargs(spec, database, tracer) -> dict[str, Any]:
    out: dict[str, Any] = {}
    if database is not None:
        out["database"] = database
    if tracer is not None:
        out["tracer"] = tracer
    if spec.quarantine_threshold is not None:
        out["quarantine_threshold"] = spec.quarantine_threshold
        out["quarantine_resolution"] = spec.quarantine_resolution
    return out


@register_sampler
class GPBOSamplerAdapter(BaseSampler):
    """The GP-based Bayesian optimizer (the paper's engine)."""

    name = "gp-bo"
    aliases = ("bo",)
    capabilities = SamplerCapabilities(
        floats=True,
        integers=True,
        categorical=True,
        multivariate=True,
        conditional=True,
        warm_start=True,
    )

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any]:
        return space.sample(rng)

    @classmethod
    def run_search(cls, spec, seed, objective, database, tracer=None):
        pool = getattr(spec, "candidate_pool", None)
        opt = BayesianOptimizer(
            spec.space,
            objective,
            max_evaluations=spec.budget(),
            random_state=seed,
            **_common_kwargs(spec, database, tracer),
            **({"candidate_pool": pool} if pool is not None else {}),
            **spec.engine_options,
        )
        return _bo_result(spec, opt.run(), "bo")


@register_sampler
class BatchBOSamplerAdapter(GPBOSamplerAdapter):
    """Batched-acquisition BO (q proposals per surrogate refit)."""

    name = "batch-bo"
    aliases = ()

    @classmethod
    def run_search(cls, spec, seed, objective, database, tracer=None):
        from ...bo.batch import BatchBayesianOptimizer

        pool = getattr(spec, "candidate_pool", None)
        opt = BatchBayesianOptimizer(
            spec.space,
            objective,
            max_evaluations=spec.budget(),
            random_state=seed,
            **_common_kwargs(spec, database, tracer),
            **({"candidate_pool": pool} if pool is not None else {}),
            **spec.engine_options,
        )
        return _bo_result(spec, opt.run(), "batch-bo")
