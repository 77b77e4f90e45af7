"""The generic search loop that drives suggest-based samplers.

:class:`SamplerSearch` is the one execution loop of every engine except
the two GP-based optimizers.  It gives each :meth:`BaseSampler.suggest`
implementation the full robustness and determinism contract:

* **Per-iteration seed streams** — iteration *i* (the proposal for
  database record *i*) draws from an RNG derived as
  ``SeedSequence(entropy, spawn_key + (i + 1,))``, the same stream-keying
  discipline as :class:`~repro.bo.optimizer.BayesianOptimizer`.  Because
  the stream index is the *database length* rather than any process
  counter, a killed-and-resumed search consumes exactly the streams an
  uninterrupted run would — kill-and-resume is bit-identical for any
  sampler whose proposal is a function of ``(history, rng)``.
* **Resume replay** — records already in the (checkpointed) database are
  replayed, not re-run: eval events are re-emitted for trace byte
  equality and the circuit-breaker state is restored from its sidecar or
  reconstructed from checkpointed failure kinds.
* **Capability fallback** — when the space needs features the sampler
  does not declare (a categorical axis for CMA-ES-lite, say), the run
  degrades *explicitly*: a ``UserWarning`` plus log line, uniform
  feasible sampling takes over proposals, and the result carries
  ``meta["capability_fallback"]`` naming the unsupported features.  A
  sampler never crashes on — or silently mis-encodes — a space it cannot
  handle.
* **Shared validity filter** — every proposal passes
  :meth:`BaseSampler.candidate_is_valid` (domains, constraints,
  conditional masking, breaker quarantine) before it is evaluated.
* **Finite designs** — a sampler returning ``None`` (an exhausted grid)
  ends the search, as a fully quarantined space does.
"""

from __future__ import annotations

import warnings
from typing import Any, Mapping

import numpy as np

from ...bo.history import Evaluation, EvaluationDatabase
from ...faults.breaker import CircuitBreaker, persist_breaker, restore_breaker
from ...faults.taxonomy import failure_kind_of
from ...log import get_logger
from ...telemetry.core import config_hash
from ..evaluate import evaluate_config, schedule_makespan
from ..result import SearchResult
from .base import BaseSampler, unsupported_features

__all__ = ["SamplerSearch"]

logger = get_logger("search")

#: Suggestion retries per iteration before falling back to uniform
#: feasible sampling (also the breaker's redraw budget).
_SUGGEST_RETRIES = 64


def emit_eval(
    tracer: Any, index: int, rec: Evaluation, best_seen: float | None
) -> float | None:
    """Emit one ``eval`` event keyed by database index.

    Returns the updated best-so-far over OK records (the event's ``best``
    field), which the caller threads through subsequent calls.
    """
    if rec.ok and (best_seen is None or rec.objective < best_seen):
        best_seen = float(rec.objective)
    kind = failure_kind_of(rec)
    extra: dict[str, Any] = {}
    if rec.meta.get("cache_hit"):
        extra["cache_hit"] = True
    tracer.eval_event(
        index,
        objective=float(rec.objective),
        cost=float(rec.cost),
        status=rec.status,
        best=best_seen,
        failure_kind=kind.value if kind is not None else None,
        cfg_hash=config_hash(rec.config),
        **extra,
    )
    return best_seen


class SamplerSearch:
    """Run one member search by repeatedly asking a sampler to suggest.

    Parameters
    ----------
    space, objective:
        As in :class:`repro.bo.BayesianOptimizer`.
    sampler:
        The :class:`~repro.search.samplers.base.BaseSampler` providing
        proposals.
    max_evaluations:
        Number of configurations to evaluate (defaults to the paper's
        ``10 x num_parameters``); fewer when the sampler's design ends
        early or the reachable space is fully quarantined.
    parallelism:
        Width of the simulated evaluation pool; search time is the length
        of the critical path under greedy list scheduling (equal to
        ``sum/parallelism`` when costs are uniform).  ``None`` means fully
        parallel (one slot per evaluation).
    evaluation_timeout:
        *Simulated* kill switch: evaluations whose returned value exceeds
        this budget are recorded TIMEOUT (``meta["timeout_kind"] =
        "simulated"``).  A genuinely hanging objective is the watchdog's
        job (wrap it in :class:`repro.faults.WatchdogObjective`, as the
        campaign executor does for ``SearchSpec.wall_timeout``); the
        watchdog's :class:`~repro.faults.EvaluationTimeoutError` is
        recorded here as a ``"wallclock"`` TIMEOUT.  See
        :mod:`repro.search.result` for the full semantics.
    quarantine_threshold / quarantine_resolution:
        Circuit breaker over space cells (see
        :class:`repro.faults.CircuitBreaker`); after the threshold of
        PERMANENT/NUMERIC failures in one cell, proposals landing there
        are discarded and redrawn.  ``None`` disables.
    database:
        Optional (checkpointed) :class:`~repro.bo.EvaluationDatabase`;
        records already present are replayed, not re-run.
    tracer:
        Optional :class:`repro.telemetry.Tracer` (pure observer —
        ``evaluation`` spans plus one ``eval`` event per database record,
        replayed records included).  ``None`` (default) disables.
    random_state:
        Seed material: a :class:`numpy.random.SeedSequence` is used
        as-is (the campaign executor path); a Generator contributes one
        entropy draw; anything else seeds a fresh SeedSequence.
    """

    def __init__(
        self,
        space,
        objective,
        sampler: BaseSampler,
        *,
        max_evaluations: int | None = None,
        parallelism: int | None = None,
        evaluation_timeout: float | None = None,
        quarantine_threshold: int | None = None,
        quarantine_resolution: int = 4,
        database: EvaluationDatabase | None = None,
        tracer=None,
        random_state=None,
    ):
        self.space = space
        self.objective = objective
        self.sampler = sampler
        self.max_evaluations = (
            int(max_evaluations)
            if max_evaluations is not None
            else 10 * space.dimension
        )
        if self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")
        if parallelism is not None and parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.evaluation_timeout = evaluation_timeout
        self.breaker = (
            CircuitBreaker(
                space,
                threshold=quarantine_threshold,
                resolution=quarantine_resolution,
            )
            if quarantine_threshold is not None
            else None
        )
        self.quarantine_skips = 0
        self.invalid_proposals = 0
        self.database = database if database is not None else EvaluationDatabase()
        self.tracer = tracer
        # Seed handling mirrors BayesianOptimizer: a SeedSequence passes
        # through untouched, a Generator (legacy API) contributes one
        # entropy draw, anything else seeds a fresh sequence.
        if isinstance(random_state, np.random.SeedSequence):
            self._seed_seq = random_state
        elif isinstance(random_state, np.random.Generator):
            self._seed_seq = np.random.SeedSequence(
                int(random_state.integers(0, 2**63))
            )
        else:
            self._seed_seq = np.random.SeedSequence(random_state)
        self._fallback_features = unsupported_features(
            sampler.capabilities, space
        )

    # ------------------------------------------------------------------
    def _stream(self, index: int) -> np.random.SeedSequence:
        """Child SeedSequence for stream ``index`` (stable, stateless).

        Built by extending the spawn key instead of calling ``spawn()``
        so reconstruction is independent of how many children were
        spawned before — the property resume correctness rests on.
        """
        key = tuple(self._seed_seq.spawn_key) + (int(index),)
        return np.random.SeedSequence(self._seed_seq.entropy, spawn_key=key)

    def _iter_rng(self, index: int) -> np.random.Generator:
        """The RNG for the proposal of database record ``index``.

        Stream 0 is reserved for :meth:`BaseSampler.prepare`; iteration
        ``i`` uses stream ``i + 1``.  Keyed on the record index, so a
        resumed search continues exactly where the crashed one left off.
        """
        return np.random.default_rng(self._stream(index + 1))

    def _complete(self, config: Mapping[str, Any]) -> dict[str, Any]:
        complete = getattr(self.space, "complete", None)
        return complete(config) if complete is not None else dict(config)

    # ------------------------------------------------------------------
    def _suggest(self, index: int) -> dict[str, Any] | None:
        """One validated proposal for record ``index`` (or ``None``).

        The sampler gets :data:`_SUGGEST_RETRIES` attempts on the
        iteration's own RNG stream; proposals failing the shared validity
        filter are discarded and re-asked.  After the budget — or
        immediately, under capability fallback — uniform feasible
        sampling takes over, with the breaker's own redraw loop on top.
        ``None`` when the sampler's design is exhausted or the reachable
        space appears fully quarantined.
        """
        rng = self._iter_rng(index)
        history = self.database.records
        if not self._fallback_features:
            for _ in range(_SUGGEST_RETRIES):
                cfg = self.sampler.suggest(history, self.space, rng)
                if cfg is None:
                    return None
                if self.sampler.candidate_is_valid(self.space, cfg, self.breaker):
                    return cfg
                if self.breaker is not None and self.space.is_valid(cfg):
                    self.quarantine_skips += 1
                else:
                    self.invalid_proposals += 1
        # Uniform feasible fallback: space.sample() is valid by
        # construction, so only the breaker can still veto.
        cfg = self.space.sample(rng)
        if self.breaker is None or self.breaker.allows(cfg):
            return cfg
        self.quarantine_skips += 1
        for _ in range(_SUGGEST_RETRIES):
            cfg = self.space.sample(rng)
            if self.breaker.allows(cfg):
                return cfg
            self.quarantine_skips += 1
        return None

    def run(self) -> SearchResult:
        """Evaluate up to ``max_evaluations`` sampler-proposed configs."""
        if self._fallback_features:
            msg = (
                f"sampler {self.sampler.name!r} does not support "
                f"{', '.join(self._fallback_features)} required by space "
                f"{self.space.name!r}; falling back to uniform feasible "
                "sampling"
            )
            warnings.warn(msg, UserWarning, stacklevel=2)
            logger.warning(msg)
        self.sampler.prepare(self.space, self._stream(0), self.max_evaluations)
        best_seen: float | None = None
        if self.tracer is not None:
            # Re-emit eval events for replayed records (resume support):
            # the sink dedups by database index, so the persisted stream
            # matches an uninterrupted run byte-for-byte.
            for i, rec in enumerate(self.database):
                best_seen = emit_eval(self.tracer, i, rec, best_seen)
        if self.breaker is not None:
            # Resume support: restore the persisted sidecar when one
            # exists; otherwise replay checkpointed failure kinds.
            if not restore_breaker(self.breaker, self.database.path):
                for rec in self.database:
                    if not rec.ok:
                        self.breaker.record(rec.config, failure_kind_of(rec))
        while len(self.database) < self.max_evaluations:
            index = len(self.database)
            cfg = self._suggest(index)
            if cfg is None:
                break
            full = self._complete(cfg)
            if self.tracer is None:
                rec = evaluate_config(
                    self.objective, full,
                    evaluation_timeout=self.evaluation_timeout,
                )
            else:
                with self.tracer.span("evaluation") as sp:
                    rec = evaluate_config(
                        self.objective, full,
                        evaluation_timeout=self.evaluation_timeout,
                    )
                    sp.attrs.update(status=rec.status, cost=rec.cost)
            if self.breaker is not None and not rec.ok:
                before = self.breaker.total_counted
                self.breaker.record(rec.config, failure_kind_of(rec))
                if self.breaker.total_counted != before:
                    persist_breaker(self.breaker, self.database.path)
            self.database.append(rec)
            if self.tracer is not None:
                best_seen = emit_eval(
                    self.tracer, len(self.database) - 1, rec, best_seen
                )
        costs = np.array([r.cost for r in self.database], dtype=float)
        slots = (
            self.parallelism if self.parallelism is not None
            else max(1, costs.size)
        )
        best = self.database.best()
        meta: dict[str, Any] = {"sampler": self.sampler.name}
        if self._fallback_features:
            meta["capability_fallback"] = {
                "sampler": self.sampler.name,
                "unsupported": list(self._fallback_features),
                "fallback": "uniform",
            }
        if self.breaker is not None and self.breaker.n_tripped:
            meta["quarantined"] = self.breaker.summary()
        if self.quarantine_skips:
            meta["quarantine_skipped"] = self.quarantine_skips
        if self.invalid_proposals:
            meta["invalid_proposals"] = self.invalid_proposals
        return SearchResult(
            name=self.space.name,
            engine=self.sampler.name,
            best_config=dict(best.config),
            best_objective=best.objective,
            search_time=schedule_makespan(costs, slots),
            n_evaluations=len(self.database),
            database=self.database,
            meta=meta,
        )
