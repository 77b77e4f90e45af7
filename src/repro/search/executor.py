"""Fault-tolerant parallel campaign executor.

The paper's cost model assumes the member searches of a strategy run *in
parallel* (campaign wall-clock = max over members) and leans on GPTune's
crash-recovery support for long campaigns.  This module makes both real:

* **Parallel execution** — member searches run concurrently in a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Specs whose
  objectives cannot cross a process boundary (closures, bound methods of
  unpicklable objects) are detected up front and the campaign falls back
  to a deterministic in-process loop; either way every member is driven
  by the same :func:`run_search_spec` with the same per-spec seed, so the
  parallel and sequential paths produce bit-identical results.
* **Checkpoint / resume** — with a ``checkpoint_dir`` every member
  persists its :class:`~repro.bo.history.EvaluationDatabase` to an
  append-only JSONL file (O(1) I/O per evaluation) named after the
  member's stable key.  Re-running the campaign resumes each member from
  its checkpoint: completed evaluations are replayed, not re-run, and the
  BO engine reconstructs its surrogate state so the continuation matches
  an uninterrupted run.
* **Retry with exponential backoff** — objectives that raise transient
  errors are retried per :class:`SearchSpec` policy before being recorded
  as FAILED.
* **Memoization** — an optional per-member evaluation cache keyed on the
  canonicalized configuration dict; repeated configurations (common after
  a resume and in grid/random engines) are served from the cache.

Per-spec seeds are derived from :class:`numpy.random.SeedSequence` keyed
by the member's *stable key* (space name + occurrence index among specs
of the same name), never by campaign position — adding, removing, or
permuting members does not reseed the others.
"""

from __future__ import annotations

import os
import pickle
import re
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..bo.history import EvaluationDatabase
from ..faults.injection import FaultyObjective
from ..faults.taxonomy import FailureKind
from ..faults.watchdog import WatchdogObjective
from ..log import get_logger
from ..telemetry.core import Telemetry
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.sinks import MemorySink
from .cache import MemoizingObjective, RetryingObjective
from .result import CampaignResult, SearchResult
from .samplers.base import sampler_by_name
from .scalarize import ScalarizedObjective

if TYPE_CHECKING:  # avoid a circular import with runner.py
    from .runner import SearchSpec

__all__ = [
    "CampaignExecutor",
    "run_search_spec",
    "run_measure_tasks",
    "member_keys",
    "member_scope",
    "spec_seed_sequences",
]

logger = get_logger("search")


def member_keys(specs: Sequence["SearchSpec"]) -> list[tuple[int, int]]:
    """Stable (name-hash, occurrence) key per member.

    The key depends only on the member's space name and its occurrence
    ordinal among same-named members — not on its position in the
    campaign — so permuting or dropping other members leaves a member's
    key (and therefore its seed and checkpoint file) unchanged.
    """
    counts: dict[str, int] = {}
    keys = []
    for spec in specs:
        name = spec.space.name
        k = counts.get(name, 0)
        counts[name] = k + 1
        keys.append((zlib.crc32(name.encode("utf-8")), k))
    return keys


def spec_seed_sequences(
    specs: Sequence["SearchSpec"],
    random_state: int | np.random.Generator | None = None,
) -> list[np.random.SeedSequence]:
    """Derive one independent SeedSequence per member from a campaign seed.

    Seeds are keyed by :func:`member_keys`, fixing the order-dependence
    bug where positionally drawn child seeds meant that reordering or
    removing one spec reseeded every other member.
    """
    if isinstance(random_state, np.random.Generator):
        entropy = int(random_state.integers(0, 2**63))
    elif random_state is None:
        entropy = int(np.random.SeedSequence().entropy)
    else:
        entropy = int(random_state)
    return [
        np.random.SeedSequence(entropy, spawn_key=key)
        for key in member_keys(specs)
    ]


def _slug(name: str) -> str:
    """Filesystem-safe version of a member name."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "member"


def checkpoint_path(
    checkpoint_dir: str | os.PathLike, spec: "SearchSpec", key: tuple[int, int]
) -> str:
    """Checkpoint file for one member: ``<dir>/<name>-<occurrence>.jsonl``.

    Derived from the member's stable key so a rerun of a permuted
    campaign still finds each member's own checkpoint.
    """
    return os.path.join(
        os.fspath(checkpoint_dir), f"{_slug(spec.space.name)}-{key[1]}.jsonl"
    )


def member_scope(
    strategy: str, spec: "SearchSpec", key: tuple[int, int]
) -> str:
    """Trace scope of one member: ``<strategy>/<name>-<occurrence>``.

    Mirrors :func:`checkpoint_path`'s stable naming so trace streams and
    checkpoints of the same member line up.
    """
    return f"{strategy}/{_slug(spec.space.name)}-{key[1]}"


def _wrap_objective(spec: "SearchSpec", database: EvaluationDatabase | None):
    """Apply the spec's robustness policies to its objective.

    Wrapper order (inside out): scalarization transforms the raw
    objective's output before anything else sees it (cache keys, failure
    classification, and the ledger all operate on the scalarized
    value); fault injection sits next so every other layer is exercised
    by injected faults; the watchdog turns hangs into classified
    timeouts; retries absorb transient failures (and short-circuit on
    permanent ones); the memoization cache sits outermost so cache hits
    skip everything.
    """
    objective = spec.objective
    scalarize = getattr(spec, "scalarize", None)
    if scalarize is not None:
        objective = ScalarizedObjective(objective, scalarize)
    if spec.fault_plan is not None and spec.fault_plan.active:
        objective = FaultyObjective(objective, spec.fault_plan)
    if spec.wall_timeout is not None:
        objective = WatchdogObjective(objective, spec.wall_timeout)
    if spec.max_retries > 0:
        objective = RetryingObjective(
            objective, max_retries=spec.max_retries, backoff=spec.retry_backoff
        )
    store = getattr(spec, "eval_store", None)
    if spec.memoize or store is not None:
        if store is not None:
            scope = getattr(spec, "eval_store_key", None)
            if scope is None:
                from .store import space_fingerprint

                scope = space_fingerprint(spec.space)
            objective = MemoizingObjective(
                objective,
                store=store,
                store_scope=scope,
                provenance=getattr(spec, "eval_provenance", None),
            )
        else:
            objective = MemoizingObjective(objective)
        if database is not None:
            objective.seed_from_database(database)
    return objective


def run_search_spec(
    spec: "SearchSpec",
    seed: np.random.SeedSequence,
    *,
    checkpoint: str | os.PathLike | None = None,
    telemetry: Telemetry | None = None,
    scope: str | None = None,
) -> SearchResult:
    """Execute one member search: engine dispatch + robustness wrappers.

    This is the single execution path shared by the sequential and
    parallel campaign modes (and by pool worker processes), which is what
    makes the two modes bit-identical for a given seed.  With a
    ``telemetry`` handle it additionally emits the member's trace stream
    (a ``search_start`` event, the ``search`` span wrapping the engine
    run, one ``eval`` event per database record, and a final metrics
    snapshot) under ``scope`` — a pure observer either way.
    """
    t0 = time.perf_counter()
    database = EvaluationDatabase(checkpoint) if checkpoint is not None else None
    n_warm = 0
    warm = getattr(spec, "warm_start", None)
    if warm:
        if database is None:
            database = EvaluationDatabase()
        if len(database) == 0:
            # Seed history only into an *empty* database: a resumed
            # checkpoint already contains these records (they were
            # persisted on the first run), and re-injecting them would
            # duplicate history.
            database.extend(warm)
            n_warm = len(warm)
        else:
            n_warm = sum(
                1 for rec in database if rec.meta.get("warm_start")
            )
    objective = _wrap_objective(spec, database)
    if telemetry is None:
        result = _dispatch(spec, seed, objective, database)
    else:
        tracer = telemetry.tracer(
            scope if scope is not None else _slug(spec.space.name)
        )
        strategy = (
            tracer.scope.rsplit("/", 1)[0] if "/" in tracer.scope else ""
        )
        tracer.event(
            "search_start",
            budget=spec.budget(),
            engine=spec.engine,
            space=spec.space.name,
            strategy=strategy,
            resumed=len(database) if database is not None else 0,
        )
        if n_warm:
            tracer.event(
                "warm_start", seeded=n_warm, space=spec.space.name
            )
            telemetry.metrics.counter("warm_start_seeded").inc(n_warm)
        with tracer.span(
            "search", engine=spec.engine, space=spec.space.name
        ) as sp:
            result = _dispatch(spec, seed, objective, database, tracer=tracer)
            sp.attrs["n_evaluations"] = result.n_evaluations
        _member_metrics(telemetry, tracer, spec, objective, result)
    if n_warm:
        result.meta["warm_seeded"] = n_warm
    if (
        isinstance(objective, MemoizingObjective)
        and getattr(spec, "eval_store", None) is not None
    ):
        # Memo accounting only for store-backed members: plain memoized
        # searches keep their historical (meta-free) results untouched.
        result.meta["memo"] = {
            "hits": objective.hits,
            "cross_job_hits": objective.cross_hits,
            "misses": objective.misses,
            "permanent_hits": objective.permanent_hits,
        }
    result.measured_time = time.perf_counter() - t0
    return result


def _member_metrics(
    telemetry: Telemetry, tracer, spec: "SearchSpec", objective, result: SearchResult
) -> None:
    """Aggregate one member's counters into the telemetry registry.

    Counts are derived from the finished result and the robustness
    wrapper chain — deterministic for a given search — and snapshotted
    into the member's event stream so pool workers ship them home.
    """
    m = telemetry.metrics
    m.counter("evaluations", engine=spec.engine).inc(result.n_evaluations)
    if result.database is not None:
        hist = m.histogram("evaluation_cost_seconds")
        for rec in result.database:
            hist.observe(rec.cost)
    m.gauge("best_objective", search=spec.space.name).set(result.best_objective)
    obj = objective
    while obj is not None:
        if isinstance(obj, MemoizingObjective):
            if obj.hits:
                m.counter("cache_hits").inc(obj.hits)
            if obj.misses:
                m.counter("cache_misses").inc(obj.misses)
            if obj.cross_hits:
                m.counter("cache_cross_hits").inc(obj.cross_hits)
            if obj.permanent_hits:
                m.counter("cache_permanent_hits").inc(obj.permanent_hits)
            # Service-facing memoization counters, labelled by scope so
            # Prometheus exposes repro_service_memo_hits_total{scope=...}.
            if obj.hits:
                m.counter("service_memo_hits", scope="job").inc(obj.hits)
            if obj.cross_hits:
                m.counter("service_memo_hits", scope="cross_job").inc(
                    obj.cross_hits
                )
            if obj.misses:
                m.counter("service_memo_misses").inc(obj.misses)
        elif isinstance(obj, RetryingObjective):
            if obj.retries:
                m.counter("retries").inc(obj.retries)
            if obj.short_circuits:
                m.counter("retry_short_circuits").inc(obj.short_circuits)
        obj = getattr(obj, "objective", None)
        if not callable(obj):
            break
    for kind, count in (result.meta.get("failure_counts") or {}).items():
        m.counter("faults", kind=kind).inc(count)
    quarantined = result.meta.get("quarantined")
    if quarantined:
        m.counter("breaker_trips").inc(len(quarantined.get("cells", ())))
    tracer.metrics_event(m)


def _dispatch(
    spec: "SearchSpec",
    seed: np.random.SeedSequence,
    objective,
    database: EvaluationDatabase | None,
    tracer=None,
) -> SearchResult:
    """Resolve ``spec.engine`` through the sampler registry and run it.

    Every engine arrives here by name: the GP-based optimizers (gp-bo,
    batch-bo) through adapters that construct them exactly as this
    function historically did, keeping fingerprints byte-identical, and
    every other engine as a suggest-based sampler driven by the generic
    :class:`~repro.search.samplers.SamplerSearch` loop.  Unknown names
    raise ``ValueError``, as always.
    """
    sampler_cls = sampler_by_name(spec.engine)
    return sampler_cls.run_search(spec, seed, objective, database, tracer)


def _run_member(payload: bytes):
    """Pool worker entry point: unpickle one member task and run it.

    Returns ``(result, events, metrics_snapshot)``: the worker buffers
    its trace events in a :class:`MemorySink` and snapshots its own
    metrics registry; the parent forwards/merges them *in member order*,
    so parallel campaigns produce the same trace as sequential ones.
    """
    spec, seed, checkpoint, scope, clock = pickle.loads(payload)
    if scope is None:
        result = run_search_spec(spec, seed, checkpoint=checkpoint)
        return result, [], None
    buffer = MemorySink()
    telemetry = Telemetry([buffer], clock=clock, metrics=MetricsRegistry())
    result = run_search_spec(
        spec, seed, checkpoint=checkpoint, telemetry=telemetry, scope=scope
    )
    return result, buffer.events, telemetry.metrics.snapshot()


def _run_measure_task(payload: bytes):
    """Pool worker entry point for one Phase-1 measurement."""
    measurer, task = pickle.loads(payload)
    return measurer.measure(task)


def run_measure_tasks(
    measurer, tasks: Sequence, *, n_workers: int | None = None
):
    """Measure Phase-1 tasks in a process pool, in task order.

    Returns the observations aligned with ``tasks``, or ``None`` when the
    measurer/tasks cannot cross a process boundary or the pool is lost —
    the caller falls back to an in-process loop with identical results
    (measurement consumes no random state; the plan fixed every
    configuration up front).
    """
    payloads = CampaignExecutor._picklable_tasks(
        [(measurer, task) for task in tasks]
    )
    if payloads is None:
        return None
    if n_workers is None:
        n_workers = os.cpu_count() or 1
    n_workers = max(1, min(int(n_workers), len(payloads)))
    try:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(_run_measure_task, payloads))
    except (BrokenProcessPool, OSError) as exc:
        logger.warning(
            "phase-1 measurement pool failed (%r); falling back in-process",
            exc,
        )
        return None


class CampaignExecutor:
    """Run a set of member searches, optionally in parallel with
    checkpointing.

    Parameters
    ----------
    n_workers:
        Process-pool width for parallel execution; ``None`` uses
        ``os.cpu_count()`` capped at the member count.  ``1`` always runs
        in-process.
    checkpoint_dir:
        Directory for per-member JSONL evaluation checkpoints; ``None``
        disables checkpointing.  Existing checkpoints are resumed.
    member_timeout:
        Pool-level watchdog: maximum real seconds to wait for a pooled
        member's future.  A member that blows the deadline has its worker
        processes terminated (the only way to stop a hung evaluation from
        the outside) and is resubmitted once to a fresh pool; members
        collateral-killed by the termination are resubmitted too, and
        their checkpoints (when enabled) mean completed evaluations are
        replayed, not re-run.  Pair with ``SearchSpec.wall_timeout`` so
        the in-worker watchdog catches individual hanging evaluations
        before the whole member is sacrificed.  ``None`` disables.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`.  Members emit their
        trace streams into per-member buffers (in-process or inside pool
        workers) which the executor forwards *in member order* and merges
        with the campaign metrics — so sequential and parallel campaigns
        with the same deterministic clock produce identical traces.
        ``None`` (default) disables all instrumentation.
    """

    #: Pool rounds before falling back (initial submission + one resubmission).
    _POOL_ROUNDS = 2

    def __init__(
        self,
        *,
        n_workers: int | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        member_timeout: float | None = None,
        telemetry: Telemetry | None = None,
    ):
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if member_timeout is not None and member_timeout <= 0:
            raise ValueError("member_timeout must be > 0")
        self.n_workers = n_workers
        self.member_timeout = member_timeout
        self.telemetry = telemetry
        self.checkpoint_dir = (
            os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        )

    # ------------------------------------------------------------------
    def _member_checkpoints(
        self, specs: Sequence["SearchSpec"]
    ) -> list[str | None]:
        if self.checkpoint_dir is None:
            return [None] * len(specs)
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        return [
            checkpoint_path(self.checkpoint_dir, spec, key)
            for spec, key in zip(specs, member_keys(specs))
        ]

    @staticmethod
    def _picklable_tasks(tasks: list[tuple]) -> list[bytes] | None:
        """Serialize member tasks, or ``None`` if any cannot cross a
        process boundary (-> deterministic in-process fallback)."""
        payloads = []
        for task in tasks:
            try:
                payloads.append(pickle.dumps(task))
            except Exception:
                return None
        return payloads

    def run(
        self,
        specs: Sequence["SearchSpec"],
        seeds: Sequence[np.random.SeedSequence],
        *,
        strategy: str = "campaign",
        parallel: bool = True,
    ) -> CampaignResult:
        """Execute every member and aggregate into a CampaignResult.

        When the members actually ran concurrently,
        ``CampaignResult.measured_campaign_seconds`` is set to the real
        elapsed wall-clock of the whole campaign, so
        ``measured_wall_time`` reflects measured parallel execution
        rather than the simulated max over members.
        """
        if len(specs) != len(seeds):
            raise ValueError("specs and seeds must have the same length")
        checkpoints = self._member_checkpoints(specs)
        if self.telemetry is not None:
            scopes = [
                member_scope(strategy, spec, key)
                for spec, key in zip(specs, member_keys(specs))
            ]
            clock = self.telemetry.clock
        else:
            scopes = [None] * len(specs)
            clock = None
        tasks = list(zip(specs, seeds, checkpoints, scopes))

        result = CampaignResult(strategy=strategy)
        n_workers = self.n_workers
        if n_workers is None:
            n_workers = min(len(specs), os.cpu_count() or 1)
        use_pool = parallel and n_workers > 1 and len(specs) > 1
        # Promote fixed candidate pools into shared memory before the
        # member tasks are pickled: each payload then carries an O(1)
        # (name, shape) handle instead of a copy of the (m, d) matrix,
        # and every worker attaches to the same physical pages.  The
        # executor owns the segments it created and releases them (copy
        # back + unlink) once all members have finished.
        promoted = []
        if use_pool:
            for spec in specs:
                cpool = getattr(spec, "candidate_pool", None)
                if (
                    cpool is not None
                    and not cpool.is_shared
                    and cpool.ensure_shared()
                ):
                    promoted.append(cpool)
        payloads = (
            self._picklable_tasks(
                [task + (clock,) for task in tasks]
            )
            if use_pool
            else None
        )
        if use_pool and payloads is None:
            logger.info(
                "campaign %r: member tasks not picklable; "
                "falling back to in-process execution",
                strategy,
            )

        t0 = time.perf_counter()
        try:
            if payloads is not None:
                result.searches.extend(
                    self._run_pool(tasks, payloads, n_workers)
                )
                result.measured_campaign_seconds = time.perf_counter() - t0
                result.executed_parallel = True
            else:
                for spec, seed, checkpoint, scope in tasks:
                    result.searches.append(
                        self._run_inline(spec, seed, checkpoint, scope)
                    )
        finally:
            for cpool in promoted:
                cpool.release()
        return result

    def _run_inline(self, spec, seed, checkpoint, scope) -> SearchResult:
        """One member in-process, with live progress and live trace."""
        if self.telemetry is None:
            return run_search_spec(spec, seed, checkpoint=checkpoint)
        # The member shares the parent's sinks live (instead of the
        # buffer-then-forward protocol pool members need), so external
        # tailers see evaluations as they happen.  Sequential members
        # emit in exactly the order forward() would replay, keeping the
        # trace bytes identical to the pooled path.
        child = self.telemetry.inline_member()
        res = run_search_spec(
            spec, seed, checkpoint=checkpoint, telemetry=child, scope=scope
        )
        self.telemetry.metrics.merge(child.metrics)
        return res

    # -- pool resilience ------------------------------------------------
    def _run_pool(
        self, tasks: list[tuple], payloads: list[bytes], n_workers: int
    ) -> list[SearchResult]:
        """Run pooled members with worker-loss recovery.

        Members are submitted as individual futures.  A member whose
        worker dies (``BrokenProcessPool``) or whose future blows
        ``member_timeout`` is resubmitted once to a fresh pool; members
        that still cannot complete in a pool fall back to the in-process
        path — which is bit-identical by construction because both paths
        drive :func:`run_search_spec` with the same spec, seed, and
        checkpoint.  A member that timed out in every pool round is *not*
        rerun in-process (that would hang the caller); a TimeoutError
        naming the member is raised instead.
        """
        n = len(payloads)
        results: list[SearchResult | None] = [None] * n
        member_events: list[list] = [[] for _ in range(n)]
        member_snaps: list[dict | None] = [None] * n
        events: dict[int, list[str]] = {i: [] for i in range(n)}
        pending = list(range(n))
        for _ in range(self._POOL_ROUNDS):
            if not pending:
                break
            pending = self._pool_round(
                payloads, results, member_events, member_snaps, events,
                pending, n_workers,
            )
        for i in pending:
            if events[i] and events[i][-1] == "member_timeout":
                raise TimeoutError(
                    f"campaign member {i} ({tasks[i][0].space.name!r}) "
                    f"exceeded member_timeout={self.member_timeout}s in "
                    f"{self._POOL_ROUNDS} pool rounds; set "
                    "SearchSpec.wall_timeout so the in-worker watchdog can "
                    "stop hanging evaluations"
                )
            # Worker loss with no surviving pool: deterministic in-process
            # fallback (same run_search_spec, same seed, same checkpoint).
            spec, seed, checkpoint, scope = tasks[i]
            logger.warning(
                "campaign member %d (%r): pool execution failed (%s); "
                "falling back to in-process",
                i, spec.space.name, ", ".join(events[i]),
            )
            if self.telemetry is None:
                results[i] = run_search_spec(spec, seed, checkpoint=checkpoint)
            else:
                child, buffer = self.telemetry.member(live=False)
                results[i] = run_search_spec(
                    spec, seed, checkpoint=checkpoint,
                    telemetry=child, scope=scope,
                )
                member_events[i] = buffer.events
                member_snaps[i] = child.metrics.snapshot()
        if self.telemetry is not None:
            # Deterministic merge: member streams forwarded in member
            # order, exactly as the sequential path emits them.
            for i in range(n):
                self.telemetry.forward(member_events[i], live=True)
                if member_snaps[i] is not None:
                    self.telemetry.metrics.merge_snapshot(member_snaps[i])
        for i, evs in events.items():
            res = results[i]
            if evs and res is not None:
                res.meta.setdefault("recovery", {}).update(
                    {
                        "events": list(evs),
                        "failure_kind": FailureKind.WORKER_LOST.value,
                        "fallback": "in-process" if i in pending else "pool",
                    }
                )
                if "worker_lost" in evs:
                    res.meta["worker_lost"] = True
        return [r for r in results if r is not None]

    def _pool_round(
        self,
        payloads: list[bytes],
        results: list[SearchResult | None],
        member_events: list[list],
        member_snaps: list[dict | None],
        events: dict[int, list[str]],
        pending: list[int],
        n_workers: int,
    ) -> list[int]:
        """One pool attempt over ``pending`` members; returns survivors.

        On a member timeout the pool's worker processes are terminated —
        the only way to stop a hung evaluation from outside — which also
        kills in-flight siblings; they surface as ``BrokenProcessPool``
        and are resubmitted in the next round (their checkpoints replay
        completed evaluations, so no work is repeated).
        """
        still: list[int] = []
        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(pending))
        ) as pool:
            futures = {i: pool.submit(_run_member, payloads[i]) for i in pending}
            for i, fut in futures.items():
                try:
                    results[i], member_events[i], member_snaps[i] = fut.result(
                        timeout=self.member_timeout
                    )
                except FuturesTimeoutError:
                    logger.warning(
                        "campaign member %d exceeded member_timeout=%ss; "
                        "terminating pool workers",
                        i, self.member_timeout,
                    )
                    events[i].append("member_timeout")
                    still.append(i)
                    for proc in list(getattr(pool, "_processes", {}).values()):
                        proc.terminate()
                except (BrokenProcessPool, OSError):
                    logger.warning(
                        "campaign member %d lost its pool worker; "
                        "will resubmit", i,
                    )
                    events[i].append("worker_lost")
                    still.append(i)
        return still
