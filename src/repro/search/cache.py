"""Objective wrappers used by the campaign executor.

:class:`MemoizingObjective`
    Caches objective results keyed on the *canonicalized* configuration
    dict, so repeated configurations — common after a checkpoint resume
    and in grid/random engines over small discrete spaces — are not
    re-evaluated.  The cache can be pre-seeded from an
    :class:`~repro.bo.history.EvaluationDatabase` so a resumed search
    never pays twice for a configuration it already measured.
:class:`RetryingObjective`
    Retries objectives that raise, with exponential backoff, for
    transient failures (flaky filesystems, node hiccups — the situations
    GPTune's crash recovery is designed around).  Exceptions classified
    PERMANENT / NUMERIC / TIMEOUT by the failure-taxonomy classifier
    (:func:`repro.faults.classify_exception`) are re-raised *immediately*
    — retrying a configuration that can never succeed would burn all
    ``max_retries`` with backoff sleeps for nothing.  Exhausted-retry and
    non-retryable exceptions surface to the engines, which record the
    evaluation as FAILED/TIMEOUT with its classified kind.

Both wrappers are plain picklable classes (no closures) so specs using
them can cross a ``ProcessPoolExecutor`` boundary.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Mapping

import numpy as np

from ..bo.optimizer import Objective
from ..faults.taxonomy import (
    RETRYABLE_KINDS,
    FailureKind,
    PermanentFault,
    classify_exception,
    failure_kind_of,
)
from ..log import get_logger

__all__ = ["canonical_key", "MemoizingObjective", "RetryingObjective"]

logger = get_logger("search")


def _coerce_float(value: Any) -> float:
    """Canonical Python float for any float-ish config value.

    Two equal-looking values must produce one key:

    * ``-0.0`` and ``0.0`` compare equal but serialize differently under
      ``json.dumps`` — normalize the signed zero away.
    * Narrow numpy floats widen with representation garbage
      (``float(np.float32(0.1))`` is ``0.10000000149011612``), so a
      float32-producing sampler and a Python-float caller would miss each
      other's cache entries.  The shortest decimal that round-trips the
      narrow value (``np.format_float_positional(..., unique=True)``)
      recovers the intended ``0.1``.
    """
    if isinstance(value, np.floating) and value.dtype.itemsize < 8:
        out = float(np.format_float_positional(value, unique=True))
    else:
        out = float(value)
    return 0.0 if out == 0.0 else out


def _coerce(value: Any) -> Any:
    """Make a config value JSON-stable (numpy scalars -> Python)."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return _coerce_float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_coerce(v) for v in value]
    return value


def canonical_key(config: Mapping[str, Any]) -> str:
    """Canonical string key for a configuration dict.

    Keys are sorted and numpy scalars coerced so that logically equal
    configurations (regardless of insertion order or numeric wrapper
    type) map to the same cache entry.
    """
    return json.dumps(
        {k: _coerce(config[k]) for k in sorted(config)}, sort_keys=True
    )


class MemoizingObjective:
    """Wrap an objective with a canonical-config memoization cache.

    Parameters
    ----------
    objective:
        The wrapped callable (``config -> value`` or ``config ->
        (value, meta)``).
    store / store_scope / provenance:
        Optional cross-job persistence: a
        :class:`~repro.search.store.EvaluationStore` (any object with its
        ``lookup``/``record``/``refresh``/``claim`` protocol), the space
        fingerprint scoping this search's entries, and the provenance
        dict gating which stored records may be served.  A local miss
        the store cannot serve takes the store's cross-process
        :meth:`~repro.search.store.EvaluationStore.claim` on the key,
        re-polls the store under it for lines a concurrent job appended
        since the last read, and measures only if the key is still
        absent, writing the measurement back before releasing the claim:
        jobs racing on one key measure it once.  Store hits count in
        ``cross_hits`` — not ``hits`` — and are tagged
        ``meta["cache_scope"] = "cross_job"`` so the ledger can attribute
        them separately from same-job replays.

    Cache hits return the stored result with ``meta["cache_hit"] = True``
    added (the original stored meta is not mutated), so accounting code
    can distinguish replayed results from fresh measurements.
    """

    def __init__(
        self,
        objective: Objective,
        *,
        store: Any = None,
        store_scope: str | None = None,
        provenance: Mapping[str, Any] | None = None,
    ):
        self.objective = objective
        self.store = store
        self.store_scope = store_scope
        self.provenance = dict(provenance or {})
        self._cache: dict[str, tuple[float, dict[str, Any]]] = {}
        self._permanent: dict[str, str] = {}
        self.hits = 0
        self.misses = 0
        self.cross_hits = 0
        self.permanent_hits = 0

    def seed_from_database(self, database) -> int:
        """Pre-populate from the OK records of an evaluation database.

        Returns the number of entries added.  Transient/timeout failures
        are not cached — a resumed search should be allowed to retry them
        — but records classified PERMANENT or NUMERIC (deterministic in
        the configuration; see :class:`repro.faults.FailureKind`) are
        remembered as poison keys: re-querying one raises
        :class:`~repro.faults.PermanentFault` instead of paying for the
        doomed evaluation again.
        """
        added = 0
        for rec in database:
            key = canonical_key(rec.config)
            if rec.ok:
                if rec.meta.get("warm_inexact"):
                    # Tolerance-matched warm-start projections: the
                    # observation came from a *nearby* configuration, so
                    # serving it for this exact key would silently return
                    # a slightly wrong value.
                    continue
                if key not in self._cache:
                    self._cache[key] = (float(rec.objective), dict(rec.meta))
                    added += 1
            elif failure_kind_of(rec) in (
                FailureKind.PERMANENT,
                FailureKind.NUMERIC,
            ):
                self._permanent.setdefault(
                    key, str(rec.meta.get("error", "permanent failure"))
                )
        return added

    def __len__(self) -> int:
        return len(self._cache)

    def __call__(self, config: Mapping[str, Any]) -> tuple[float, dict[str, Any]]:
        key = canonical_key(config)
        if key in self._cache:
            self.hits += 1
            value, meta = self._cache[key]
            return value, {**meta, "cache_hit": True}
        if key in self._permanent:
            self.permanent_hits += 1
            raise PermanentFault(
                f"memoized permanent failure: {self._permanent[key]}"
            )
        if self.store is None or self.store_scope is None:
            return self._measure(config, key)
        entry = self.store.lookup(
            self.store_scope, key, provenance=self.provenance
        )
        if entry is None:
            # A concurrent job may be measuring this configuration, or
            # may have measured it since our last read: wait out its
            # claim, then poll the tail before paying for it.
            with self.store.claim(self.store_scope, key):
                self.store.refresh()
                entry = self.store.lookup(
                    self.store_scope, key, provenance=self.provenance
                )
                if entry is None:
                    return self._measure(config, key)
        self.cross_hits += 1
        value, meta = float(entry.value), dict(entry.meta)
        self._cache[key] = (value, meta)
        return value, {**meta, "cache_hit": True, "cache_scope": "cross_job"}

    def _measure(
        self, config: Mapping[str, Any], key: str
    ) -> tuple[float, dict[str, Any]]:
        out = self.objective(config)
        if isinstance(out, tuple):
            value, meta = float(out[0]), dict(out[1])
        else:
            value, meta = float(out), {}
        self.misses += 1
        self._cache[key] = (value, meta)
        if self.store is not None and self.store_scope is not None:
            self.store.record(
                self.store_scope, key, value, meta, provenance=self.provenance
            )
        return value, dict(meta)


class RetryingObjective:
    """Retry a raising objective with exponential backoff.

    Parameters
    ----------
    objective:
        The wrapped callable.
    max_retries:
        Additional attempts after the first failure (0 = no retries).
    backoff:
        Base sleep in seconds; attempt ``i`` sleeps ``backoff * 2**i``.
    retry_on:
        Exception classes *eligible* for retry.  Anything else (and the
        final exhausted attempt) propagates to the engine, which records
        the evaluation as FAILED.
    classifier:
        ``exception -> FailureKind`` hook (default
        :func:`repro.faults.classify_exception`).  Exceptions whose kind
        is not retryable (PERMANENT, NUMERIC, TIMEOUT) are re-raised
        immediately — no attempts or backoff sleeps are wasted on a
        configuration that can never succeed.  ``None`` disables
        classification (legacy behavior: retry everything in
        ``retry_on``).
    """

    def __init__(
        self,
        objective: Objective,
        *,
        max_retries: int = 2,
        backoff: float = 0.05,
        retry_on: tuple[type[BaseException], ...] = (Exception,),
        classifier: Callable[[BaseException], FailureKind] | None = classify_exception,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.objective = objective
        self.max_retries = int(max_retries)
        self.backoff = float(backoff)
        self.retry_on = retry_on
        self.classifier = classifier
        self.retries = 0
        self.short_circuits = 0

    def __call__(self, config: Mapping[str, Any]) -> Any:
        for attempt in range(self.max_retries + 1):
            try:
                return self.objective(config)
            except self.retry_on as exc:
                if self.classifier is not None:
                    kind = self.classifier(exc)
                    if kind not in RETRYABLE_KINDS:
                        self.short_circuits += 1
                        logger.debug(
                            "not retrying %s-classified failure: %r",
                            kind.value, exc,
                        )
                        raise
                if attempt == self.max_retries:
                    logger.debug(
                        "retries exhausted after %d attempts: %r",
                        attempt + 1, exc,
                    )
                    raise
                self.retries += 1
                logger.debug(
                    "retrying after failure (attempt %d/%d): %r",
                    attempt + 1, self.max_retries + 1, exc,
                )
                if self.backoff > 0:
                    time.sleep(self.backoff * (2**attempt))
        raise AssertionError("unreachable")  # pragma: no cover
