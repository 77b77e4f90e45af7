"""Circuit breaker: quarantine chronically-failing regions of the space.

A poison region — configurations that fail *permanently* (bad kernel
geometry, guaranteed OOM) — is invisible to retry logic: every sample
drawn there burns a full failure penalty, and the acquisition function
only learns to avoid the exact points it has seen.  The breaker takes
the classic service-resilience pattern to the search space: the unit
hypercube is partitioned into ``resolution^d`` cells (via the space's
``encode`` map), permanently-classified failures are counted per cell,
and once a cell accumulates ``threshold`` of them it *trips* — the
engines stop sampling it entirely and the campaign degrades gracefully
instead of re-probing poison.

Only kinds in ``count_kinds`` (default: PERMANENT and NUMERIC — failures
deterministic in the configuration) advance the breaker; transient
failures and timeouts do not, so a flaky node cannot quarantine a
healthy region.  Tripped cells are reported in
``SearchResult.meta["quarantined"]``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Mapping

import numpy as np

from ..durable import atomic_write
from ..log import get_logger
from .taxonomy import FailureKind

__all__ = [
    "CircuitBreaker",
    "breaker_sidecar_path",
    "persist_breaker",
    "restore_breaker",
]

logger = get_logger("faults")


def breaker_sidecar_path(checkpoint_path: str | os.PathLike) -> str:
    """Breaker-state sidecar for an evaluation checkpoint file.

    Lives in the same checkpoint scope (``<checkpoint>.breaker.json``) so
    whatever moves, copies, or fences the checkpoint carries the breaker
    state with it.
    """
    return os.fspath(checkpoint_path) + ".breaker.json"


def persist_breaker(
    breaker: "CircuitBreaker", checkpoint_path: str | os.PathLike | None
) -> None:
    """Atomically snapshot ``breaker`` next to its checkpoint file."""
    if checkpoint_path is None:
        return
    path = breaker_sidecar_path(checkpoint_path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    atomic_write(path, json.dumps(breaker.state_dict()))


def restore_breaker(
    breaker: "CircuitBreaker", checkpoint_path: str | os.PathLike | None
) -> bool:
    """Load a persisted sidecar into ``breaker``.

    Returns ``True`` when non-empty state was restored — callers must
    then *skip* rebuilding the breaker from evaluation records, which
    would double-count every failure.  A missing, corrupt, or
    geometry-mismatched sidecar returns ``False`` (rebuild as before).
    """
    if checkpoint_path is None:
        return False
    path = breaker_sidecar_path(checkpoint_path)
    if not os.path.exists(path):
        return False
    try:
        with open(path) as f:
            state = json.load(f)
    except (OSError, ValueError):
        logger.warning("corrupt breaker sidecar %s; rebuilding from records", path)
        return False
    breaker.load_state(state)
    return breaker.total_counted > 0 or breaker.n_tripped > 0


class CircuitBreaker:
    """Per-region failure counter with a trip threshold.

    Parameters
    ----------
    space:
        The search (sub)space; its ``encode`` maps configurations into
        the unit hypercube that is partitioned into cells.
    threshold:
        Permanent-failure count at which a cell trips (the issue's K).
    resolution:
        Cells per axis; a cell is a ``1/resolution``-wide hyper-interval
        (the "neighborhood" granularity).
    count_kinds:
        Failure kinds that advance the counter.

    The breaker never consumes random state — ``allows`` is a pure
    lookup — so consulting it leaves a fault-free search's RNG streams
    untouched (part of the chaos-determinism guarantee).
    """

    def __init__(
        self,
        space,
        *,
        threshold: int = 3,
        resolution: int = 4,
        count_kinds: Iterable[FailureKind] = (
            FailureKind.PERMANENT,
            FailureKind.NUMERIC,
        ),
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.space = space
        self.threshold = int(threshold)
        self.resolution = int(resolution)
        self.count_kinds = frozenset(FailureKind(k) for k in count_kinds)
        self._counts: dict[tuple[int, ...], int] = {}
        self._tripped: set[tuple[int, ...]] = set()

    # ------------------------------------------------------------------
    def cell(self, config: Mapping[str, Any]) -> tuple[int, ...]:
        """The grid cell containing ``config`` (key of the neighborhood)."""
        u = np.asarray(self.space.encode(config), dtype=float)
        idx = np.floor(np.clip(u, 0.0, 1.0 - 1e-12) * self.resolution)
        return tuple(int(i) for i in idx)

    def record(
        self, config: Mapping[str, Any], kind: FailureKind | str | None
    ) -> bool:
        """Count one classified failure; returns True when this record
        trips the cell's breaker (first crossing of the threshold)."""
        if kind is None:
            return False
        kind = FailureKind(kind)
        if kind not in self.count_kinds:
            return False
        key = self.cell(config)
        self._counts[key] = self._counts.get(key, 0) + 1
        if self._counts[key] >= self.threshold and key not in self._tripped:
            self._tripped.add(key)
            logger.warning(
                "circuit breaker tripped: cell %s quarantined after %d "
                "%s failures", key, self._counts[key], kind.value,
            )
            return True
        return False

    def allows(self, config: Mapping[str, Any]) -> bool:
        """Whether ``config`` may be evaluated (its cell has not tripped)."""
        return not self._tripped or self.cell(config) not in self._tripped

    def is_quarantined(self, config: Mapping[str, Any]) -> bool:
        return not self.allows(config)

    # ------------------------------------------------------------------
    @property
    def tripped_cells(self) -> list[tuple[int, ...]]:
        return sorted(self._tripped)

    @property
    def n_tripped(self) -> int:
        return len(self._tripped)

    @property
    def total_counted(self) -> int:
        """Total failures counted so far (all cells)."""
        return int(sum(self._counts.values()))

    # -- persistence ----------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of the mutable breaker state.

        Persisted next to the evaluation checkpoint so a resumed campaign
        restores its quarantine — including partial per-cell counts that
        had not yet tripped — instead of re-paying failures to rediscover
        it.  Cells are keyed by comma-joined indices (JSON objects cannot
        key on tuples).
        """
        return {
            "threshold": self.threshold,
            "resolution": self.resolution,
            "counts": {
                ",".join(str(i) for i in cell): n
                for cell, n in sorted(self._counts.items())
            },
            "tripped": [list(c) for c in self.tripped_cells],
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot, replacing current state.

        Snapshots taken under a different grid geometry are ignored (the
        cell keys would be meaningless): the breaker then rebuilds from
        the evaluation records as before.
        """
        if (
            int(state.get("threshold", self.threshold)) != self.threshold
            or int(state.get("resolution", self.resolution)) != self.resolution
        ):
            logger.warning(
                "ignoring persisted breaker state with mismatched geometry "
                "(threshold/resolution %s/%s vs ours %d/%d)",
                state.get("threshold"), state.get("resolution"),
                self.threshold, self.resolution,
            )
            return
        self._counts = {
            tuple(int(i) for i in key.split(",")): int(n)
            for key, n in state.get("counts", {}).items()
        }
        self._tripped = {
            tuple(int(i) for i in cell) for cell in state.get("tripped", ())
        }

    def summary(self) -> dict[str, Any]:
        """JSONL-safe description for ``SearchResult.meta["quarantined"]``."""
        return {
            "threshold": self.threshold,
            "resolution": self.resolution,
            "cells": [list(c) for c in self.tripped_cells],
            "failures_counted": int(sum(self._counts.values())),
        }
