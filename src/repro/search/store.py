"""Persistent cross-job evaluation store.

Jobs on the same search space keep paying for configurations that a
previous (or concurrently running) job already measured.  The
:class:`EvaluationStore` is the service-wide remedy: an append-only
JSONL file of finished evaluations keyed by ``(space fingerprint,
canonical_key(config))``, shared by every job the supervisor runs.  Each
job's :class:`~repro.search.cache.MemoizingObjective` is pre-seeded from
the store and writes fresh measurements back through it, so a second job
on the same space serves its evaluations from disk instead of re-running
the objective.

Design constraints, in order:

* **Determinism first.**  A store hit must reproduce exactly the record
  a fresh evaluation would have produced.  That is only true for
  deterministic objectives, so every record carries *provenance* —
  ``{"noise": ..., "seed": ...}`` — and :meth:`EvaluationStore.lookup`
  serves a record only when the stored and requested provenance are
  compatible: both noise-free, or an exact ``(noise, seed)`` match.
  Callers with noisy objectives simply never share across seeds.
* **Concurrent writers.**  Several worker processes append to one file.
  Every record is written as a single ``os.write`` on an ``O_APPEND``
  descriptor, so lines from concurrent writers interleave whole —
  never torn mid-line — and readers tolerate (and re-poll past) an
  incomplete tail.  Torn tails from a hard crash are repaired when a
  writer opens (:class:`repro.durable.AppendLog`), under a lock that
  keeps one writer's repair from cutting another's fsynced record.
* **O(1) appends, incremental reads.**  Appending never rewrites the
  file; :meth:`refresh` reads only bytes past the last consumed offset,
  so polling the store on a cache miss is cheap even when it is large.
* **Single-flight misses.**  :meth:`EvaluationStore.claim` serializes
  processes that miss the same key at the same moment, so a
  configuration is measured once service-wide, not once per racing job.

The store object is picklable (handles are dropped and lazily reopened)
so it can ride a job spec into a forked worker.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from ..durable import AppendLog, read_lines
from ..log import get_logger
from ..space import SearchSpace
from ..space.serialize import space_to_dict
from .cache import canonical_key

__all__ = ["EvaluationStore", "StoredEvaluation", "space_fingerprint"]

logger = get_logger("search")

_HEADER = "repro-evaluation-store"
_VERSION = 1
_HEADER_LINE = json.dumps(
    {"format": _HEADER, "version": _VERSION}, sort_keys=True, separators=(",", ":")
)
#: The byte of ``<path>.lock`` that a writer's open holds exclusively
#: and each append holds shared; claim offsets are crc32 values, all
#: below it.
_OPEN_LOCK = 1 << 32


@contextmanager
def _byte_lock(fd: int, mode: int, offset: int) -> Iterator[None]:
    fcntl.lockf(fd, mode, 1, offset)
    try:
        yield
    finally:
        fcntl.lockf(fd, fcntl.LOCK_UN, 1, offset)


def _jsonable(value: Any) -> Any:
    """Coerce a meta/provenance value into something JSON can round-trip."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def space_fingerprint(space: SearchSpace, extra: Mapping[str, Any] | None = None) -> str:
    """Stable fingerprint of a search space (plus objective context).

    Two searches may share one store entry only if their spaces serialize
    identically *and* their pinned assignments and ``extra`` context
    match.  ``extra`` is where callers put everything the space dict
    cannot see — which application/case the objective evaluates, its
    noise scale — because a store key must identify the *function being
    measured*, not just the shape of its domain.

    ``PinnedSubspace`` pins are folded in explicitly:
    :func:`~repro.space.serialize.space_to_dict` serializes only the kept
    parameters, but the objective evaluates the *completed* config, so
    two subspaces with identical kept parameters and different pins
    measure different functions.

    Opaque (callable) constraints are skipped — they only gate which
    configurations get proposed, never what a configuration evaluates to,
    so they cannot create value collisions.
    """
    payload: dict[str, Any] = {
        "space": space_to_dict(space, skip_opaque_constraints=True),
    }
    pinned = getattr(space, "pinned", None)
    if pinned:
        payload["pinned"] = {
            str(k): _jsonable(pinned[k]) for k in sorted(pinned)
        }
    if extra:
        payload["extra"] = {str(k): _jsonable(extra[k]) for k in sorted(extra)}
    import hashlib

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class StoredEvaluation:
    """One finished measurement in the store."""

    space: str  #: space fingerprint (see :func:`space_fingerprint`)
    key: str  #: ``canonical_key(config)`` of the evaluated configuration
    value: float
    meta: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        return json.dumps(
            {
                "space": self.space,
                "key": self.key,
                "value": self.value,
                "meta": _jsonable(self.meta),
                "provenance": _jsonable(self.provenance),
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StoredEvaluation":
        return cls(
            space=str(data["space"]),
            key=str(data["key"]),
            value=float(data["value"]),
            meta=dict(data.get("meta") or {}),
            provenance=dict(data.get("provenance") or {}),
        )


def _provenance_compatible(
    stored: Mapping[str, Any], requested: Mapping[str, Any] | None
) -> bool:
    """May ``stored`` be served to a caller with ``requested`` provenance?

    Noise-free measurements are universal: any noise-free caller may
    reuse them regardless of seed (the objective is a pure function of
    the configuration).  Noisy measurements are draws from a
    seed-specific stream, so they are served only on an exact
    ``(noise, seed)`` match — and never to a noise-free caller.
    """
    s_noise = float(stored.get("noise", 0.0) or 0.0)
    r_noise = float((requested or {}).get("noise", 0.0) or 0.0)
    if s_noise == 0.0 and r_noise == 0.0:
        return True
    if s_noise != r_noise:
        return False
    return stored.get("seed") == (requested or {}).get("seed")


class EvaluationStore:
    """Append-only JSONL store of evaluations shared across jobs.

    Parameters
    ----------
    path:
        The JSONL file.  Created (with a header line) on first append;
        a missing file is an empty store.
    fsync:
        Fsync after every append (default).  Matches the checkpoint
        databases' durability: a measurement that was paid for survives
        a crash.

    Concurrency contract: any number of processes may hold the same
    store open and interleave appends; each line is one atomic
    ``os.write`` on an ``O_APPEND`` descriptor.  Readers only consume
    newline-terminated lines and re-poll the tail on the next
    :meth:`refresh`, so a half-visible line is never mis-parsed.
    Writers that must not duplicate a measurement take a :meth:`claim`
    on its key first.
    """

    def __init__(self, path: str | os.PathLike, *, fsync: bool = True):
        self.path = os.fspath(path)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self._index: dict[tuple[str, str], StoredEvaluation] = {}
        self._offset = 0
        self._log: AppendLog | None = None
        self._claim_fd: int | None = None
        self.refresh()

    # -- reading -------------------------------------------------------
    def refresh(self) -> int:
        """Consume lines appended since the last read; return how many.

        Incomplete trailing lines (a concurrent writer mid-append, or a
        torn tail after a crash) are left unconsumed — the next refresh
        retries from the same offset.
        """
        with self._lock:
            return self._refresh_locked()

    def _refresh_locked(self) -> int:
        lines, end = read_lines(self.path, self._offset)
        added = 0
        for raw in lines:
            try:
                record = json.loads(raw)
            except ValueError:
                logger.warning(
                    "evaluation store %s: skipping malformed line", self.path
                )
                continue
            if not isinstance(record, dict):
                continue
            if record.get("format") == _HEADER:
                continue
            try:
                entry = StoredEvaluation.from_dict(record)
            except (KeyError, TypeError, ValueError):
                logger.warning(
                    "evaluation store %s: skipping malformed record", self.path
                )
                continue
            # First write wins: for deterministic provenance concurrent
            # writers store identical values, so the choice is cosmetic;
            # keeping the earliest makes re-reads idempotent.
            if self._index.setdefault((entry.space, entry.key), entry) is entry:
                added += 1
        self._offset = end
        return added

    def lookup(
        self,
        space: str,
        key: str,
        *,
        provenance: Mapping[str, Any] | None = None,
    ) -> StoredEvaluation | None:
        """The stored evaluation for ``(space, key)``, if servable.

        Returns ``None`` when the pair is unknown *or* when the stored
        provenance is incompatible with ``provenance`` (see module
        docstring) — an incompatible record must look like a miss, never
        like a wrong answer.
        """
        with self._lock:
            entry = self._index.get((space, key))
        if entry is None:
            return None
        if not _provenance_compatible(entry.provenance, provenance):
            return None
        return entry

    def lookup_config(
        self,
        space: str,
        config: Mapping[str, Any],
        *,
        provenance: Mapping[str, Any] | None = None,
    ) -> StoredEvaluation | None:
        """Convenience: :meth:`lookup` keyed by a raw configuration."""
        return self.lookup(space, canonical_key(config), provenance=provenance)

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def __iter__(self) -> Iterator[StoredEvaluation]:
        with self._lock:
            return iter(list(self._index.values()))

    def entries(self, space: str) -> list[StoredEvaluation]:
        """All stored evaluations for one space fingerprint."""
        with self._lock:
            return [e for (s, _), e in self._index.items() if s == space]

    # -- writing -------------------------------------------------------
    @contextmanager
    def claim(self, space: str, key: str) -> Iterator[None]:
        """Hold an exclusive cross-process claim on ``(space, key)``.

        A caller about to measure a key the store lacks takes the claim,
        re-polls the store under it, and measures only if the key is
        still absent: of several processes that miss one key at the same
        moment, the first measures and records it while the others block
        here, then find it on their re-poll.  The claim is a one-byte
        ``fcntl.lockf`` lock in the sidecar file ``<path>.lock`` at an
        offset hashed from the pair, so the OS drops it when its holder
        dies and a killed worker never wedges a key.  Keys that hash to
        one offset merely serialize.  Record locks belong to a process:
        threads of one process do not exclude each other, and closing
        another store on the same path in that process drops its claims.
        """
        with self._lock:
            fd = self._lock_fd_locked()
        with _byte_lock(fd, fcntl.LOCK_EX, zlib.crc32(f"{space}\n{key}".encode())):
            yield

    def _lock_fd_locked(self) -> int:
        if self._claim_fd is None:
            self._claim_fd = os.open(
                self.path + ".lock", os.O_RDWR | os.O_CREAT, 0o644
            )
        return self._claim_fd

    def record(
        self,
        space: str,
        key: str,
        value: float,
        meta: Mapping[str, Any] | None = None,
        *,
        provenance: Mapping[str, Any] | None = None,
    ) -> StoredEvaluation | None:
        """Append one finished measurement (idempotent per ``(space, key)``).

        Non-finite values are refused — engines classify them as failed
        evaluations, and serving one from the store would turn a
        transient numeric blow-up into a permanent wrong answer.
        """
        value = float(value)
        if not np.isfinite(value):
            return None
        entry = StoredEvaluation(
            space=space,
            key=key,
            value=value,
            meta=dict(meta or {}),
            provenance=dict(provenance or {}),
        )
        with self._lock:
            if (space, key) in self._index:
                return self._index[(space, key)]
            self._ensure_writer_locked()
            with _byte_lock(self._claim_fd, fcntl.LOCK_SH, _OPEN_LOCK):
                self._log.append([entry.to_line()])
            self._index[(space, key)] = entry
        return entry

    def _ensure_writer_locked(self) -> None:
        if self._log is not None:
            return
        # A single-write O_APPEND line only tears on a hard crash (power
        # loss, full disk).  The repair that drops it reads the tail and
        # then truncates, so it holds the open lock exclusively while
        # every append holds it shared: neither another writer's repair
        # nor its write in flight (which a reader can see half done) can
        # pass for a torn tail, and two openers of an empty file do not
        # both write a header.
        with _byte_lock(self._lock_fd_locked(), fcntl.LOCK_EX, _OPEN_LOCK):
            self._log = AppendLog(
                self.path, header=_HEADER_LINE, fsync="always" if self.fsync else None
            )

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()
            if self._claim_fd is not None:
                os.close(self._claim_fd)
            self._log = self._claim_fd = None

    # -- pickling (store objects ride job specs into workers) ----------
    def __getstate__(self) -> dict[str, Any]:
        return {"path": self.path, "fsync": self.fsync}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(state["path"], fsync=state.get("fsync", True))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvaluationStore({self.path!r}, entries={len(self)})"
