"""Evaluation records, databases, and crash recovery.

GPTune's selling points cited by the paper include *crash recovery* and a
reusable evaluation database for *transfer learning*.  This module provides
both:

:class:`Evaluation`
    one (configuration, objective, cost, status) record,
:class:`EvaluationDatabase`
    an append-only store with atomic JSON checkpointing.  A crashed search
    can be resumed by constructing the optimizer with ``database=`` pointing
    at the checkpoint file — completed evaluations are replayed instead of
    re-run, and failed evaluations are remembered so the search does not
    re-suggest configurations that crash the application.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from ..durable import AppendLog, atomic_write, repair_torn_tail, split_lines

__all__ = [
    "Evaluation",
    "EvaluationDatabase",
    "EvaluationStatus",
]


class EvaluationStatus:
    """Status labels for evaluation records."""

    OK = "ok"
    FAILED = "failed"     # objective raised
    TIMEOUT = "timeout"   # exceeded the evaluation timeout (paper: 15 min)

    ALL = (OK, FAILED, TIMEOUT)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars to plain Python for JSON serialization."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class Evaluation:
    """One objective evaluation.

    Attributes
    ----------
    config:
        The full configuration dict that was evaluated.
    objective:
        Observed objective value (runtime); ``nan`` for failed/timeout runs.
    cost:
        Wall-clock cost of the evaluation in seconds.  Search-time
        accounting (paper Table III "Time" columns) sums these plus the
        modeling overhead.
    status:
        One of :class:`EvaluationStatus`.
    meta:
        Free-form extras (e.g. per-routine runtimes from the TDDFT app).
    """

    config: Mapping[str, Any]
    objective: float
    cost: float = 0.0
    status: str = EvaluationStatus.OK
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in EvaluationStatus.ALL:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == EvaluationStatus.OK and not np.isfinite(self.objective):
            raise ValueError("OK evaluations require a finite objective")

    @property
    def ok(self) -> bool:
        return self.status == EvaluationStatus.OK

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": _jsonable(dict(self.config)),
            "objective": _jsonable(self.objective),
            "cost": float(self.cost),
            "status": self.status,
            "meta": _jsonable(dict(self.meta)),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Evaluation":
        return cls(
            config=dict(d["config"]),
            objective=float(d["objective"]),
            cost=float(d.get("cost", 0.0)),
            status=d.get("status", EvaluationStatus.OK),
            meta=dict(d.get("meta", {})),
        )


class EvaluationDatabase:
    """Append-only evaluation store with incremental checkpoints.

    Parameters
    ----------
    path:
        Optional checkpoint file.  When given and the file exists, records
        are loaded on construction (crash recovery).  Two on-disk formats
        are supported and auto-detected by :meth:`load`:

        * ``"json"`` — one atomic snapshot (``{"task": ..., "records":
          [...]}``); every :meth:`append` rewrites the whole file (O(N)
          per append — the legacy format, kept for backward
          compatibility).
        * ``"jsonl"`` — append-only JSON Lines: a header line followed by
          one record per line; every :meth:`append` writes exactly one
          line (O(1) per append), which is what keeps long checkpointed
          searches from degrading to O(N^2) total I/O.  A crash mid-write
          can at worst leave a partial *final* line, which the loader
          skips.
    task:
        Label identifying the tuning task (used by transfer learning to
        select source databases).
    format:
        ``"json"``, ``"jsonl"``, or ``None`` to infer from the path
        suffix (``.jsonl`` -> JSONL, anything else -> legacy JSON).
        Controls the *incremental* checkpoint format; :meth:`save` can
        still write either format explicitly.
    """

    _JSONL_HEADER = "repro-evaluation-db"

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        task: str = "task",
        *,
        format: str | None = None,
    ):
        self.path = os.fspath(path) if path is not None else None
        if format is None:
            format = (
                "jsonl"
                if self.path is not None and self.path.endswith(".jsonl")
                else "json"
            )
        if format not in ("json", "jsonl"):
            raise ValueError("format must be 'json' or 'jsonl'")
        self.format = format
        self.task = task
        self._records: list[Evaluation] = []
        self._n_ok = 0
        if self.path and os.path.exists(self.path):
            self.load(self.path)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Evaluation]:
        return iter(self._records)

    def __getitem__(self, i: int) -> Evaluation:
        return self._records[i]

    @property
    def records(self) -> list[Evaluation]:
        return list(self._records)

    # ------------------------------------------------------------------
    def append(self, record: Evaluation) -> None:
        """Add a record and (when a path is set) checkpoint incrementally.

        JSONL checkpoints append one line; legacy JSON checkpoints rewrite
        the whole snapshot atomically.
        """
        self._records.append(record)
        if record.ok:
            self._n_ok += 1
        if self.path:
            if self.format == "jsonl":
                self._append_lines([record])
            else:
                self.save(self.path)

    def extend(self, records: Iterator[Evaluation] | list[Evaluation]) -> None:
        added = list(records)
        self._records.extend(added)
        self._n_ok += sum(1 for r in added if r.ok)
        if self.path:
            if self.format == "jsonl":
                self._append_lines(added)
            else:
                self.save(self.path)

    def _header_line(self) -> str:
        return json.dumps({"format": self._JSONL_HEADER, "task": self.task})

    def _append_lines(self, records: list[Evaluation]) -> None:
        """Append records to the JSONL checkpoint, creating it on demand."""
        assert self.path is not None
        with AppendLog(self.path, header=self._header_line()) as log:
            # A new file gets everything we hold (covers in-memory
            # records that predate the path).
            if log.created:
                records = self._records
            log.append([json.dumps(r.to_dict()) for r in records])

    # ------------------------------------------------------------------
    @property
    def n_ok(self) -> int:
        """Number of successful records, maintained incrementally.

        The BO loop consults this every iteration (stopping criterion and
        acquisition schedule); the cached counter keeps that O(1) instead
        of an O(N) scan per iteration.
        """
        return self._n_ok

    def ok_records(self) -> list[Evaluation]:
        """Successful evaluations only (the GP training set)."""
        return [r for r in self._records if r.ok]

    def failed_configs(self) -> list[Mapping[str, Any]]:
        """Configurations that failed or timed out (to be avoided)."""
        return [r.config for r in self._records if not r.ok]

    def best(self) -> Evaluation:
        """The successful record with the smallest objective."""
        ok = self.ok_records()
        if not ok:
            raise LookupError("no successful evaluations in database")
        return min(ok, key=lambda r: r.objective)

    def total_cost(self) -> float:
        """Total evaluation wall-clock across all records."""
        return float(sum(r.cost for r in self._records))

    def objectives(self) -> np.ndarray:
        """Objective values of successful records, in insertion order."""
        return np.array([r.objective for r in self._records if r.ok], dtype=float)

    def best_so_far(self) -> np.ndarray:
        """Running minimum over successful evaluations — the series behind
        the paper's Figure 6 progression plots."""
        obj = self.objectives()
        if obj.size == 0:
            return obj
        return np.minimum.accumulate(obj)

    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike, *, format: str | None = None) -> None:
        """Atomic full snapshot: temp file in the same directory + replace.

        Writes the legacy JSON snapshot by default (backward compatible);
        pass ``format="jsonl"`` for a full rewrite in the append-friendly
        format (useful to compact or convert a checkpoint).
        """
        path = os.fspath(path)
        format = format if format is not None else "json"
        if format not in ("json", "jsonl"):
            raise ValueError("format must be 'json' or 'jsonl'")
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        if format == "jsonl":
            lines = [self._header_line()] + [
                json.dumps(r.to_dict()) for r in self._records
            ]
            text = "".join(line + "\n" for line in lines)
        else:
            text = json.dumps(
                {"task": self.task, "records": [r.to_dict() for r in self._records]}
            )
        atomic_write(path, text)

    def load(self, path: str | os.PathLike) -> None:
        """Replace in-memory records with the checkpoint contents.

        Auto-detects the on-disk format: a JSON snapshot parses as one
        document; anything else is treated as JSON Lines, tolerating a
        partial final line (crash mid-append).
        """
        with open(os.fspath(path), "rb") as f:
            data = f.read()
        try:
            payload = json.loads(data)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and "records" in payload:
            # Legacy single-document snapshot.
            self.task = payload.get("task", self.task)
            self._records = [
                Evaluation.from_dict(d) for d in payload.get("records", [])
            ]
            self._n_ok = sum(1 for r in self._records if r.ok)
            if self.format == "jsonl" and self.path == os.fspath(path):
                # Convert in place so future incremental appends produce a
                # consistent line-oriented file.
                self.save(path, format="jsonl")
            return
        lines, complete = split_lines(data)
        if complete < len(data):
            # Torn final line from a crash mid-append: drop the fragment
            # on disk too, so the next append starts a fresh line.
            repair_torn_tail(path)
        records: list[Evaluation] = []
        for line in lines:
            d = json.loads(line)
            if isinstance(d, dict) and d.get("format") == self._JSONL_HEADER:
                self.task = d.get("task", self.task)
                continue
            records.append(Evaluation.from_dict(d))
        self._records = records
        self._n_ok = sum(1 for r in self._records if r.ok)
