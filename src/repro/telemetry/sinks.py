"""Pluggable telemetry sinks.

:class:`MemorySink`
    In-memory event buffer — used by tests and, internally, to collect a
    campaign member's events so they can be forwarded from a pool worker
    to the parent process and merged deterministically.
:class:`JsonlSink`
    Append-only JSON Lines trace file: one campaign, one file.  The
    evaluation channel is crash-safe in the same sense as the evaluation
    checkpoints: every ``eval`` event is flushed on write (a crash can at
    worst tear the final line, which the loader skips), while span/event
    lines are buffered between evals to keep the per-span syscall cost
    off the hot path.  The sink is *resumable alongside checkpoints*:
    re-opening an existing trace skips evaluation events whose per-scope
    sequence number is already on disk, so a kill/resume cycle converges
    to the same evaluation stream as an uninterrupted run instead of
    duplicating replayed records (evals buffered-but-lost in a crash are
    re-emitted from the checkpoint database on resume).

Events are serialized with sorted keys and without NaN (non-finite
floats become ``null``), so a given event always produces the same
bytes — the substrate of the byte-identity guarantees.
"""

from __future__ import annotations

import io
import json
import math
import os
from typing import Any, Mapping

from ..durable import FSYNC_POLICIES, AppendLog, read_lines
from ..log import get_logger

__all__ = [
    "MemorySink",
    "JsonlSink",
    "encode_event",
    "trace_segments",
    "FSYNC_POLICIES",
]

logger = get_logger("telemetry")

TRACE_HEADER = "repro-trace"
TRACE_VERSION = 1


def _json_safe(value: Any) -> Any:
    """Make a value JSON-encodable deterministically.

    Non-finite floats (invalid JSON) become ``null``; numpy scalars and
    arrays are coerced to plain Python without importing numpy here.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if type(value).__module__ == "numpy":
        item = getattr(value, "item", None)
        if item is not None and getattr(value, "ndim", 0) == 0:
            return _json_safe(item())
        tolist = getattr(value, "tolist", None)
        if tolist is not None:
            return _json_safe(tolist())
    return value


def encode_event(event: Mapping[str, Any]) -> str:
    """Deterministic single-line JSON encoding of one event."""
    return json.dumps(
        _json_safe(dict(event)), sort_keys=True, separators=(",", ":")
    )


_HEADER_LINE = encode_event(
    {"kind": "header", "format": TRACE_HEADER, "version": TRACE_VERSION}
)


def trace_segments(path: str | os.PathLike) -> list[str]:
    """A trace's on-disk segments, oldest first: the rotated
    ``<path>.N`` (highest ``N`` first), then ``path`` if it exists."""
    path = os.fspath(path)
    rotated: list[str] = []
    while os.path.exists(f"{path}.{len(rotated) + 1}"):
        rotated.append(f"{path}.{len(rotated) + 1}")
    return rotated[::-1] + ([path] if os.path.exists(path) else [])


class MemorySink:
    """Collect events in a list (tests, worker-side member buffers)."""

    def __init__(self):
        self.events: list[dict[str, Any]] = []

    def emit(self, event: Mapping[str, Any]) -> None:
        self.events.append(dict(event))

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class JsonlSink:
    """Append-only JSONL trace file with resume dedup and size rotation.

    Parameters
    ----------
    path:
        Trace file (conventionally ``<dir>/campaign.trace.jsonl``).  When
        it already exists the sink *resumes* it: a header goes only into
        an empty file, and evaluation events already present (per-scope
        ``seq`` high-water mark) are skipped on re-emission, mirroring
        how resumed searches replay — rather than re-run — checkpointed
        evaluations.
    max_bytes:
        Optional rotation threshold.  When the current file exceeds it,
        the file is rotated to ``<path>.1`` (shifting older rotations to
        ``.2``, ``.3``, ...) and a fresh file (with header) is started.
        The dedup high-water marks persist across rotations.
    max_files:
        Rotated files kept before the oldest is dropped.
    fsync:
        Durability policy, one of :data:`repro.durable.FSYNC_POLICIES`.
        The default ``"close"`` keeps the historical behavior: every
        ``eval`` event is *flushed* on write (crash-safe up to OS
        buffering) but the file is fsynced only when the sink closes.
        ``"rotate"`` adds an fsync at each rotation boundary;
        ``"always"`` fsyncs every emitted line (the policy the job
        registry uses for its WAL).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        max_bytes: int | None = None,
        max_files: int = 8,
        fsync: str = "close",
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be > 0")
        self.path = os.fspath(path)
        self.max_bytes = max_bytes
        self.max_files = int(max_files)
        self.fsync = fsync
        self._eval_seen: dict[str, int] = {}
        # Span lines wait here for the next flushed line (or one buffer's
        # worth); each flush is one append.
        self._pending: list[str] = []
        self._pending_bytes = 0
        self._scan_existing()
        self._file = AppendLog(self.path, header=_HEADER_LINE, fsync=fsync)

    # ------------------------------------------------------------------
    def _scan_existing(self) -> None:
        """Build per-scope eval high-water marks from existing segments."""
        found = False
        for seg in trace_segments(self.path):
            for line in read_lines(seg)[0]:
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                found = True
                if event.get("kind") == "eval":
                    scope = event.get("scope", "")
                    seq = int(event.get("seq", -1))
                    if seq > self._eval_seen.get(scope, -1):
                        self._eval_seen[scope] = seq
        if found:
            logger.info(
                "resuming trace %s (%d scopes already recorded)",
                self.path, len(self._eval_seen),
            )

    # ------------------------------------------------------------------
    def _write_line(self, line: str, *, flush: bool) -> None:
        self._pending.append(line)
        self._pending_bytes += len(line) + 1
        if (
            flush
            or self.fsync == "always"
            or self._pending_bytes >= io.DEFAULT_BUFFER_SIZE
        ):
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self._file.append(self._pending)
            self._pending = []
            self._pending_bytes = 0

    def _rotate(self) -> None:
        self._flush()
        self._file.close(rotating=True)
        oldest = f"{self.path}.{self.max_files}"
        if os.path.exists(oldest):
            os.unlink(oldest)
        for i in range(self.max_files - 1, 0, -1):
            src = f"{self.path}.{i}"
            if os.path.exists(src):
                os.replace(src, f"{self.path}.{i + 1}")
        os.replace(self.path, f"{self.path}.1")
        logger.info("rotated trace %s", self.path)
        self._file = AppendLog(self.path, header=_HEADER_LINE, fsync=self.fsync)

    def emit(self, event: Mapping[str, Any]) -> None:
        is_eval = event.get("kind") == "eval"
        if is_eval:
            scope = event.get("scope", "")
            seq = int(event.get("seq", -1))
            if seq <= self._eval_seen.get(scope, -1):
                return  # already persisted by a previous (killed) run
            self._eval_seen[scope] = seq
        if (
            self.max_bytes is not None
            and self._file is not None
            and self._file.size + self._pending_bytes > self.max_bytes
        ):
            self._rotate()
        # Flush (a syscall) on evaluation events — the resumable channel,
        # amortized against a real objective evaluation — and on the rare
        # lifecycle `event` lines (search_start, job markers) so live
        # tailers see a search open before its evaluations arrive.  A
        # crash can still lose buffered span lines, but evals lost with
        # them are re-emitted from the checkpoint on resume.
        flush = is_eval or event.get("kind") == "event"
        self._write_line(encode_event(event), flush=flush)

    def close(self) -> None:
        """Flush, fsync, and close the sink.  Idempotent: closing an
        already-closed sink — or one whose handle a failed rotation left
        closed — is a no-op rather than a ``ValueError`` on a closed
        file."""
        if self._file is None:
            return
        if not self._file.closed:
            self._flush()
            self._file.close()
        self._file = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
