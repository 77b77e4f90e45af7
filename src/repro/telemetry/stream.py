"""Live-tailing primitives for the observability plane.

Three pieces, composed by :mod:`repro.service.events` into the service's
SSE stream (see ``docs/observability.md``):

:class:`JsonlTailer`
    Incremental reader over a rotating JSONL family (a
    :class:`~repro.telemetry.sinks.JsonlSink` trace or the registry
    WAL).  Polling yields each *complete* line exactly once, in write
    order, following the file across size rotations by inode.  Torn
    tails are first-class: a final line without a newline in the live
    file is held until the writer completes it; in a rotated-away
    segment it can never be completed, so it is dropped and counted.

:class:`EventBus`
    Thread-safe fan-out with monotonically increasing cursors.  A
    subscriber attaching ``after=N`` replays every retained event with
    cursor ``> N`` before going live — the mechanism behind the SSE
    ``Last-Event-ID`` resume guarantee (no gaps, no duplicates).

:class:`SpanLatencySink`
    A telemetry sink that folds span durations into
    ``span_seconds{span=...}`` histograms on a
    :class:`~repro.telemetry.metrics.MetricsRegistry` — how gp_fit /
    acquisition latencies reach ``GET /metrics`` without touching the
    engines.

Everything here is an observer: tailers open files read-only and never
write, the bus holds no locks while publishers run application code, and
none of it exists at all until something subscribes.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Any, Callable, Iterator, Mapping

from ..log import get_logger

__all__ = ["JsonlTailer", "EventBus", "Subscription", "SpanLatencySink"]

logger = get_logger("telemetry")

#: Span names whose durations feed ``span_seconds`` histograms by default
#: (the modeling hot path plus the objective itself).
DEFAULT_LATENCY_SPANS = ("gp_fit", "acquisition", "evaluation")


class _Segment:
    """One open file of a rotating family, ordered oldest-first."""

    __slots__ = ("fd", "ino", "is_current")

    def __init__(self, fd: int, ino: int, is_current: bool):
        self.fd = fd
        self.ino = ino
        self.is_current = is_current


class JsonlTailer:
    """Follow a rotating JSONL file family, yielding complete lines once.

    Parameters
    ----------
    path:
        The *current* file of the family; rotated segments live at
        ``<path>.1`` (newest rotation) .. ``<path>.N`` (oldest), the
        convention of both :class:`~repro.telemetry.sinks.JsonlSink`
        and ``logrotate``.
    skip_header:
        Drop lines whose ``kind``/``event`` field is ``"header"``
        (the self-describing first line of traces and the WAL).

    The first :meth:`poll` reads every existing segment from the
    beginning (oldest rotation first), so a tailer attached to a
    finished trace replays it in full.  Subsequent polls yield only new
    complete lines.  Guarantees:

    * **No tearing** — only ``\\n``-terminated lines are parsed; a
      partial tail of the live file is re-checked on the next poll.
    * **No duplicates** — progress is tracked as ``(inode, offset)``;
      a rotation (``os.replace`` of the current file) is detected by
      inode change and the old segment is finished from the recorded
      offset before newer segments are read.
    * **No silent loss** — a torn final line of a *rotated* segment
      (complete segments end with a newline; a torn one means the
      writer died mid-append before rotating its successor) increments
      :attr:`torn_lines`; a rotation burst that dropped the tailer's
      segment from retention — or a wholesale file replacement, e.g.
      registry WAL compaction — increments :attr:`lost_segments` and
      resumes from the oldest retained segment (every retained segment
      is strictly newer than the lost one, so nothing is duplicated;
      consumers can additionally dedup by their own sequence numbers).
    """

    #: Bytes of context kept before the saved offset to re-identify the
    #: tracked segment across polls (inode numbers get recycled).
    _SIG_LEN = 64

    def __init__(self, path: str | os.PathLike, *, skip_header: bool = True):
        self.path = os.fspath(path)
        self.skip_header = skip_header
        self._ino: int | None = None
        self._pos = 0
        self._sig = b""
        self._primed = False
        self.torn_lines = 0
        self.lost_segments = 0

    # ------------------------------------------------------------------
    def _collect_segments(self) -> list[_Segment]:
        """Open every on-disk segment, oldest first, dedup'd by inode.

        Each name is opened as soon as the scan reaches it, and the scan
        runs from ``.1`` upward, against the writer's rename chain
        (``.i`` -> ``.i+1``, oldest first).  A segment the chain moves
        mid-scan is then met twice (the second fd is dropped by inode),
        never skipped; a scan in the chain's own direction can open
        ``.i`` just before the chain refills it and ``.i-1`` just after,
        missing the segment in between.  Holding fds (not paths) makes
        the reads immune to later renames.  The scan tolerates a few
        consecutive missing names: a rename chain in flight leaves a
        transient hole in the sequence, and stopping at it would hide
        every older segment.
        """
        segments: list[_Segment] = []
        seen: set[int] = set()

        def add(name: str, is_current: bool) -> bool:
            try:
                fd = os.open(name, os.O_RDONLY)
            except FileNotFoundError:
                return False
            ino = os.fstat(fd).st_ino
            if ino in seen:
                os.close(fd)
            else:
                seen.add(ino)
                segments.append(_Segment(fd, ino, is_current))
            return True

        i, misses = 1, 0
        while misses < 4:
            misses = 0 if add(f"{self.path}.{i}", False) else misses + 1
            i += 1
        segments.reverse()  # .N (oldest) .. .1 (newest rotation)
        add(self.path, True)
        return segments

    def _open_family(self) -> list[_Segment]:
        """A rotation-consistent snapshot of the family.

        A rotation that completes *during* the name scan can hide the
        just-rotated current file (``path`` -> ``.1`` lands after the
        ``.1`` name was already checked), which would be indistinguishable
        from retention loss.  The current file's inode changing across
        the scan detects exactly that; retry until it is stable.  The
        loop is bounded: if the writer out-rotates every attempt, accept
        the last scan — the byte-signature check still prevents a
        misread, at worst flagging a spurious ``lost_segments``.
        """
        for _ in range(8):
            try:
                before = os.stat(self.path).st_ino
            except FileNotFoundError:
                before = None
            segments = self._collect_segments()
            after = next((s.ino for s in segments if s.is_current), None)
            if after == before:
                return segments
            for seg in segments:
                os.close(seg.fd)
        return self._collect_segments()

    def _same_segment(self, seg: _Segment) -> bool:
        """Is this really the file we read to ``_pos``?  Inode numbers
        get recycled, so verify the bytes just before our offset still
        match what we read there last poll."""
        if not self._sig:
            return True
        if os.fstat(seg.fd).st_size < self._pos:
            return False
        data = os.pread(seg.fd, len(self._sig), self._pos - len(self._sig))
        return data == self._sig

    def _read_segment(
        self, seg: _Segment, pos: int, out: list[dict[str, Any]]
    ) -> int:
        """Read complete lines from ``pos``; returns the new offset.

        For non-current (finished) segments the trailing partial line —
        if any — is a torn tail that can never be completed: drop and
        count it.  For the current segment it is left for the next poll.
        """
        size = os.fstat(seg.fd).st_size
        if size <= pos:
            return pos
        data = os.pread(seg.fd, size - pos, pos)
        end = data.rfind(b"\n") + 1
        if end == 0:
            if not seg.is_current and data:
                self.torn_lines += 1
                return pos + len(data)
            return pos
        for raw in data[:end].split(b"\n"):
            if not raw.strip():
                continue
            try:
                event = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError):
                self.torn_lines += 1
                continue
            if self.skip_header and (
                event.get("kind") == "header" or event.get("event") == "header"
            ):
                continue
            out.append(event)
        if not seg.is_current and end < len(data):
            self.torn_lines += 1
            return pos + len(data)
        return pos + end

    def poll(self) -> list[dict[str, Any]]:
        """New complete events since the last poll (possibly empty)."""
        events: list[dict[str, Any]] = []
        segments = self._open_family()
        try:
            if not segments:
                return events
            if not self._primed:
                start = 0
            else:
                start = None
                for i, seg in enumerate(segments):
                    if seg.ino == self._ino:
                        start = i
                        break
                if start is not None and not self._same_segment(
                    segments[start]
                ):
                    # Same inode number, different content: the inode was
                    # recycled for a new file (retention unlinked our
                    # segment, then the writer created one), or the file
                    # was truncated — our offset is meaningless.
                    start = None
                if start is None:
                    # Our segment left retention (rotation burst) or the
                    # file was atomically replaced (WAL compaction).  The
                    # tracked segment was the newest we had read, so every
                    # retained segment is strictly newer: reading them all
                    # from the top duplicates nothing, and the flag tells
                    # consumers the family may have a hole before them.
                    self.lost_segments += 1
                    self._pos = 0
                    start = 0
            for i in range(start, len(segments)):
                seg = segments[i]
                pos = self._pos if (i == start and self._primed) else 0
                self._pos = self._read_segment(seg, pos, events)
                self._ino = seg.ino
            sig_len = min(self._SIG_LEN, self._pos)
            self._sig = os.pread(seg.fd, sig_len, self._pos - sig_len)
            self._primed = True
            return events
        finally:
            for seg in segments:
                os.close(seg.fd)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.poll())


class Subscription:
    """One consumer's view of an :class:`EventBus`.

    Iteration and :meth:`get` return ``(cursor, event)`` pairs in
    strictly increasing cursor order.  Closing (either side) wakes any
    blocked :meth:`get`.
    """

    def __init__(self, bus: "EventBus", predicate=None):
        self._bus = bus
        self._predicate = predicate
        self._queue: deque[tuple[int, dict[str, Any]]] = deque()
        self._cond = threading.Condition()
        self.closed = False

    # -- bus side --------------------------------------------------------
    def _offer(self, cursor: int, event: Mapping[str, Any]) -> None:
        if self._predicate is not None and not self._predicate(event):
            return
        with self._cond:
            if self.closed:
                return
            self._queue.append((cursor, dict(event)))
            self._cond.notify()

    def _close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    # -- consumer side ---------------------------------------------------
    def get(self, timeout: float | None = None):
        """Next ``(cursor, event)``, or ``None`` on timeout / closed-empty."""
        with self._cond:
            if not self._queue:
                self._cond.wait_for(
                    lambda: self._queue or self.closed, timeout=timeout
                )
            if self._queue:
                return self._queue.popleft()
            return None

    def close(self) -> None:
        """Detach from the bus (idempotent)."""
        self._bus._unsubscribe(self)
        self._close()

    def __iter__(self):
        while True:
            item = self.get()
            if item is None:
                return
            yield item

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EventBus:
    """Monotonic-cursor pub/sub with bounded replay history.

    Cursors start at 1 and increase by 1 per published event; they are
    service-incarnation-local (a restarted bus renumbers from 1).
    ``subscribe(after=N)`` replays retained events with cursor ``> N``
    first — the contract backing SSE ``Last-Event-ID`` — then receives
    live events with no gap and no duplicate in between, because both
    the replay and the hand-off to live delivery happen under the bus
    lock.

    ``history`` bounds replay memory; a subscriber whose ``after`` has
    already left the window receives everything still retained (the gap
    is detectable client-side from the cursor jump).
    """

    def __init__(self, *, history: int = 4096):
        if history < 0:
            raise ValueError("history must be >= 0")
        self._lock = threading.Lock()
        self._history: deque[tuple[int, dict[str, Any]]] = deque(
            maxlen=history or None
        )
        self._cursor = 0
        self._subs: list[Subscription] = []
        self.closed = False

    @property
    def cursor(self) -> int:
        """Cursor of the most recently published event (0 before any)."""
        with self._lock:
            return self._cursor

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subs)

    def publish(self, event: Mapping[str, Any]) -> int:
        """Assign the next cursor to ``event`` and fan it out."""
        event = dict(event)
        with self._lock:
            if self.closed:
                raise RuntimeError("publish on a closed EventBus")
            self._cursor += 1
            cursor = self._cursor
            self._history.append((cursor, event))
            subs = list(self._subs)
        for sub in subs:
            sub._offer(cursor, event)
        return cursor

    def subscribe(
        self,
        *,
        after: int = 0,
        predicate: Callable[[Mapping[str, Any]], bool] | None = None,
    ) -> Subscription:
        """Attach a consumer, replaying retained events with cursor > after."""
        sub = Subscription(self, predicate)
        with self._lock:
            for cursor, event in self._history:
                if cursor > after:
                    sub._offer(cursor, event)
            if self.closed:
                sub._close()
            else:
                self._subs.append(sub)
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            try:
                self._subs.remove(sub)
            except ValueError:
                pass

    def close(self) -> None:
        """Stop accepting events and wake every subscriber (idempotent)."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            subs = list(self._subs)
            self._subs.clear()
        for sub in subs:
            sub._close()


class SpanLatencySink:
    """Telemetry sink: span durations -> ``span_seconds`` histograms.

    Attach alongside a trace sink to surface gp_fit / acquisition /
    evaluation latencies on a :class:`MetricsRegistry` (and from there
    on ``GET /metrics``) without new instrumentation sites.
    """

    def __init__(self, registry, names=DEFAULT_LATENCY_SPANS):
        self.registry = registry
        self.names = frozenset(names) if names is not None else None

    def emit(self, event: Mapping[str, Any]) -> None:
        if event.get("kind") != "span":
            return
        name = event.get("name")
        if self.names is not None and name not in self.names:
            return
        t0, t1 = event.get("t0"), event.get("t1")
        if t0 is None or t1 is None:
            return
        self.registry.histogram("span_seconds", span=name).observe(
            max(0.0, float(t1) - float(t0))
        )

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass
