"""Durable files: how every on-disk format frames records and makes them
survive a crash.

The package persists two kinds of file.  Append-only logs of
newline-terminated JSON lines (evaluation checkpoints, Phase-1 logs, the
job registry WAL, the cross-job evaluation store, telemetry traces) go
through :class:`AppendLog` and :func:`read_lines`; small documents
replaced whole (snapshots, sidecars, published results) go through
:func:`atomic_write`.  The rules they share live here:

* a record exists once its newline is on disk: readers consume only
  newline-complete lines, and a writer drops a torn tail
  (:func:`repair_torn_tail`) before it appends after one;
* an append is one ``os.write`` on an ``O_APPEND`` descriptor, so lines
  from concurrent appenders interleave whole, fsynced per
  :data:`FSYNC_POLICIES`;
* a replaced document is written to a temp file in the same directory,
  fsynced, and renamed over the target, so a crash leaves the old
  document or the new one, never a mix.

Each format keeps its own header, encoder, and policy for a complete
line that does not parse.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable

__all__ = [
    "FSYNC_POLICIES",
    "AppendLog",
    "atomic_write",
    "read_lines",
    "repair_torn_tail",
    "split_lines",
]

#: Durability policies of an :class:`AppendLog`:
#:
#: * ``"always"`` — fsync after every append.  A crash loses at most the
#:   line being written (the torn tail the loaders repair).
#: * ``"rotate"`` — fsync when the file is rotated or compacted away,
#:   and on close; between them a crash may lose OS-buffered lines.
#: * ``"close"`` — fsync only on close: fastest, weakest.
FSYNC_POLICIES = ("always", "rotate", "close")

_TAIL_CHUNK = 1 << 16


def repair_torn_tail(path: str | os.PathLike) -> bool:
    """Drop a final line that a crash left without its newline.

    Every complete append ends with a newline, so a log that does not is
    carrying a partial record from a write that died mid-line.  Readers
    skip the fragment, but an append after it would glue the next record
    onto it, turning the recoverable torn *final* line into an
    unparsable *interior* one.  Only the file's tail is read.  The file
    is removed when no complete line survives.  Returns True if the file
    was modified; a missing file is left alone.
    """
    try:
        fd = os.open(path, os.O_RDWR)
    except FileNotFoundError:
        return False
    try:
        end = os.fstat(fd).st_size
        if end == 0 or os.pread(fd, 1, end - 1) == b"\n":
            return False
        while end > 0:
            start = max(0, end - _TAIL_CHUNK)
            newline = os.pread(fd, end - start, start).rfind(b"\n")
            if newline >= 0:
                os.ftruncate(fd, start + newline + 1)
                os.fsync(fd)
                return True
            end = start
        os.unlink(path)
        return True
    finally:
        os.close(fd)


def split_lines(data: bytes) -> tuple[list[bytes], int]:
    """The non-blank newline-complete lines of ``data`` (without their
    newlines) and the number of bytes they span; a torn tail is left
    out."""
    lines = data.split(b"\n")
    tail = lines.pop()
    return [line for line in lines if line.strip()], len(data) - len(tail)


def read_lines(
    path: str | os.PathLike, offset: int = 0
) -> tuple[list[bytes], int]:
    """The newline-complete lines of ``path`` after byte ``offset``, and
    the offset just past the last of them.

    A line still being written (or torn by a crash) is not consumed, so
    the next call from the returned offset picks it up once it
    completes.  A missing file reads as empty.
    """
    try:
        with open(path, "rb") as f:
            f.seek(offset)
            data = f.read()
    except FileNotFoundError:
        return [], offset
    lines, consumed = split_lines(data)
    return lines, offset + consumed


def atomic_write(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text``: temp file in the same directory,
    flush, fsync, ``os.replace``.  The temp file is removed on failure."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=os.path.basename(path) + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class AppendLog:
    """An append-only file of newline-terminated lines, open for writing.

    Opening creates the parent directory, repairs a torn tail
    (:attr:`repaired`), and writes ``header`` only into an empty file
    (:attr:`created`).  The header is not fsynced on its own: it carries
    no record, and the next fsynced append covers it.  Each
    :meth:`append` is one ``os.write`` on an ``O_APPEND`` descriptor, so
    whole lines from several processes interleave but never mix.  The
    repair on open reads the tail, then truncates, and a reader can see
    another process's write in flight half done: a format with several
    writers must exclude their opens from each other and from appends
    (:class:`repro.search.store.EvaluationStore` holds a lock).

    ``fsync`` is one of :data:`FSYNC_POLICIES`, or ``None`` for a file
    that is never fsynced.  :attr:`size` counts the bytes in the file as
    this handle knows them (exact for a single writer).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        header: str | None = None,
        fsync: str | None = "always",
    ):
        if fsync is not None and fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.path = os.fspath(path)
        self.fsync = fsync
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        self.repaired = repair_torn_tail(self.path)
        self._file = open(self.path, "ab", buffering=0)
        self.size = os.fstat(self._file.fileno()).st_size
        self.created = self.size == 0
        if self.created and header is not None:
            self._write([header])

    @property
    def closed(self) -> bool:
        return self._file.closed

    def _write(self, lines: Iterable[str]) -> None:
        data = "".join(line + "\n" for line in lines).encode()
        view = memoryview(data)
        while view:
            view = view[self._file.write(view):]
        self.size += len(data)

    def append(self, lines: Iterable[str]) -> None:
        """Append ``lines`` (each without its newline) in one write."""
        self._write(lines)
        if self.fsync == "always":
            os.fsync(self._file.fileno())

    def close(self, *, rotating: bool = False) -> None:
        """Fsync what the policy has not synced yet, then close.

        ``rotating`` marks a file boundary (rotation, compaction), where
        the ``"close"`` policy does not fsync.  Idempotent.
        """
        if self._file.closed:
            return
        try:
            if self.fsync == "rotate" or (self.fsync == "close" and not rotating):
                os.fsync(self._file.fileno())
        finally:
            self._file.close()

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
