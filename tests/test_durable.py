"""Crash consistency of :mod:`repro.durable`, proved once for every log.

Each append-only format is cut at every byte offset of a
header-plus-three-record file, as a crash at that point of the write
would leave it, then reopened by its writer, which appends one record.
Every reader of the format must then see exactly the records whose
newline reached the disk, plus the new one.
"""

import json
import multiprocessing
import os
import random

import pytest

from repro.bo.history import Evaluation, EvaluationDatabase
from repro.durable import AppendLog, read_lines, repair_torn_tail
from repro.insights.phase1 import MeasureTask, Phase1Log, Phase1Observation
from repro.search.store import EvaluationStore
from repro.service import JobRegistry, JobSpec, load_registry_records
from repro.service.registry import replay_wal_event
from repro.telemetry import JsonlSink, load_trace

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
DET = {"noise": 0.0, "seed": 0}


class CheckpointDB:
    file = "db.jsonl"

    def build(self, path):
        db = EvaluationDatabase(path)
        for i in range(3):
            db.append(Evaluation({"x": i}, float(i)))

    def reopen_and_append(self, path):
        EvaluationDatabase(path).append(Evaluation({"x": 9}, 9.0))

    def expect(self, records):
        return [r["objective"] for r in records] + [9.0]

    readers = {
        "EvaluationDatabase": lambda path: [
            r.objective for r in EvaluationDatabase(path)
        ],
    }


TASKS = [MeasureTask(i, "variation", "x", {"x": float(i)}) for i in range(4)]


def _observation(i):
    return Phase1Observation(i, "variation", "x", {"x": float(i)}, {"f": i / 2})


class Phase1:
    file = "phase1.jsonl"

    @staticmethod
    def log(path):
        return Phase1Log(path, label="cut", n_tasks=len(TASKS))

    def build(self, path):
        for i in range(3):
            self.log(path).append(_observation(i))

    def reopen_and_append(self, path):
        log = self.log(path)
        log.load(TASKS)
        log.append(_observation(3))

    def expect(self, records):
        return [r["index"] for r in records] + [3]

    readers = {"Phase1Log.load": lambda path: sorted(Phase1.log(path).load(TASKS))}


def _job_table(records):
    return {r.job_id: (r.state, r.epoch, r.attempt) for r in records}


def _registry_recovery(path):
    with JobRegistry(os.path.dirname(path)) as reg:
        return _job_table(reg.jobs())


class Registry:
    file = "registry.wal.jsonl"

    def build(self, path):
        with JobRegistry(os.path.dirname(path)) as reg:
            reg.submit(JobSpec(kind="campaign", job_id="a"))  # submit + queued
            reg.lease("a", "worker")

    def reopen_and_append(self, path):
        with JobRegistry(os.path.dirname(path)) as reg:
            reg.submit(JobSpec(kind="campaign", job_id="new"))

    def expect(self, records):
        jobs = {}
        for event in records:
            replay_wal_event(jobs, event)
        return {**_job_table(jobs.values()), "new": ("queued", 0, 0)}

    readers = {
        "JobRegistry": _registry_recovery,
        "load_registry_records": lambda path: _job_table(
            load_registry_records(os.path.dirname(path))
        ),
    }


def _store_keys(path):
    store = EvaluationStore(path)
    try:
        return sorted(e.key for e in store)
    finally:
        store.close()


class Store:
    file = "store.jsonl"

    def build(self, path):
        store = EvaluationStore(path)
        for i in range(3):
            store.record("fp", f"k{i}", float(i), provenance=DET)
        store.close()

    def reopen_and_append(self, path):
        store = EvaluationStore(path)
        store.record("fp", "new", 9.0, provenance=DET)
        store.close()

    def expect(self, records):
        return sorted([r["key"] for r in records] + ["new"])

    readers = {"EvaluationStore.refresh": _store_keys}


class Trace:
    file = "trace.jsonl"

    def build(self, path):
        with JsonlSink(path) as sink:
            for i in range(3):
                sink.emit({"kind": "event", "scope": "s", "seq": i, "name": f"e{i}"})

    def reopen_and_append(self, path):
        with JsonlSink(path) as sink:
            sink.emit({"kind": "event", "scope": "s", "seq": 9, "name": "new"})

    def expect(self, records):
        return [r["name"] for r in records] + ["new"]

    readers = {"load_trace": lambda path: [e["name"] for e in load_trace(path)]}


FORMATS = [CheckpointDB(), Phase1(), Registry(), Store(), Trace()]


@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: type(f).__name__)
def test_torn_tail_at_every_byte_offset(fmt, tmp_path):
    whole = tmp_path / fmt.file
    fmt.build(str(whole))
    data = whole.read_bytes()
    lines = data.split(b"\n")[:-1]
    assert len(lines) == 4  # header + three records
    ends = [sum(len(line) + 1 for line in lines[: i + 1]) for i in range(4)]
    for cut in range(len(data) + 1):
        d = tmp_path / f"cut{cut}"
        d.mkdir()
        path = str(d / fmt.file)
        with open(path, "wb") as f:
            f.write(data[:cut])
        fmt.reopen_and_append(path)
        complete = [json.loads(lines[i]) for i in (1, 2, 3) if ends[i] <= cut]
        for name, read in fmt.readers.items():
            assert read(path) == fmt.expect(complete), (name, cut)


def test_offline_registry_reader_never_writes(tmp_path):
    Registry().build(str(tmp_path / Registry.file))
    wal = tmp_path / Registry.file
    torn = wal.read_bytes() + b'{"event": "transition", "se'
    wal.write_bytes(torn)
    assert len(load_registry_records(tmp_path)) == 1
    assert wal.read_bytes() == torn


# ----------------------------------------------------------------------
# The primitive itself


def _appender(path, writer, n_records, opened):
    rng = random.Random(CHAOS_SEED * 100 + writer)
    log = AppendLog(path, fsync=None)
    # Opening repairs the tail, which must not race another process's
    # append (it could read a write in flight as a torn line).
    opened.wait()
    seq = 0
    while seq < n_records:
        batch = min(rng.randint(1, 3), n_records - seq)
        log.append(
            json.dumps({"w": writer, "seq": seq + j, "pad": "x" * rng.randint(0, 5000)})
            for j in range(batch)
        )
        seq += batch
    log.close()


def test_concurrent_appenders_leave_whole_lines(tmp_path):
    path = str(tmp_path / "log.jsonl")
    AppendLog(path, header='{"format":"test"}').close()
    ctx = multiprocessing.get_context("fork")
    opened = ctx.Barrier(4)
    procs = [
        ctx.Process(target=_appender, args=(path, w, 200, opened)) for w in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
    assert [p.exitcode for p in procs] == [0] * 4
    lines, end = read_lines(path)
    assert end == os.path.getsize(path) and len(lines) == 801
    records = [json.loads(line) for line in lines[1:]]
    for w in range(4):
        assert [r["seq"] for r in records if r["w"] == w] == list(range(200))


def test_reader_holds_back_a_line_still_being_written(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": ')
    assert read_lines(path) == ([b'{"a": 1}'], 9)
    assert read_lines(path, 9) == ([], 9)
    with open(path, "ab") as f:
        f.write(b"2}\n")
    assert read_lines(path, 9) == ([b'{"b": 2}'], 18)
    assert read_lines(tmp_path / "missing", 5) == ([], 5)


def test_repair_reads_only_the_tail(tmp_path, monkeypatch):
    path = tmp_path / "big.jsonl"
    path.write_bytes(b'{"pad": "' + b"x" * (1 << 20) + b'"}\n{"torn')
    read = []
    real_pread = os.pread

    def pread(fd, n, offset):
        read.append(n)
        return real_pread(fd, n, offset)

    monkeypatch.setattr(os, "pread", pread)
    assert repair_torn_tail(path) is True
    assert path.read_bytes().endswith(b'"}\n') and sum(read) <= (1 << 16) + 1


def test_header_only_into_an_empty_file(tmp_path):
    path = tmp_path / "log.jsonl"
    with AppendLog(path, header="H") as log:
        assert log.created
        log.append(["a", "b"])
    with AppendLog(path, header="H") as log:
        assert not log.created
        log.append(["c"])
    assert path.read_bytes() == b"H\na\nb\nc\n"


# ----------------------------------------------------------------------
# Crash cases whose bytes the header rule changed: a file that exists
# but is empty (created, then the crash hit before its first write) now
# gets its header, and so does a trace whose current file is missing
# while rotated segments remain (a crash between rotation's rename and
# the new file's creation).


def test_empty_checkpoint_gets_its_header(tmp_path):
    path = tmp_path / "db.jsonl"
    path.touch()
    EvaluationDatabase(path).append(Evaluation({"x": 1}, 1.0))
    assert path.read_bytes() == (
        b'{"format": "repro-evaluation-db", "task": "task"}\n'
        b'{"config": {"x": 1}, "objective": 1.0, "cost": 0.0, '
        b'"status": "ok", "meta": {}}\n'
    )


def test_empty_phase1_log_gets_its_header(tmp_path):
    path = tmp_path / "p.jsonl"
    path.touch()
    Phase1Log(path, label="l", n_tasks=1).append(
        Phase1Observation(0, "baseline", None, {"x": 1}, {"f": 2.0})
    )
    first = json.loads(path.read_bytes().split(b"\n")[0])
    assert first == {"format": "repro-phase1-log", "label": "l", "n_tasks": 1}


def test_empty_store_gets_its_header(tmp_path):
    path = tmp_path / "s.jsonl"
    path.touch()
    EvaluationStore(path).record("fp", "k", 1.0, provenance=DET)
    assert path.read_bytes() == (
        b'{"format":"repro-evaluation-store","version":1}\n'
        b'{"key":"k","meta":{},"provenance":{"noise":0.0,"seed":0},'
        b'"space":"fp","value":1.0}\n'
    )


def test_trace_resumed_without_current_segment_gets_a_header(tmp_path):
    path = tmp_path / "t.jsonl"
    (tmp_path / "t.jsonl.1").write_bytes(
        b'{"format":"repro-trace","kind":"header","version":1}\n'
        b'{"kind":"eval","scope":"s","seq":0}\n'
    )
    with JsonlSink(path) as sink:
        sink.emit({"kind": "eval", "scope": "s", "seq": 0})  # deduplicated
        sink.emit({"kind": "eval", "scope": "s", "seq": 1})
    assert path.read_bytes() == (
        b'{"format":"repro-trace","kind":"header","version":1}\n'
        b'{"kind":"eval","scope":"s","seq":1}\n'
    )
    assert [e["seq"] for e in load_trace(path)] == [0, 1]
