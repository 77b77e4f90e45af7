"""Every whole-file writer fsyncs its temp file before renaming it.

A rename can reach the disk before the data it points at: without the
fsync, a power cut right after ``os.replace`` can leave an empty or
partial file under the final name, where the previous version used to
be intact.
"""

import os

import pytest

from repro.bo.history import Evaluation, EvaluationDatabase
from repro.core import TuningMethodology
from repro.faults import CircuitBreaker, FailureKind
from repro.faults.breaker import persist_breaker
from repro.insights import SensitivityResult
from repro.service import JobRegistry, JobSpec
from repro.service.jobs import atomic_write_json
from repro.space import Real, SearchSpace
from repro.synthetic import SyntheticFunction

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc to name an fd"
)


def breaker(d):
    br = CircuitBreaker(SearchSpace([Real("x", 0.0, 1.0)]), threshold=1)
    br.record({"x": 0.1}, FailureKind.PERMANENT)
    persist_breaker(br, os.path.join(d, "member.jsonl"))
    return [os.path.join(d, "member.jsonl.breaker.json")]


def database_json(d):
    EvaluationDatabase(os.path.join(d, "db.json")).append(Evaluation({"x": 1}, 1.0))
    return [os.path.join(d, "db.json")]


def database_save_jsonl(d):
    db = EvaluationDatabase()
    db.append(Evaluation({"x": 1}, 1.0))
    db.save(os.path.join(d, "db.jsonl"), format="jsonl")
    return [os.path.join(d, "db.jsonl")]


def registry_compaction(d):
    with JobRegistry(d) as reg:
        reg.submit(JobSpec(kind="campaign"))
        reg.compact()
    return [reg.snapshot_path, reg.wal_path]


def sensitivity_checkpoint(d):
    f = SyntheticFunction(1, random_state=0)
    tm = TuningMethodology(f.search_space(), f.routines(), random_state=0)
    names = [p.name for p in f.search_space().parameters]
    targets = [r.name for r in f.routines()]
    sens = SensitivityResult(
        baseline={n: 0.0 for n in names},
        baseline_values={t: 1.0 for t in targets},
        scores={t: {n: 0.0 for n in names} for t in targets},
        n_evaluations=1,
    )
    tm.run_sensitivity = lambda *a, **k: sens
    tm.analyze(checkpoint=os.path.join(d, "sensitivity.json"))
    return [os.path.join(d, "sensitivity.json")]


def published_json(d):
    atomic_write_json(os.path.join(d, "result.json"), {"ok": True})
    return [os.path.join(d, "result.json")]


@pytest.mark.parametrize(
    "writer",
    [breaker, database_json, database_save_jsonl, registry_compaction,
     sensitivity_checkpoint, published_json],
    ids=lambda w: w.__name__,
)
def test_temp_file_is_fsynced_before_rename(writer, tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
        return real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.realpath(src), os.path.realpath(dst)))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    targets = [os.path.realpath(t) for t in writer(str(tmp_path))]
    renames = [(i, c[1]) for i, c in enumerate(calls)
               if c[0] == "replace" and c[2] in targets]
    assert len(renames) == len(targets)
    for i, tmp in renames:
        assert ("fsync", tmp) in calls[:i], f"{tmp} renamed before fsync"
