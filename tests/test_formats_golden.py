"""Golden bytes of every durable on-disk format.

Each writer below runs a fixed write sequence through a format's public
API; the bytes it leaves must equal the committed files in
``tests/golden/``.  The files pin the formats as the package wrote them
before :mod:`repro.durable` owned the framing, so any refactor of the
write path that changes one byte fails here.

To capture the files from a given source tree::

    PYTHONPATH=<tree>/src python tests/test_formats_golden.py tests/golden
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np
import pytest

from repro.bo.history import Evaluation, EvaluationDatabase
from repro.core import TuningMethodology
from repro.faults import CircuitBreaker, FailureKind
from repro.faults.breaker import persist_breaker
from repro.insights import SensitivityResult
from repro.insights.phase1 import Phase1Log, Phase1Observation
from repro.search.store import EvaluationStore
from repro.service import JobRegistry, JobSpec
from repro.service.jobs import atomic_write_json, write_fence
from repro.space import Real, SearchSpace
from repro.synthetic import SyntheticFunction
from repro.telemetry import JsonlSink, Telemetry
from repro.telemetry.clock import TickClock

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _evaluations() -> list[Evaluation]:
    return [
        Evaluation({"x": 1, "mode": "a"}, 1.5, cost=0.25,
                   meta={"t": np.float64(0.125), "n": np.int64(3)}),
        Evaluation({"x": 2, "mode": "b"}, float("nan"), cost=0.5,
                   status="failed", meta={"error": "boom"}),
        Evaluation({"x": 3, "mode": "a"}, 0.75, cost=1.0),
        Evaluation({"x": 4, "mode": "c"}, float("nan"), status="timeout"),
    ]


def write_checkpoint_db(d: str) -> dict[str, str]:
    out = {}
    for name in ("db.jsonl", "db.json"):
        db = EvaluationDatabase(os.path.join(d, name), task="golden")
        evals = _evaluations()
        db.append(evals[0])
        db.append(evals[1])
        db.extend(evals[2:])
        out[name] = os.path.join(d, name)
    return out


def write_phase1_log(d: str) -> dict[str, str]:
    path = os.path.join(d, "phase1.jsonl")
    log = Phase1Log(path, label="golden", n_tasks=3)
    log.append(Phase1Observation(0, "baseline", None, {"x": 0.5},
                                 {"f": 1.25, "g": 2.0}))
    log.append(Phase1Observation(1, "variation", "x", {"x": 0.75},
                                 {"f": 1.5, "g": None}, {"g": "boom"}, 1))
    log.append(Phase1Observation(2, "insight", None, {"x": 0.25},
                                 {"f": 0.5, "g": 3.0}))
    return {"phase1.jsonl": path}


def write_registry(d: str) -> dict[str, str]:
    root = os.path.join(d, "registry")
    out = {}
    with JobRegistry(root) as reg:
        a = reg.submit(JobSpec(kind="campaign", tenant="t1",
                               params={"case": 2, "seed": 7, "budget": 8}))
        reg.lease(a.job_id, "worker-1")
        reg.transition(a.job_id, "running", owner="worker-1")
        reg.transition(a.job_id, "done", owner="worker-1",
                       result={"fingerprint": "ab" * 8, "best": 0.5})
        b = reg.submit(JobSpec(kind="methodology", tenant="t2"),
                       reject_reason="queue_full")
        c = reg.submit(JobSpec(kind="campaign", job_id="job-c", tenant="t1"))
        reg.lease(c.job_id, "worker-2")
        reg.requeue(c.job_id, "lease_expired")
        assert b.state == "rejected"
        with open(reg.wal_path, "rb") as f:
            out["registry.wal.jsonl"] = f.read()
        reg.compact()
        reg.transition(c.job_id, "cancelled", reason="tenant")
    out["registry.compacted.wal.jsonl"] = os.path.join(root, "registry.wal.jsonl")
    out["registry.snapshot.json"] = os.path.join(root, "registry.snapshot.json")
    return out


def write_store(d: str) -> dict[str, str]:
    path = os.path.join(d, "store.jsonl")
    store = EvaluationStore(path)
    store.record("space-a", "k1", 1.5, {"ms": np.float64(0.25)},
                 provenance={"noise": 0.0, "seed": 1})
    store.record("space-a", "k2", 2.0, provenance={"noise": 0.1, "seed": 2})
    store.record("space-a", "k1", 9.0)  # first write wins: not appended
    store.record("space-b", "k1", np.float32(0.5), {"tags": ("x", "y")})
    store.close()
    return {"store.jsonl": path}


def write_trace(d: str) -> dict[str, str]:
    path = os.path.join(d, "trace.jsonl")
    sink = JsonlSink(path, max_bytes=900, max_files=3)
    tel = Telemetry([sink], clock=TickClock(step=0.25))
    tracer = tel.tracer("campaign")
    member = tel.tracer("stage-0/G-0")
    with tracer.span("campaign", n=2):
        tracer.event("search_start", budget=3)
        for i in range(3):
            with member.span("bo_iteration", i=i):
                with member.span("gp_fit", n=i + 1):
                    pass
                member.eval_event(i, objective=1.0 / (i + 1), cost=0.5,
                                  status="ok", best=1.0 / (i + 1))
        member.eval_event(1, objective=0.5, cost=0.5, status="ok", best=0.5)
    tel.close()
    assert os.path.exists(path + ".1") and not os.path.exists(path + ".2")
    return {"trace.jsonl.1": path + ".1", "trace.jsonl": path}


def write_breaker(d: str) -> dict[str, str]:
    space = SearchSpace([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)], name="B")
    br = CircuitBreaker(space, threshold=2, resolution=4)
    br.record({"x": 0.1, "y": 0.9}, FailureKind.PERMANENT)
    br.record({"x": 0.1, "y": 0.9}, FailureKind.NUMERIC)
    br.record({"x": 0.6, "y": 0.2}, FailureKind.PERMANENT)
    ck = os.path.join(d, "ck", "member.jsonl")
    persist_breaker(br, ck)
    return {"breaker.json": ck + ".breaker.json"}


def write_sensitivity_checkpoint(d: str) -> dict[str, str]:
    f = SyntheticFunction(1, random_state=0)
    tm = TuningMethodology(f.search_space(), f.routines(), n_variations=2,
                           random_state=0)
    names = [p.name for p in f.search_space().parameters]
    targets = [r.name for r in f.routines()]
    sens = SensitivityResult(
        baseline={n: i * 0.5 for i, n in enumerate(names)},
        baseline_values={t: 1.0 + j for j, t in enumerate(targets)},
        scores={t: {n: ((i + 3 * j) % 7) / 8 for i, n in enumerate(names)}
                for j, t in enumerate(targets)},
        n_evaluations=41,
        warnings=["x1: imputed"],
    )
    tm.run_sensitivity = lambda *a, **k: sens
    path = os.path.join(d, "sensitivity.json")
    tm.analyze(checkpoint=path)
    return {"sensitivity.json": path}


def write_published_json(d: str) -> dict[str, str]:
    path = os.path.join(d, "result.json")
    atomic_write_json(path, {"fingerprint": "cd" * 8, "best": [0.5, None],
                             "memo": {"misses": 2, "hits": 1}})
    write_fence(d, 4)
    return {"result.json": path, "fence.json": os.path.join(d, "fence.json")}


WRITERS = [
    write_checkpoint_db,
    write_phase1_log,
    write_registry,
    write_store,
    write_trace,
    write_breaker,
    write_sensitivity_checkpoint,
    write_published_json,
]


def _contents(produced: dict[str, str | bytes]) -> dict[str, bytes]:
    out = {}
    for name, src in produced.items():
        if isinstance(src, str):
            with open(src, "rb") as f:
                src = f.read()
        out[name] = src
    return out


@pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__[6:])
def test_bytes_match_golden(writer, tmp_path):
    for name, data in _contents(writer(str(tmp_path))).items():
        with open(os.path.join(GOLDEN, name), "rb") as f:
            assert data == f.read(), name


def main(out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for writer in WRITERS:
        with tempfile.TemporaryDirectory() as d:
            for name, data in _contents(writer(d)).items():
                with open(os.path.join(out_dir, name), "wb") as f:
                    f.write(data)


if __name__ == "__main__":
    main(sys.argv[1])
