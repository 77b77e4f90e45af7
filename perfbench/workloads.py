"""Seeded job streams for the service benchmark.

Every workload is a closed loop of ``C`` tenants.  Tenant ``k`` owns its
own job stream, a pure function of ``(workload, seed, k)``, so the specs
the service sees never depend on timing.  This module imports nothing
from the package under test: the harness uses it to pick the reference
specs before any service process starts.
"""

from __future__ import annotations

import random
from typing import NamedTuple

WORKLOADS = ("svc-tiny", "methodology", "store-reuse")

#: The cheap samplers: no GP surrogate, so the BO layer stays idle.
CHEAP_ENGINES = ("random", "qmc", "tpe")

METHODOLOGY_VARIATIONS = 10
METHODOLOGY_CUTOFF = 0.25
CAMPAIGN_BUDGET = 16
STORE_EVAL_COST = 0.01
#: Records of other spaces written into the store before the run.
STORE_PREFILL = 4000
#: A tenant thinks for U(0, THINK_MAX_S) before each submission: one
#: supervisor poll interval (``Supervisor.run``'s default).  Without it
#: every submission follows a DONE within microseconds, so arrivals lock
#: to the supervisor's ticks and latencies pile up on modes one poll
#: apart; the svc-tiny median then flipped between two of them (0.12 s
#: and 0.16 s) from run to run.
THINK_MAX_S = 0.05


#: Methodology times each tenant's first five jobs, one of each case,
#: by their place in its stream.  Cases 1-3 split into four 5-dim
#: searches of 50 evaluations; cases 4-5 merge into one 10-dim search of
#: 100 and run ~50% longer.  A sample picked by a time window took a
#: long job in or left it out depending on how fast the host ran; this
#: one holds the same cases in every run.
METHODOLOGY_TIMED_JOBS = 5


def timed_jobs(workload: str) -> int | None:
    """Jobs per tenant, from the start of its stream, that form the
    timed sample; ``None`` when the sample is the jobs finishing inside
    the timed window (the tiny-job workloads, whose windows hold a
    hundred jobs or more over every case and engine)."""
    return METHODOLOGY_TIMED_JOBS if workload == "methodology" else None


class StreamJob(NamedTuple):
    key: str  #: stable job id, ``t<tenant>-<index>``
    index: int  #: place in the tenant's stream, from 0
    params: dict
    repeat_of: str | None  #: store-reuse: key of the job this repeats
    think_s: float  #: the tenant's pause before submitting it


def tenants(workload: str, nproc: int) -> int:
    """Closed-loop client count: 2 x nproc for the tiny-job workloads
    (keeps a queue in front of the pool), nproc for methodology (one job
    per worker, so its latency is tuner compute, not queueing)."""
    return nproc if workload == "methodology" else 2 * nproc


class TenantStream:
    """The jobs one tenant submits, in order (``next()``)."""

    def __init__(self, workload: str, seed: int, tenant: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.tenant = tenant
        self._rng = random.Random(f"{workload}/{seed}/{tenant}")
        self._j = 0
        self._originals: list[tuple[str, dict]] = []

    @property
    def kind(self) -> str:
        return "methodology" if self.workload == "methodology" else "campaign"

    def next(self) -> StreamJob:
        j, k = self._j, self.tenant
        self._j += 1
        key = f"t{k}-{j:05d}"
        think = self._rng.uniform(0.0, THINK_MAX_S)
        seed = self._rng.randrange(1, 2**31)
        if self.workload == "methodology":
            # Every tenant's j-th job is case j % 5 + 1.
            params = {
                "case": j % 5 + 1,
                "seed": seed,
                "variations": METHODOLOGY_VARIATIONS,
                "cutoff": METHODOLOGY_CUTOFF,
            }
            return StreamJob(key, j, params, None, think)
        if self.workload == "store-reuse" and j % 2 == 1:
            # A repeat names one of this tenant's own earlier new jobs:
            # the tenant submits only after its previous job is DONE, so
            # the repeated spec's evaluations are already in the store.
            orig_key, params = self._rng.choice(self._originals)
            return StreamJob(key, j, dict(params), orig_key, think)
        i = k + (j // 2 if self.workload == "store-reuse" else j)
        params = {
            "case": i % 5 + 1,
            "seed": seed,
            "engine": CHEAP_ENGINES[i % 3],
            "budget": CAMPAIGN_BUDGET,
        }
        if self.workload == "store-reuse":
            params["eval_cost"] = STORE_EVAL_COST
            self._originals.append((key, params))
        return StreamJob(key, j, params, None, think)


def reference_sample(workload: str, seed: int, nproc: int) -> list[tuple[str, str, dict]]:
    """Seeded sample of ``(job_key, kind, params)`` to re-run in-process.

    Drawn from each tenant's first jobs only, which every run submits
    well inside its timed window.
    """
    if workload == "methodology":
        per_tenant, take = 1, 1
    elif workload == "store-reuse":
        per_tenant, take = 4, 4  # the first two new specs per tenant
    else:
        per_tenant, take = 8, 12
    pool = []
    for k in range(tenants(workload, nproc)):
        stream = TenantStream(workload, seed, k)
        for _ in range(per_tenant):
            job = stream.next()
            if job.repeat_of is None:
                pool.append((job.key, stream.kind, job.params))
    rng = random.Random(f"reference/{workload}/{seed}")
    return sorted(rng.sample(pool, min(take, len(pool))))


def prefill_records(seed: int):
    """Yield ``(space, config, value, provenance)`` for the store-reuse
    pre-fill: evaluations of 32 foreign spaces, 20-parameter
    configurations shaped like the synthetic cases', keyed under space
    fingerprints no job uses."""
    rng = random.Random(f"prefill/{seed}")
    spaces = [f"{rng.getrandbits(256):064x}" for _ in range(32)]
    for i in range(STORE_PREFILL):
        config = {f"x{d}": rng.uniform(-50.0, 50.0) for d in range(20)}
        yield (
            spaces[i % len(spaces)],
            config,
            rng.uniform(-20.0, 40.0),
            {"noise": 0.0, "seed": rng.randrange(1, 2**31)},
        )
