"""Job fingerprints of a fixed job list, for comparing two source trees.

Runs every job below in-process with :func:`repro.service.jobs.run_job`,
each in its own temporary work directory, and prints one JSON object
``{job: fingerprint}`` with sorted keys.  A change that promises
byte-identical results (a speed-up, a refactor) must leave every
fingerprint as it was, so run this script against the base tree and the
changed tree on the same machine and diff the two outputs::

    PYTHONPATH=<base>/src python benchmarks/fingerprint_drift.py > base.json
    PYTHONPATH=src python benchmarks/fingerprint_drift.py > head.json
    diff -u base.json head.json

Both runs use this file's job list, so only the package differs.  Run
them on one machine: BLAS and libm differences between hosts then
cancel out.

The list covers every sampler a service job reaches by engine name.
(``grid`` hangs on a base tree older than its direct index decode,
whose strided enumeration walked the whole 4^20-point grid of a
synthetic case.)
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from typing import Any, Iterator

from repro.service.jobs import JobSpec, run_job

#: Engines with no GP surrogate: every synthetic case, two seeds each.
CHEAP_ENGINES = (
    "random", "grid", "hillclimb", "anneal", "qmc", "tpe", "cma-es-lite"
)
#: GP engines: slower, so two cases (one split, one merged search).
GP_ENGINES = ("gp-bo", "batch-bo")
GP_CASES = (1, 4)
BUDGET = 16


def jobs() -> Iterator[tuple[str, str, dict[str, Any]]]:
    """``(name, kind, params)`` of every job, in run order."""
    for engine in CHEAP_ENGINES:
        for case in range(1, 6):
            for seed in (1, 2):
                params = {"engine": engine, "case": case, "seed": seed, "budget": BUDGET}
                yield f"campaign/{engine}/case{case}/seed{seed}", "campaign", params
    for engine in GP_ENGINES:
        for case in GP_CASES:
            params = {"engine": engine, "case": case, "seed": 1, "budget": BUDGET}
            yield f"campaign/{engine}/case{case}/seed1", "campaign", params
    for case in GP_CASES:
        yield f"methodology/case{case}/seed1", "methodology", {"case": case, "seed": 1}


def main() -> int:
    import repro

    print(f"repro from {os.path.dirname(repro.__file__)}", file=sys.stderr)
    fingerprints: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="fingerprint-drift-") as tmp:
        for i, (name, kind, params) in enumerate(jobs()):
            result = run_job(JobSpec(kind=kind, params=params), os.path.join(tmp, str(i)))
            fingerprints[name] = result["fingerprint"]
    print(json.dumps(fingerprints, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
