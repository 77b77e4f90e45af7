"""Phase-1 evaluation engine: profiled, parallel, resumable, reusable.

Phase 1 of the methodology (sensitivity analysis + the optional insight
sample) is the observation-expensive part of the pipeline: ``1 + V x d``
application runs per baseline plus 100-200 insight runs.  This module
makes those runs as cheap as the hardware allows and keeps their results
around for reuse:

* **Cross-target profiled measurement** — one profiled application run
  returns *all* routine timings (:meth:`repro.core.RoutineSet.profile`),
  collapsing the ``t x`` per-configuration redundancy of measuring each
  target with its own objective call (:class:`ProfiledMeasurer` vs the
  per-target :class:`TargetMeasurer`).
* **Plan/evaluate/assemble split** — the analysis first *plans* every
  configuration it needs (:class:`MeasureTask`), consuming all random
  state up front, then evaluates the plan through a
  :class:`Phase1Evaluator`.  Evaluation consumes no random state, so
  tasks can be fanned across a process pool and reassembled by index with
  results bit-identical to a sequential run.
* **Append-only observation log** — with a checkpoint directory every
  completed observation is appended to a JSONL log
  (:class:`Phase1Log`); a killed analysis resumes mid-``V x d`` instead
  of restarting from the all-or-nothing sensitivity JSON checkpoint.
* **Warm-start projection** — :func:`project_observations` projects the
  accumulated observations onto a planned search's pinned subspace and
  turns matches into :class:`~repro.bo.history.Evaluation` seed records,
  so the search's BO engine starts from Phase-1 history instead of cold
  random initialization (the BoGraph/Gramacy observation-reuse idea).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..bo.history import Evaluation
from ..durable import AppendLog, read_lines
from ..log import get_logger
from ..search.cache import canonical_key
from ..telemetry.core import NULL_TRACER

__all__ = [
    "MeasureTask",
    "Phase1Observation",
    "Phase1Log",
    "TargetMeasurer",
    "ProfiledMeasurer",
    "Phase1Evaluator",
    "project_observations",
]

logger = get_logger("insights")


def config_fingerprint(config: Mapping[str, Any]) -> int:
    """Stable fingerprint of a configuration (for log/plan validation)."""
    return zlib.crc32(canonical_key(config).encode("utf-8"))


@dataclass(frozen=True)
class MeasureTask:
    """One planned Phase-1 measurement.

    Attributes
    ----------
    index:
        Position in the plan; observations are reassembled by it.
    kind:
        ``"baseline"``, ``"variation"``, or ``"insight"``.
    param:
        The varied parameter (``None`` for baseline/insight tasks).
    config:
        The full application configuration to measure.
    """

    index: int
    kind: str
    param: str | None
    config: dict[str, Any]


@dataclass
class Phase1Observation:
    """Outcome of one measured task: all target values at one config.

    ``values[t]`` is ``None`` when target ``t`` failed both attempts
    (``errors[t]`` holds the last error); ``extra_runs`` counts the
    re-measurements performed (for ``n_evaluations`` accounting).
    """

    index: int
    kind: str
    param: str | None
    config: dict[str, Any]
    values: dict[str, float | None]
    errors: dict[str, str] = field(default_factory=dict)
    extra_runs: int = 0

    @property
    def ok(self) -> bool:
        return all(v is not None for v in self.values.values())

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "index": self.index,
            "kind": self.kind,
            "config": dict(self.config),
            "values": dict(self.values),
            "cfg": config_fingerprint(self.config),
        }
        if self.param is not None:
            out["param"] = self.param
        if self.errors:
            out["errors"] = dict(self.errors)
        if self.extra_runs:
            out["extra_runs"] = self.extra_runs
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Phase1Observation":
        return cls(
            index=int(d["index"]),
            kind=str(d["kind"]),
            param=d.get("param"),
            config=dict(d["config"]),
            values={
                k: (None if v is None else float(v))
                for k, v in d["values"].items()
            },
            errors=dict(d.get("errors", {})),
            extra_runs=int(d.get("extra_runs", 0)),
        )


# ----------------------------------------------------------------------
# Measurers: how one task is turned into an observation
# ----------------------------------------------------------------------
class TargetMeasurer:
    """Measure every target with its own objective call (the legacy,
    unprofiled path): per-target single re-measure on failure, exactly
    the semantics of the pre-engine ``SensitivityAnalysis._measure``.

    Picklable when the target callables are, so tasks can cross a
    process-pool boundary.
    """

    profiled = False

    def __init__(self, targets: Mapping[str, Callable[[Mapping[str, Any]], float]]):
        self.targets = dict(targets)

    def measure(self, task: MeasureTask) -> Phase1Observation:
        values: dict[str, float | None] = {}
        errors: dict[str, str] = {}
        extra = 0
        for name, fn in self.targets.items():
            last = ""
            value: float | None = None
            for attempt in range(2):
                try:
                    y = float(fn(task.config))
                except Exception as exc:
                    last = repr(exc)
                else:
                    if np.isfinite(y):
                        value = y
                        extra += attempt
                        break
                    last = f"non-finite value {y!r}"
            else:
                extra += 1
            values[name] = value
            if value is None:
                errors[name] = last
        return Phase1Observation(
            index=task.index,
            kind=task.kind,
            param=task.param,
            config=dict(task.config),
            values=values,
            errors=errors,
            extra_runs=extra,
        )


class ProfiledMeasurer:
    """Measure all targets from **one** profiled application run.

    A raised profile (or any non-finite target value) triggers a single
    shared re-profile; targets still failing after it are reported
    ``None`` per target, preserving the per-target imputation semantics
    downstream.  ``extra_runs`` is at most 1 per configuration — the
    whole point of profiling: retries, like measurements, are paid per
    *run*, not per target.
    """

    profiled = True

    def __init__(self, routines):
        # Duck-typed: anything with .profile(config) -> {name: value} and
        # iterable members exposing .name (repro.core.RoutineSet).
        self.routines = routines
        self.target_names = [r.name for r in routines]

    def _profile_once(self) -> None:  # pragma: no cover - doc helper
        raise NotImplementedError

    def measure(self, task: MeasureTask) -> Phase1Observation:
        attempts: list[dict[str, float] | None] = []
        errors_raised: list[str] = []
        extra = 0
        for attempt in range(2):
            try:
                out = {
                    k: float(v)
                    for k, v in self.routines.profile(task.config).items()
                }
            except Exception as exc:
                attempts.append(None)
                errors_raised.append(repr(exc))
            else:
                attempts.append(out)
                if all(
                    np.isfinite(out.get(t, float("nan")))
                    for t in self.target_names
                ):
                    if attempt:
                        extra = 1
                    break
                errors_raised.append("")
            if attempt:
                extra = 1
        values: dict[str, float | None] = {}
        errors: dict[str, str] = {}
        for t in self.target_names:
            value: float | None = None
            last = ""
            for run, out in enumerate(attempts):
                if out is None:
                    last = errors_raised[run]
                    continue
                y = out.get(t, float("nan"))
                if np.isfinite(y):
                    value = y
                    break
                last = f"non-finite value {y!r}"
            values[t] = value
            if value is None:
                errors[t] = last
        return Phase1Observation(
            index=task.index,
            kind=task.kind,
            param=task.param,
            config=dict(task.config),
            values=values,
            errors=errors,
            extra_runs=extra,
        )


# ----------------------------------------------------------------------
# Append-only observation log (mid-analysis crash recovery)
# ----------------------------------------------------------------------
class Phase1Log:
    """Append-only JSONL log of Phase-1 observations.

    One header line (label + plan size) followed by one observation per
    line — O(1) I/O per observation, the same format discipline as the
    search evaluation checkpoints.  On load, each record is validated
    against the *current* plan by index and configuration fingerprint; a
    log written by a different plan (changed seed, V, baseline, space) is
    detected as stale, discarded with a warning, and overwritten.  A torn
    final line (crash mid-append) is skipped on load and truncated before
    the next append (:class:`repro.durable.AppendLog`), so the
    interrupted task is simply re-measured.
    """

    _HEADER = "repro-phase1-log"

    def __init__(self, path: str | os.PathLike, *, label: str, n_tasks: int):
        self.path = os.fspath(path)
        self.label = label
        self.n_tasks = int(n_tasks)

    # ------------------------------------------------------------------
    def load(self, tasks: Sequence[MeasureTask]) -> dict[int, Phase1Observation]:
        """Observations matching the planned tasks, keyed by index."""
        by_task = {t.index: t for t in tasks}
        out: dict[int, Phase1Observation] = {}
        for line in read_lines(self.path)[0]:
            try:
                d = json.loads(line)
            except json.JSONDecodeError:
                return self._stale("unparsable line")
            if isinstance(d, dict) and d.get("format") == self._HEADER:
                if d.get("label") != self.label or int(
                    d.get("n_tasks", -1)
                ) != self.n_tasks:
                    return self._stale("header does not match the plan")
                continue
            try:
                obs = Phase1Observation.from_dict(d)
            except (KeyError, TypeError, ValueError):
                return self._stale("malformed record")
            task = by_task.get(obs.index)
            if task is None or config_fingerprint(task.config) != d.get("cfg"):
                return self._stale(f"record {obs.index} diverges from the plan")
            out[obs.index] = obs
        return out

    def _stale(self, why: str) -> dict[int, Phase1Observation]:
        logger.warning(
            "phase-1 log %s is stale (%s); discarding and re-measuring",
            self.path, why,
        )
        os.unlink(self.path)
        return {}

    def append(self, obs: Phase1Observation) -> None:
        header = json.dumps(
            {"format": self._HEADER, "label": self.label, "n_tasks": self.n_tasks}
        )
        with AppendLog(self.path, header=header) as log:
            log.append([json.dumps(obs.to_dict())])


# ----------------------------------------------------------------------
# The evaluator: sequential or pooled, checkpointed, traced
# ----------------------------------------------------------------------
class Phase1Evaluator:
    """Drive a list of :class:`MeasureTask` through a measurer.

    Parameters
    ----------
    parallel:
        Fan pending tasks across a process pool (the PR-1 campaign
        executor's pool machinery).  Planning consumed all random state,
        so pooled results are bit-identical to sequential ones; tasks
        whose measurer cannot be pickled fall back in-process with
        identical results.
    n_workers:
        Pool width (``None`` -> ``os.cpu_count()``).
    checkpoint_dir:
        Directory for per-run :class:`Phase1Log` files
        (``<dir>/<label>.jsonl``).  Logged observations are replayed, not
        re-measured — a killed analysis resumes mid-``V x d``.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`.  Each run emits a
        ``search_start`` event (budget = number of planned tasks), one
        ``sensitivity_eval`` / ``insight_eval`` span and one ``eval``
        event per task (keyed by task index, so resumed runs re-emit a
        byte-identical eval channel), wrapped in a ``search`` span on the
        ``phase1/<label>`` scope — the same progress/trace surface the
        searches have.

    Every completed run's observations are accumulated on
    :attr:`observations` (in plan order) for warm-start projection.
    """

    def __init__(
        self,
        *,
        parallel: bool = False,
        n_workers: int | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        telemetry=None,
    ):
        self.parallel = bool(parallel)
        self.n_workers = n_workers
        self.checkpoint_dir = (
            os.fspath(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.telemetry = telemetry
        self.observations: list[Phase1Observation] = []

    # ------------------------------------------------------------------
    def _tracer(self, label: str):
        if self.telemetry is None:
            return NULL_TRACER
        return self.telemetry.tracer(f"phase1/{label}")

    def run(
        self,
        tasks: Sequence[MeasureTask],
        measurer,
        *,
        label: str = "phase1",
    ) -> dict[int, Phase1Observation]:
        """Measure every task; return observations keyed by task index.

        When the plan starts with a ``baseline`` task whose every target
        fails both attempts, measurement stops there (the analysis cannot
        proceed without a finite baseline) and the partial mapping is
        returned for the caller to diagnose.
        """
        tasks = list(tasks)
        log = (
            Phase1Log(
                os.path.join(self.checkpoint_dir, f"{_slug(label)}.jsonl"),
                label=label,
                n_tasks=len(tasks),
            )
            if self.checkpoint_dir is not None
            else None
        )
        done = log.load(tasks) if log is not None else {}

        tracer = self._tracer(label)
        tracer.event(
            "search_start",
            budget=len(tasks),
            engine=(
                "phase1-profiled"
                if getattr(measurer, "profiled", False)
                else "phase1"
            ),
            space=label,
            strategy="phase1",
            resumed=len(done),
        )
        results: dict[int, Phase1Observation] = {}
        with tracer.span("search", engine="phase1", space=label):
            pooled = self._pooled_results(tasks, measurer, done)
            for task in tasks:
                name = (
                    "insight_eval" if task.kind == "insight" else "sensitivity_eval"
                )
                with tracer.span(
                    name,
                    index=task.index,
                    kind=task.kind,
                    param=task.param or "",
                ) as sp:
                    obs = done.get(task.index)
                    fresh = obs is None
                    if obs is None:
                        obs = pooled.get(task.index)
                    if obs is None:
                        obs = measurer.measure(task)
                    if fresh and log is not None and not (
                        task.kind == "baseline" and not any(
                            v is not None for v in obs.values.values()
                        )
                    ):
                        # Fully-failed baselines are not persisted: a
                        # resume should re-measure them (the failure may
                        # have been transient).
                        log.append(obs)
                    sp.attrs.update(ok=obs.ok, extra_runs=obs.extra_runs)
                results[task.index] = obs
                finite = [v for v in obs.values.values() if v is not None]
                tracer.eval_event(
                    task.index,
                    objective=float(sum(finite)) if finite else float("nan"),
                    cost=float(1 + obs.extra_runs),
                    status="ok" if obs.ok else "failed",
                    best=None,
                    cfg_hash=config_fingerprint(task.config),
                )
                if fresh and self.telemetry is not None:
                    m = self.telemetry.metrics
                    m.counter("phase1_evaluations", kind=task.kind).inc()
                    if obs.extra_runs:
                        m.counter("phase1_retries").inc(obs.extra_runs)
                if (
                    task.kind == "baseline"
                    and not any(v is not None for v in obs.values.values())
                ):
                    break  # no finite baseline -> the analysis cannot proceed
        if self.telemetry is not None:
            tracer.metrics_event(self.telemetry.metrics)
        self.observations.extend(results[t.index] for t in tasks
                                 if t.index in results)
        return results

    def _pooled_results(
        self,
        tasks: Sequence[MeasureTask],
        measurer,
        done: Mapping[int, Phase1Observation],
    ) -> dict[int, Phase1Observation]:
        """Measure pending non-baseline tasks in a process pool (or not).

        Baseline tasks are always measured in-process first by the main
        loop so a dead baseline aborts before the ``V x d`` fan-out.
        """
        if not self.parallel:
            return {}
        pending = [
            t for t in tasks if t.index not in done and t.kind != "baseline"
        ]
        if len(pending) < 2:
            return {}
        from ..search.executor import run_measure_tasks

        measured = run_measure_tasks(
            measurer, pending, n_workers=self.n_workers
        )
        if measured is None:
            logger.info(
                "phase-1 tasks not picklable; measuring in-process "
                "(results are identical)"
            )
            return {}
        return {obs.index: obs for obs in measured}


def _slug(name: str) -> str:
    import re

    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "phase1"


# ----------------------------------------------------------------------
# Warm-start projection
# ----------------------------------------------------------------------
def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(
        v, bool
    )


def _pin_matches(value: Any, pin: Any, tolerance: float) -> tuple[bool, bool]:
    """``(matches, exact)`` for one pinned parameter."""
    if _is_number(value) and _is_number(pin):
        exact = float(value) == float(pin)
        if exact:
            return True, True
        if tolerance > 0.0:
            ok = abs(float(value) - float(pin)) <= tolerance * max(
                1.0, abs(float(pin))
            )
            return ok, False
        return False, False
    return (value == pin), (value == pin)


def project_observations(
    observations: Iterable[Phase1Observation],
    members: Sequence[Any],
    subspace,
    *,
    tolerance: float = 0.0,
    max_records: int | None = None,
) -> list[Evaluation]:
    """Project Phase-1 observations onto one planned search's subspace.

    An observation matches when every parameter the subspace pins sits at
    its pinned value (exactly for non-numeric pins; within a relative
    ``tolerance`` for numeric ones) and every member routine's value is
    finite.  Matches become :class:`~repro.bo.history.Evaluation` records
    whose objective is the member-weighted sum **in member order** — the
    same summation the materialized search objective performs, so exact
    matches reconstruct the objective bit-for-bit.  Tolerance-matched
    records are tagged ``meta["warm_inexact"]`` so the memoization cache
    refuses to serve them for the (slightly different) exact
    configuration.

    Records are deduplicated on the canonical tuned configuration and the
    best ``max_records`` (lowest objective, ties by observation order)
    are returned, best first.  Costs are zero: these observations were
    already paid for in Phase 1.
    """
    pinned = dict(getattr(subspace, "pinned", {}))
    names = list(subspace.names)
    matches: list[tuple[float, int, Evaluation]] = []
    seen: set[str] = set()
    for ordinal, obs in enumerate(observations):
        if any(n not in obs.config for n in names):
            continue
        values = obs.values
        vs = [values.get(m.name) for m in members]
        if any(v is None for v in vs):
            continue
        exact = True
        ok = True
        for p, pin in pinned.items():
            if p not in obs.config:
                ok = False
                break
            m, ex = _pin_matches(obs.config[p], pin, tolerance)
            if not m:
                ok = False
                break
            exact = exact and ex
        if not ok:
            continue
        config = subspace.complete({n: obs.config[n] for n in names})
        if not subspace.is_valid({n: obs.config[n] for n in names}):
            continue
        key = canonical_key(config)
        if key in seen:
            continue
        seen.add(key)
        objective = float(
            sum(m.weight * values[m.name] for m in members)
        )
        if not np.isfinite(objective):
            continue
        meta: dict[str, Any] = {
            "warm_start": True,
            "phase1_index": obs.index,
            "phase1_kind": obs.kind,
        }
        if not exact:
            meta["warm_inexact"] = True
        matches.append(
            (
                objective,
                ordinal,
                Evaluation(
                    config=config, objective=objective, cost=0.0, meta=meta
                ),
            )
        )
    matches.sort(key=lambda t: (t[0], t[1]))
    if max_records is not None:
        matches = matches[: max(0, int(max_records))]
    return [rec for _, _, rec in matches]
