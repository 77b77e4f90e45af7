"""Objective-evaluation and cost-accounting helpers.

Used by the generic sampler driver, the loop of every engine but the
GP-based ones:

* :func:`evaluate_config` — one evaluation with the full failure-capture
  protocol (exception classification, wallclock- vs simulated-timeout
  semantics, non-finite capture) producing an
  :class:`~repro.bo.history.Evaluation` record;
* :func:`schedule_makespan` — the greedy list-scheduling makespan that
  turns per-evaluation costs into the paper's parallel "Time" column;

The semantics are pinned by the engine tests.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..bo.history import Evaluation, EvaluationStatus
from ..faults.taxonomy import FAILURE_KIND_KEY, FailureKind, classify_exception

__all__ = ["evaluate_config", "schedule_makespan"]


def evaluate_config(
    objective,
    full: Mapping[str, Any],
    *,
    evaluation_timeout: float | None = None,
) -> Evaluation:
    """Evaluate one completed configuration with full failure capture.

    * A raised exception is classified through the failure taxonomy; a
      TIMEOUT classification (the watchdog's
      :class:`~repro.faults.EvaluationTimeoutError`) is recorded as a
      ``"wallclock"`` timeout costing the simulated budget.
    * A non-finite return value is recorded FAILED/NUMERIC.
    * A finite value above ``evaluation_timeout`` is a ``"simulated"``
      timeout: the objective completed, but its reported runtime blew the
      simulated kill-switch budget.  ``None`` disables this check.
    """
    full = dict(full)
    try:
        out = objective(full)
    except Exception as exc:
        kind = classify_exception(exc)
        meta: dict[str, Any] = {
            "error": repr(exc),
            FAILURE_KIND_KEY: kind.value,
        }
        if kind is FailureKind.TIMEOUT:
            # Real wall-clock deadline (watchdog) — distinct from the
            # simulated value cap below; see search/result.py.
            meta["timeout_kind"] = "wallclock"
        return Evaluation(
            config=full,
            objective=float("nan"),
            cost=evaluation_timeout or 0.0
            if kind is FailureKind.TIMEOUT
            else 0.0,
            status=EvaluationStatus.TIMEOUT
            if kind is FailureKind.TIMEOUT
            else EvaluationStatus.FAILED,
            meta=meta,
        )
    if isinstance(out, tuple):
        value, meta = float(out[0]), dict(out[1])
    else:
        value, meta = float(out), {}
    if not np.isfinite(value):
        return Evaluation(
            config=full, objective=float("nan"), cost=0.0,
            status=EvaluationStatus.FAILED,
            meta={**meta, FAILURE_KIND_KEY: FailureKind.NUMERIC.value},
        )
    if evaluation_timeout is not None and value > evaluation_timeout:
        # SIMULATED timeout: the *returned* runtime exceeds the budget
        # (the objective itself completed normally).
        return Evaluation(
            config=full,
            objective=float("nan"),
            cost=evaluation_timeout,
            status=EvaluationStatus.TIMEOUT,
            meta={
                **meta,
                FAILURE_KIND_KEY: FailureKind.TIMEOUT.value,
                "timeout_kind": "simulated",
            },
        )
    return Evaluation(config=full, objective=value, cost=max(value, 0.0), meta=meta)


def schedule_makespan(costs: np.ndarray, slots: int) -> float:
    """Greedy list-scheduling makespan of ``costs`` over ``slots``.

    Equal to ``sum(costs) / slots`` for uniform costs — the accounting
    behind the paper's tiny random-search "Time" column (embarrassingly
    parallel evaluations) versus inherently sequential BO.
    """
    if costs.size == 0:
        return 0.0
    finish = np.zeros(max(1, int(slots)))
    for c in costs:
        finish[int(np.argmin(finish))] += c
    return float(np.max(finish))
