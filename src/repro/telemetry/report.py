"""Post-hoc trace analysis: ``repro report <trace.jsonl>``.

Turns a campaign's JSONL trace into the two artifacts the paper's
accounting revolves around:

* a **stage wall-time attribution table** — per-span-name *self* time
  (span duration minus direct children), rendered through the existing
  :class:`repro.profiling.TimingReport` so it reads exactly like the
  mini-app profiles that motivated the paper's "40-50% communication"
  observation;
* a **best-value-vs-evaluations progression** per search (Figure 6
  material), reconstructed from the ``eval`` event channel — which
  matches ``SearchResult``'s database history exactly, because each
  event is keyed by database index and carries the running best.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from ..durable import read_lines
from ..profiling.timers import TimingReport
from .sinks import TRACE_HEADER, trace_segments

__all__ = ["load_trace", "TraceReport"]


def load_trace(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Read one trace file (plus rotated siblings, oldest first).

    Reads only newline-complete lines, so a torn final line (crash
    mid-append) is skipped, like the evaluation checkpoint loader.
    """
    events: list[dict[str, Any]] = []
    for seg in trace_segments(path):
        for line in read_lines(seg)[0]:
            event = json.loads(line)
            if event.get("kind") == "header":
                if event.get("format") != TRACE_HEADER:
                    raise ValueError(
                        f"{seg}: not a repro trace (header {event.get('format')!r})"
                    )
                continue
            events.append(event)
    return events


@dataclass
class TraceReport:
    """Aggregated view over one campaign trace."""

    events: list[dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "TraceReport":
        return cls(load_trace(path))

    # ------------------------------------------------------------------
    def spans(self) -> list[dict[str, Any]]:
        return [e for e in self.events if e.get("kind") == "span"]

    def eval_events(self, scope: str | None = None) -> list[dict[str, Any]]:
        evs = [e for e in self.events if e.get("kind") == "eval"]
        if scope is not None:
            evs = [e for e in evs if e.get("scope") == scope]
        evs.sort(key=lambda e: (str(e.get("scope")), int(e.get("seq", 0))))
        return evs

    def scopes(self) -> list[str]:
        """Member scopes with evaluation events, in first-seen order."""
        seen: dict[str, None] = {}
        for e in self.events:
            if e.get("kind") == "eval":
                seen.setdefault(str(e.get("scope")), None)
        return list(seen)

    # -- stage attribution ----------------------------------------------
    def timing_report(self) -> TimingReport:
        """Per-span-name *self*-time profile.

        Self time = span duration minus the summed durations of its
        direct children, so nested spans (``search`` containing
        ``bo_iteration`` containing ``gp_fit``) do not double-count and
        the share column sums to ~100% of traced wall-time.
        """
        spans = self.spans()
        child_time: dict[tuple[str, int], float] = {}
        for s in spans:
            parent = s.get("parent")
            if parent is not None:
                key = (str(s.get("scope")), int(parent))
                child_time[key] = child_time.get(key, 0.0) + self._dur(s)
        # Member search trees live in their own scopes, so the parent
        # link cannot express their nesting inside the campaign span:
        # charge member root spans against the campaign span's self time
        # (clamped at zero below when members overlapped in real time).
        camp = [
            s for s in spans
            if s.get("scope") == "campaign" and s.get("name") == "campaign"
        ]
        if len(camp) == 1:
            key = ("campaign", int(camp[0].get("id", -1)))
            child_time[key] = child_time.get(key, 0.0) + sum(
                self._dur(s)
                for s in spans
                if s.get("parent") is None and s.get("scope") != "campaign"
            )
        entries: dict[str, tuple[float, int]] = {}
        for s in spans:
            name = str(s.get("name"))
            key = (str(s.get("scope")), int(s.get("id", -1)))
            self_time = max(0.0, self._dur(s) - child_time.get(key, 0.0))
            total, count = entries.get(name, (0.0, 0))
            entries[name] = (total + self_time, count + 1)
        return TimingReport(entries)

    @staticmethod
    def _dur(span: dict[str, Any]) -> float:
        t0, t1 = span.get("t0"), span.get("t1")
        if t0 is None or t1 is None:
            return 0.0
        return max(0.0, float(t1) - float(t0))

    # -- progression -----------------------------------------------------
    def progression(self, scope: str) -> list[float]:
        """Best-so-far after each *successful* evaluation of one search.

        Equals ``SearchResult.database.best_so_far()`` for the same
        member: eval events are keyed by database index and carry the
        running best over OK records.
        """
        series = []
        for e in self.eval_events(scope):
            if e.get("status") == "ok" and e.get("best") is not None:
                series.append(float(e["best"]))
        return series

    def evaluation_counts(self, scope: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.eval_events(scope):
            status = str(e.get("status"))
            counts[status] = counts.get(status, 0) + 1
        return counts

    def merged_metrics(self) -> dict[str, Any]:
        """Union of all metrics snapshots (counters summed)."""
        counters: dict[str, float] = {}
        for e in self.events:
            if e.get("kind") == "metrics":
                for k, v in e.get("counters", {}).items():
                    counters[k] = counters.get(k, 0.0) + float(v)
        return counters

    def warm_start_summary(self) -> dict[str, int]:
        """Seeded warm-start records per member scope.

        Reconstructed from the ``warm_start`` events the executor emits
        when Phase-1 observations are injected as seed history; each
        seeded record replaced one fresh search evaluation.
        """
        out: dict[str, int] = {}
        for e in self.events:
            if e.get("kind") == "event" and e.get("name") == "warm_start":
                scope = str(e.get("scope"))
                seeded = int(e.get("attrs", {}).get("seeded", 0))
                out[scope] = max(out.get(scope, 0), seeded)
        return out

    # -- rendering -------------------------------------------------------
    def format_profile(self) -> str:
        return self.timing_report().format()

    def format_progression(self, width: int = 40) -> str:
        """Per-search best-vs-evaluations progression (Fig. 6 style)."""
        lines = []
        for scope in self.scopes():
            series = self.progression(scope)
            counts = self.evaluation_counts(scope)
            n = sum(counts.values())
            lines.append(
                f"{scope}: {n} evaluations"
                + (
                    ""
                    if n == counts.get("ok", 0)
                    else f" ({n - counts.get('ok', 0)} failed/timeout)"
                )
            )
            if not series:
                lines.append("  (no successful evaluations)")
                continue
            lo, hi = min(series), max(series)
            span = hi - lo
            for i in (0, len(series) // 4, len(series) // 2,
                      3 * len(series) // 4, len(series) - 1):
                v = series[i]
                filled = (
                    int(round((width - 1) * (v - lo) / span)) if span > 0 else 0
                )
                bar = "#" * (width - filled)
                lines.append(f"  after {i + 1:>4} evals  {v:>12.6g}  {bar}")
        return "\n".join(lines)

    def format(self) -> str:
        lines = [
            "stage wall-time attribution (self time per span kind)",
            "-" * 56,
            self.format_profile(),
            "",
            "best-value-vs-evaluations progression",
            "-" * 56,
            self.format_progression(),
        ]
        warm = self.warm_start_summary()
        if warm:
            total = sum(warm.values())
            lines += ["", "warm-start reuse", "-" * 56]
            lines += [
                f"  {scope:<40} {seeded} seeded"
                for scope, seeded in sorted(warm.items())
            ]
            lines.append(
                f"  total: {total} phase-1 observations reused "
                f"({total} search evaluations saved)"
            )
        counters = self.merged_metrics()
        if counters:
            lines += ["", "counters", "-" * 56]
            lines += [f"  {k:<40} {v:g}" for k, v in sorted(counters.items())]
        return "\n".join(lines)
