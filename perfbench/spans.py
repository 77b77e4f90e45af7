"""Spans recorded from outside the package, and the per-job layer budget.

:class:`SpanRecorder` replaces public functions of the package with
timing wrappers.  It must be installed before the service's worker pool
forks, so every worker inherits the wrappers.  A span is ``(pid, sid,
parent, name, t0, t1, job, extra)``.  Its times come from
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux: one clock
for the supervisor and every worker.  The layer is the name's first
dotted part (the package module the function lives in).  Spans stay in
memory.  A worker writes its spans to ``<out_dir>/<job>.<pid>.jsonl``
when the job's ``execute_job`` returns.  The supervisor keeps its own
spans until the run ends.

:func:`job_budget` then tiles each job's submit -> DONE interval into
the service phases and charges each instant that a span covers to one
layer by self time: a span's duration minus the time its children
cover.  Instants that no wrapped call accounts for (no span covers
them, or only the ``run_job`` container does) go to an ``unattributed``
bucket, so a wrapper that never took effect shows up there.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

clock = time.perf_counter

LAYERS = (
    "service", "telemetry", "core", "insights", "search", "bo", "space",
    "synthetic", "tracing",
)
#: The bucket for job time that no wrapped call accounts for.
UNATTRIBUTED = "unattributed"


class SpanRecorder:
    """Timing wrappers around the package's public calls."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self.job: str | None = None  #: job a worker is running, if any
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, *, job=None, pre=None, extra=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``job(args, kwargs)`` names the job a call belongs to; without it
        the span inherits its parent's job, or the worker's current job.
        ``pre(args, kwargs)`` runs before the call and its value is passed
        to ``extra(args, kwargs, result, before)``, which returns the
        span's attributes.
        """
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            if job is not None:
                jid = job(args, kwargs)
            else:
                jid = parent[1] if parent is not None else rec.job
            sid = next(rec._ids)
            before = pre(args, kwargs) if pre is not None else None
            stack.append((sid, jid))
            out, ok = None, False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                attrs = extra(args, kwargs, out, before) if ok and extra else None
                rec.spans.append((
                    os.getpid(), sid, parent[0] if parent else None, name,
                    t0, t1, jid, attrs,
                ))

        setattr(owner, attr, traced)

    def wrap_worker_entry(self, module):
        """Wrap ``module.execute_job``, a pool worker's per-job entry: it
        scopes every worker span to the job, and writes the job's spans
        out when the job returns."""
        self.wrap(module, "execute_job", "service.execute_job",
                  job=lambda a, k: a[0]["job_id"])
        traced = module.execute_job

        @functools.wraps(traced)
        def execute_job(spec_dict, *args, **kwargs):
            self.spans.clear()  # drop whatever the fork copied
            self.job = spec_dict["job_id"]
            try:
                return traced(spec_dict, *args, **kwargs)
            finally:
                self.job = None
                self._dump(spec_dict["job_id"])

        module.execute_job = execute_job

    def _dump(self, job_id: str) -> None:
        t0 = clock()
        path = os.path.join(self.out_dir, f"{job_id}.{os.getpid()}.jsonl")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
            self.spans.clear()
            # The dump's own cost lies on the job's collect path, before
            # the worker reports to the supervisor; it is recorded as a
            # `tracing` span so it is not charged to the service.
            f.write(json.dumps(
                [os.getpid(), -1, None, "tracing.dump", t0, clock(),
                 job_id, None]
            ) + "\n")

    def load_worker_spans(self) -> list[tuple]:
        spans = []
        for name in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, name)) as f:
                spans.extend(tuple(json.loads(line)) for line in f)
        return spans


def install(rec: SpanRecorder) -> None:
    """Wrap every public call the per-layer table names.

    Each name is patched where its caller looks it up: module functions
    in the module that calls them, methods on their class.
    """
    from repro.bo import optimizer
    from repro.bo.gp import GaussianProcess
    from repro.bo.history import EvaluationDatabase
    from repro.core import SearchPlanner, TuningMethodology
    from repro.insights.phase1 import Phase1Evaluator
    from repro.search import SearchCampaign
    from repro.search.store import EvaluationStore
    from repro.service import JobRegistry, SharedWorkerPool, Supervisor
    from repro.service import pool as service_pool
    from repro.space import SearchSpace
    from repro.synthetic import SyntheticFunction
    from repro.telemetry import JsonlSink

    w = rec.wrap
    # service: supervisor, registry and pool.
    w(Supervisor, "submit", "service.submit", job=lambda a, k: a[1].job_id)
    # The supervision loop: its self time is the poll sleep between ticks.
    w(Supervisor, "run", "service.run")
    w(Supervisor, "tick", "service.tick")
    w(JobRegistry, "submit", "service.registry", job=lambda a, k: a[1].job_id)
    w(JobRegistry, "lease", "service.lease", job=lambda a, k: a[1])
    w(JobRegistry, "transition", "service.registry",
      job=lambda a, k: a[1],
      extra=lambda a, k, out, b: {
          "state": a[2] if len(a) > 2 else k.get("state"),
          "reason": k.get("reason"),
      })
    w(SharedWorkerPool, "submit", "service.pool_submit",
      job=lambda a, k: a[2])
    rec.wrap_worker_entry(service_pool)
    w(service_pool, "run_job", "service.run_job")
    # telemetry
    w(JsonlSink, "emit", "telemetry.sink_emit")
    # core
    w(TuningMethodology, "analyze", "core.analyze")
    w(SearchPlanner, "plan", "core.plan",
      extra=lambda a, k, out, b: {
          "searches": len(out.searches),
          "max_dim": max((s.dimension for s in out.searches), default=0),
      })
    # insights
    w(Phase1Evaluator, "run", "insights.phase1")
    # search: campaign runner and the cross-job store
    w(SearchCampaign, "run", "search.campaign")
    w(EvaluationStore, "__init__", "search.store_open")
    # The byte offset is the store's own read cursor; it is read, never
    # written, to count the bytes a refresh parsed.
    w(EvaluationStore, "refresh", "search.store_refresh",
      pre=lambda a, k: a[0]._offset,
      extra=lambda a, k, out, b: {"bytes": a[0]._offset - b})
    w(EvaluationStore, "record", "search.store_record",
      pre=lambda a, k: len(a[0]),
      extra=lambda a, k, out, b: {"appended": len(a[0]) > b})
    # bo
    w(GaussianProcess, "fit", "bo.gp_fit",
      extra=lambda a, k, out, b: {"n": int(a[1].shape[0])})
    w(GaussianProcess, "update", "bo.gp_update",
      extra=lambda a, k, out, b: {"n": int(out.n_train)})
    w(optimizer, "maximize_acquisition", "bo.acquisition")
    w(EvaluationDatabase, "append", "bo.checkpoint")
    # space
    w(SearchSpace, "sample_batch", "space.sample_batch",
      extra=lambda a, k, out, b: {"n": len(out)})
    # synthetic: one application run
    w(SyntheticFunction, "group_raw_values", "synthetic.eval")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


#: Spans that append to the registry WAL (a lease appends one transition).
WAL_SPANS = ("service.registry", "service.lease")
#: A job's attributed layer self times must sum to its closed-loop
#: latency within 2% plus 10 ms.  What they leave out is `run_job`'s own
#: bookkeeping (building the application, the fingerprint: a median of
#: 2, 5 and 9 ms per job on svc-tiny, store-reuse and methodology on a
#: 2-vCPU VM) and the worker's pick-up of the pipe message (~0.2 ms).
#: A missing wrapper leaves whole calls out: 30 ms or more per job.
RECONCILE_REL = 0.02
RECONCILE_ABS_S = 0.010
#: Share of a pass's jobs (at least one) that may miss the tolerance: a
#: host stall in a worker can land in the few milliseconds no wrapper
#: covers.  A missing wrapper makes every job miss.
RECONCILE_MISS_SHARE = 0.01


def _start(span):
    return span[4]


class SpanTree:
    """The child spans of every span, for charging self time."""

    def __init__(self, spans):
        #: ``(pid, sid)`` -> child spans by start.  Children of one span
        #: ran on its thread, one after another, so their ends are sorted
        #: too and a bisection finds the first one still open at a time.
        self.children = defaultdict(list)
        for s in spans:
            if s[2] is not None:
                self.children[(s[0], s[2])].append(s)
        for kids in self.children.values():
            kids.sort(key=_start)
        self.ends = {key: [s[5] for s in kids] for key, kids in self.children.items()}

    def cover(self, self_s, kids, lo, hi, *, container=False, key=None) -> float:
        """Charge ``kids`` (sorted by start) inside ``[lo, hi)`` to
        ``self_s`` by layer, first come first served, and return the time
        they cover.  A ``container``'s own self time is charged as
        unattributed.  ``key`` names the span whose children ``kids``
        are."""
        covered, cur = 0.0, lo
        first = bisect.bisect_right(self.ends[key], lo) if key is not None else 0
        for kid in itertools.islice(kids, first, None):
            if kid[4] >= hi:
                break
            k_lo, k_hi = max(kid[4], cur), min(kid[5], hi)
            if k_hi > k_lo:
                ck = (kid[0], kid[1])
                inner = (self.cover(self_s, self.children[ck], k_lo, k_hi, key=ck)
                         if ck in self.children else 0.0)
                layer = UNATTRIBUTED if container else layer_of(kid[3])
                self_s[layer] += (k_hi - k_lo) - inner
                covered += k_hi - k_lo
                cur = k_hi
        return covered


def job_budget(spans: list[tuple], tree: SpanTree, loops: list[tuple]):
    """Tile one job's submit -> DONE interval and charge it to layers.

    ``spans`` are the job's spans and ``tree`` indexes every span's
    children; ``loops`` are the supervisor's ``Supervisor.run`` spans.
    The phases are submit (the
    ``Supervisor.submit`` call), queue wait (until the lease starts),
    dispatch (until ``run_job`` starts in the worker), run (the
    ``run_job`` call) and collect (until the DONE transition has been
    written).  Phase boundaries taken out of order are clamped to their
    predecessor.

    Each instant is charged through the spans of whoever holds the job
    at that moment: the submitter's ``Supervisor.submit``; the
    supervision loop, until the pool's pipe write returns; the worker's
    ``execute_job`` and its span dump, from the worker's entry until it
    reports back; then the supervision loop until DONE is durable.  Work
    of other threads is off the job's critical path and is not charged.
    Unattributed time is what no span covers (the worker's pick-up of
    the pipe message) plus ``run_job``'s own self time: inside the run
    phase, every instant a wrapped package call does not account for.
    Returns ``(phase seconds, self seconds by layer)``, or ``None`` when
    a boundary span is missing.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
    try:
        submit = by_name["service.submit"][0]
        lease = min(by_name["service.lease"], key=_start)
        run = max(by_name["service.run_job"], key=_start)
        entry = max(by_name["service.execute_job"], key=_start)
        sent = max((s for s in by_name["service.pool_submit"] if s[4] <= run[4]),
                   key=_start)
        done = next(
            s for s in by_name["service.registry"]
            if s[7] and s[7].get("state") == "done"
        )
    except (IndexError, ValueError, StopIteration):
        return None
    b = [submit[4]]
    for t in (submit[5], lease[4], run[4], run[5], done[5]):
        b.append(max(b[-1], t))

    def clamp(t, lo, hi):
        return min(max(t, lo), hi)

    handoff = clamp(sent[5], b[2], b[3])
    pickup = clamp(entry[4], handoff, b[3])
    worker = sorted([entry, *by_name["tracing.dump"]], key=_start)
    reported = clamp(max(s[5] for s in worker), b[4], b[5])
    self_s: dict[str, float] = defaultdict(float)
    for lo, hi, kids, container in (
        (b[0], b[1], [submit], False),
        (b[1], handoff, loops, False),
        (handoff, pickup, [], False),
        (pickup, b[3], [entry], False),
        (b[3], b[4], [run], True),
        (b[4], reported, worker, False),
        (reported, b[5], loops, False),
    ):
        if hi > lo:
            covered = tree.cover(self_s, kids, lo, hi, container=container)
            self_s[UNATTRIBUTED] += (hi - lo) - covered
    phases = dict(zip(("submit", "queue_wait", "dispatch", "run", "collect"),
                      (hi - lo for lo, hi in zip(b, b[1:]))))
    return phases, self_s


def layer_metrics(spans, jobs, window, pool_size, respawns, trace_bytes):
    """Per-job layer metrics of one traced pass.

    ``jobs`` maps job id to ``{"latency", "t_done", "result"}`` for every
    job that reached DONE; ``window`` is the pass's timed window and
    ``trace_bytes`` maps job id to the size of its job trace.  Returns
    ``(metrics, problems)``: a message when a job's boundary spans are
    missing, or when more jobs than :data:`RECONCILE_MISS_SHARE` allows
    have attributed layer self times that miss their latency by more
    than the tolerance.
    """
    tree = SpanTree(spans)
    by_job = defaultdict(list)
    ticks, loops = [], []
    for s in spans:
        if s[3] == "service.tick":
            ticks.append(s)
        elif s[3] == "service.run":
            loops.append(s)
        elif s[6] is not None:
            by_job[s[6]].append(s)
    loops.sort(key=_start)
    tot = defaultdict(float)
    worst = 0.0
    missing, misses = [], []
    max_train_n = max_dim = 0
    w0, w1 = window
    for jid, job in jobs.items():
        js = by_job.get(jid, [])
        budget = job_budget(js, tree, loops)
        if budget is None:
            missing.append(jid)
            continue
        phases, self_s = budget
        attributed = sum(v for k, v in self_s.items() if k != UNATTRIBUTED)
        err = abs(attributed - job["latency"])
        worst = max(worst, err / job["latency"])
        if err > RECONCILE_REL * job["latency"] + RECONCILE_ABS_S:
            misses.append(jid)
        for phase, dur in phases.items():
            tot["phase." + phase] += dur
        for layer, dur in self_s.items():
            tot["self." + layer] += dur
        index = {(s[0], s[1]): s for s in js}
        for s in js:
            name, dur, attrs = s[3], s[5] - s[4], s[7] or {}
            parent = index.get((s[0], s[2]))
            pname = parent[3] if parent is not None else None
            tot[name + "#n"] += 1
            tot[name + "#s"] += dur
            if name in WAL_SPANS and pname not in WAL_SPANS:
                tot["wal_s"] += dur
            if name == "service.registry" and attrs.get("state") == "queued" \
                    and attrs.get("reason") is not None:
                tot["requeues"] += 1
            if name == "service.lease":
                tot["busy_s"] += max(0.0, min(job["t_done"], w1) - max(s[4], w0))
            if name == "search.store_refresh":
                tot["store_bytes"] += attrs.get("bytes", 0)
                if pname != "search.store_open":
                    tot["refreshes"] += 1
                    tot["refresh_s"] += dur
            if name == "search.store_record" and attrs.get("appended"):
                tot["store_appends"] += 1
            if name in ("bo.gp_fit", "bo.gp_update"):
                max_train_n = max(max_train_n, attrs.get("n", 0))
            if name == "core.plan":
                tot["searches"] += attrs.get("searches", 0)
                max_dim = max(max_dim, attrs.get("max_dim", 0))
            if name == "space.sample_batch":
                tot["candidates"] += attrs.get("n", 0)
        result = job["result"]
        memo = result.get("memo") or {}
        records = sum(x["n_records"] for x in result["searches"])
        tot["local_hits"] += int(memo.get("hits", 0))
        tot["cross_hits"] += int(memo.get("cross_job_hits", 0))
        tot["misses"] += (
            records - int(memo.get("hits", 0)) - int(memo.get("cross_job_hits", 0))
        )
        tot["phase1_runs"] += int(result.get("analysis_evaluations", 0))
        tot["trace_bytes"] += trace_bytes.get(jid, 0)
    n = max(len(jobs), 1)

    def per_job(key):
        return tot[key] / n

    def ms(key):
        return 1000.0 * tot[key] / n

    lookups = tot["misses"] + tot["local_hits"] + tot["cross_hits"]
    m = {
        "service.submit_ms": ms("phase.submit"),
        "service.queue_wait_ms": ms("phase.queue_wait"),
        "service.dispatch_ms": ms("phase.dispatch"),
        "service.collect_ms": ms("phase.collect"),
        "service.wal_events": per_job("service.registry#n"),
        "service.wal_ms": ms("wal_s"),
        "service.ticks": len(ticks) / n,
        "service.tick_ms": 1000.0 * sum(s[5] - s[4] for s in ticks) / n,
        "service.slot_busy_frac": tot["busy_s"] / (pool_size * (w1 - w0)),
        "service.requeues": per_job("requeues"),
        "service.respawns": respawns / n,
        "telemetry.trace_bytes": per_job("trace_bytes"),
        "telemetry.sink_ms": ms("telemetry.sink_emit#s"),
        "core.analyze_ms": ms("core.analyze#s"),
        "core.plan_ms": ms("core.plan#s"),
        "core.searches": per_job("searches"),
        "core.max_search_dim": float(max_dim),
        "insights.phase1_runs": per_job("phase1_runs"),
        "search.campaign_ms": ms("search.campaign#s"),
        "search.misses": per_job("misses"),
        "search.cross_hits": per_job("cross_hits"),
        "search.local_hits": per_job("local_hits"),
        "search.cross_hit_ratio": tot["cross_hits"] / lookups if lookups else 0.0,
        "search.store_open_ms": ms("search.store_open#s"),
        "search.store_refreshes": per_job("refreshes"),
        "search.store_refresh_ms": ms("refresh_s"),
        "search.store_bytes_parsed": per_job("store_bytes"),
        "search.store_appends": per_job("store_appends"),
        "search.store_append_ms": ms("search.store_record#s"),
        "bo.gp_fits": per_job("bo.gp_fit#n"),
        "bo.gp_fit_ms": ms("bo.gp_fit#s"),
        "bo.gp_updates": per_job("bo.gp_update#n"),
        "bo.gp_update_ms": ms("bo.gp_update#s"),
        "bo.acquisition_ms": ms("bo.acquisition#s"),
        "bo.max_train_n": float(max_train_n),
        "bo.checkpoint_appends": per_job("bo.checkpoint#n"),
        "bo.checkpoint_ms": ms("bo.checkpoint#s"),
        "space.sample_batch_ms": ms("space.sample_batch#s"),
        "space.candidates": per_job("candidates"),
        "synthetic.evals": per_job("synthetic.eval#n"),
        "synthetic.eval_ms": ms("synthetic.eval#s"),
    }
    for layer in (*LAYERS, UNATTRIBUTED):
        m[f"self.{layer}_ms"] = ms("self." + layer)
    m["trace.reconcile_err_pct"] = 100.0 * worst
    problems = []
    if missing:
        problems.append(f"{len(missing)} traced jobs lack a boundary span: "
                        f"{missing[:5]}")
    if len(misses) > max(1, int(RECONCILE_MISS_SHARE * len(jobs))):
        problems.append(
            f"{len(misses)} of {len(jobs)} traced jobs' attributed self "
            f"times miss their latency by more than {100 * RECONCILE_REL:g}% "
            f"+ {1000 * RECONCILE_ABS_S:g} ms: {misses[:5]}"
        )
    return m, problems
