"""Service side of the benchmark.  Every invocation is a fresh interpreter.

    python3 perfbench/service.py probe --work DIR [--refs FILE]
    python3 perfbench/service.py serve --work DIR --workload W --seed N \\
        --seconds T --trace 0|1

Both modes build the service the way ``repro serve --pool-size <nproc>``
does and print ``{"ready": ...}`` once it can take its first submission.
The harness (``run.py``) times that line from the moment it spawned the
process.  A probe then stops its service.  With ``--refs``, it then runs
the listed specs through ``run_job`` in-process and prints their
fingerprints.  ``serve`` waits for one ``{"refs": ...}`` line on stdin.
It then drives the closed loop, checks every output and prints
``{"result": ...}``.

``run.py`` starts it with the BLAS thread pin in the environment (so it
is set before numpy loads, and forked pool workers inherit it) and with
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import queue  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

from repro.search.cache import canonical_key  # noqa: E402
from repro.search.store import EvaluationStore  # noqa: E402
from repro.service import (  # noqa: E402
    AdmissionController,
    JobRegistry,
    JobSpec,
    JobState,
    Supervisor,
    run_job,
)
from repro.service.events import job_trace_path  # noqa: E402
from repro.synthetic import SyntheticFunction  # noqa: E402

import spans as spanlib  # noqa: E402
import workloads as wl  # noqa: E402

T_IMPORTED = time.perf_counter()

clock = time.perf_counter
#: The timed window opens a second into the pass: each worker's first
#: job pays one-off lazy initialisation.
WARMUP_S = 1.0
#: The window workloads report the median over this many equal parts of
#: the window: host stalls (steal bursts of several seconds) then move
#: one or two parts, not the figure.
SUBWINDOWS = 5
#: How long past the window the loop may run: waiting for the jobs
#: still running, and on methodology for its timed jobs.
TAIL_S = 60.0
TERMINAL = frozenset(JobState.TERMINAL)


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def start_service(work: str, pool_size: int, eval_store: str | None):
    """Build the service as ``_cmd_serve`` does, then start its pool.

    The pool forks lazily on the first lease; starting it here makes the
    fork part of set-up instead of the first job's latency.
    """
    t0 = clock()
    registry = JobRegistry(os.path.join(work, "registry"), fsync="always")
    t1 = clock()
    supervisor = Supervisor(
        registry,
        jobs_dir=os.path.join(work, "jobs"),
        admission=AdmissionController(max_queue=64),
        heartbeat_interval=0.25,
        max_missed=8,
        max_attempts=5,
        job_traces=True,
        pool_size=pool_size,
        eval_store=eval_store,
    )
    supervisor.install_signal_handlers()
    supervisor.recover()
    t2 = clock()
    supervisor.pool.start()
    parts = {
        "import_s": T_IMPORTED - T_START,
        "registry_open_ms": 1000.0 * (t1 - t0),
        "pool_start_ms": 1000.0 * (clock() - t2),
    }
    return supervisor, parts


def blas_info() -> str:
    import numpy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']} (numpy {numpy.__version__})"
    except (AttributeError, KeyError, TypeError):
        return f"unknown (numpy {numpy.__version__})"


# ----------------------------------------------------------------------
# /proc readers: peak RSS and CPU time of the supervisor and its workers


def _status_kb(pid, field: str) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def _cpu_s(pid) -> float:
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def worker_pids(supervisor) -> list[int]:
    return [s.pid for s in supervisor.pool.slots if s.pid is not None]


def cpu_snapshot(supervisor) -> float:
    return time.process_time() + sum(_cpu_s(p) for p in worker_pids(supervisor))


# ----------------------------------------------------------------------


class DoneHook:
    """Wraps ``JobRegistry.transition`` to timestamp terminal states.

    The timestamp is taken after the transition is durable in the WAL,
    which is when the service acknowledges the job as finished.  No
    client polling is involved.
    """

    def __init__(self):
        self.loop = None
        fn = JobRegistry.transition
        hook = self

        def transition(registry, job_id, state, **kwargs):
            rec = fn(registry, job_id, state, **kwargs)
            if state in TERMINAL and hook.loop is not None:
                hook.loop.finished(job_id, state, clock())
            return rec

        JobRegistry.transition = transition


class ClosedLoop:
    """``n_tenants`` tenants, each submitting its next job a think time
    after its previous one is terminal, driven from one submitter thread."""

    def __init__(self, supervisor, workload, seed, n_tenants, seconds, timed):
        self.supervisor = supervisor
        self.seconds = seconds
        self.streams = [wl.TenantStream(workload, seed, k) for k in range(n_tenants)]
        self.timed_per_tenant = timed
        #: Timed jobs not yet terminal, when the sample is picked by place
        #: in the stream: tenants then keep submitting until this is 0.
        self.timed_left = n_tenants * (self.timed_per_tenant or 0)
        self.jobs: dict[str, dict] = {}
        self.events: queue.Queue = queue.Queue()
        self.in_flight = 0
        self.timed_out = False
        self.error: str | None = None
        self.cpu0 = self.cpu1 = 0.0
        self.worker_rss_mb = self.supervisor_rss_mb = 0.0

    def finished(self, job_id, state, t) -> None:
        self.events.put((job_id, state, t))

    def _submit(self, tenant: int, item: wl.StreamJob) -> None:
        job = {"tenant": tenant, "index": item.index,
               "repeat_of": item.repeat_of, "state": None}
        self.jobs[item.key] = job
        self.in_flight += 1
        spec = JobSpec(kind=self.streams[tenant].kind, job_id=item.key,
                       tenant=f"tenant-{tenant}", params=item.params)
        job["t_submit"] = clock()
        self.supervisor.submit(spec)

    def drive(self) -> None:
        try:
            self.t_go = clock()
            self.w0 = self.t_go + WARMUP_S
            self.w1 = self.w0 + self.seconds
            self.cpu0 = cpu_snapshot(self.supervisor)
            due = []  # (submit time, tenant, job) after the think time
            for k, stream in enumerate(self.streams):
                item = stream.next()
                heapq.heappush(due, (self.t_go + item.think_s, k, item))
            deadline = self.w1 + TAIL_S
            while self.in_flight or due:
                while due and due[0][0] <= clock():
                    _, k, item = heapq.heappop(due)
                    self._submit(k, item)
                now = clock()
                if now >= deadline:
                    self.timed_out = True
                    break
                wake = min(due[0][0] if due else deadline, deadline)
                try:
                    job_id, state, t = self.events.get(timeout=max(wake - now, 1e-4))
                except queue.Empty:
                    continue
                job = self.jobs[job_id]
                job["state"], job["t_done"] = state, t
                self.in_flight -= 1
                if self.timed_per_tenant:
                    if job["index"] < self.timed_per_tenant:
                        self.timed_left -= 1
                    more = self.timed_left > 0
                else:
                    more = t < self.w1
                if more:
                    k = job["tenant"]
                    item = self.streams[k].next()
                    heapq.heappush(due, (t + item.think_s, k, item))
            # Before the drain closes the pool: its workers' peak RSS and
            # CPU time.
            self.cpu1 = cpu_snapshot(self.supervisor)
            self.worker_rss_mb = max(
                (_status_kb(p, "VmHWM") / 1024.0
                 for p in worker_pids(self.supervisor)), default=0.0,
            )
            self.supervisor_rss_mb = _status_kb("self", "VmHWM") / 1024.0
        except Exception:  # noqa: BLE001 - reported as a failed check
            self.error = traceback.format_exc()
        finally:
            self.supervisor.request_drain()


def run_pass(supervisor, hook, workload, seed, seconds, timed):
    """One closed-loop pass; returns the finished :class:`ClosedLoop`."""
    loop = ClosedLoop(
        supervisor, workload, seed, wl.tenants(workload, nproc()), seconds, timed
    )
    hook.loop = loop
    submitter = threading.Thread(target=loop.drive, name="bench-submitter")
    submitter.start()
    try:
        supervisor.run(max_seconds=WARMUP_S + seconds + TAIL_S + 30.0)
    finally:
        supervisor.request_drain()
        submitter.join()
        supervisor.close_pool()
        hook.loop = None
        supervisor.registry.compact()
        supervisor.registry.close()
    for key, job in loop.jobs.items():
        job["result"] = supervisor.registry.get(key).result
    return loop


def quantile(sorted_xs, q):
    if not sorted_xs:
        return 0.0  # no job finished: the run reports them all failed
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def fresh_evals(result) -> int:
    """Application runs the job paid for: Phase-1 runs plus search
    records, minus memoization and cross-job store hits."""
    memo = result.get("memo") or {}
    return (
        int(result.get("analysis_evaluations", 0))
        + sum(s["n_records"] for s in result["searches"])
        - int(memo.get("hits", 0))
        - int(memo.get("cross_job_hits", 0))
    )


def loop_metrics(loop) -> dict:
    """End-to-end figures of one pass.

    The timed sample is, on methodology, each tenant's first
    ``wl.timed_jobs`` jobs, and its throughput is the sum over tenants
    of those jobs over the time from the first one's submission to the
    last one's DONE.  Elsewhere it is the jobs that reached DONE inside
    the window (all DONE jobs when the window holds none); throughput
    and p50 are then medians over the window's ``SUBWINDOWS`` parts.  A
    part's throughput counts every job pro rata: the share of its
    submit -> DONE interval that lies inside the part.  That removes the
    +-1 job edge effect of counting whole jobs.  ``job_p90_s``, over the
    whole window, is given only when at least ten samples lie beyond it.
    """
    done = [j for j in loop.jobs.values() if j["state"] == JobState.DONE]
    k_timed = loop.timed_per_tenant
    if k_timed:
        timed = [j for j in done if j["index"] < k_timed]
        by_tenant = {}
        for j in timed:
            by_tenant.setdefault(j["tenant"], []).append(j)
        jobs_per_s = sum(
            len(js) / (max(j["t_done"] for j in js) - min(j["t_submit"] for j in js))
            for js in by_tenant.values()
        )
        lat = sorted(j["t_done"] - j["t_submit"] for j in timed)
        p50 = quantile(lat, 0.5)
        rates = p50s = None
    else:
        timed = [j for j in done if loop.w0 <= j["t_done"] <= loop.w1] or done
        lat = sorted(j["t_done"] - j["t_submit"] for j in timed)
        width = loop.seconds / SUBWINDOWS
        rates, p50s = [], []
        for i in range(SUBWINDOWS):
            a = loop.w0 + i * width
            b = a + width
            rates.append(sum(
                max(0.0, min(j["t_done"], b) - max(j["t_submit"], a))
                / (j["t_done"] - j["t_submit"])
                for j in done
            ) / width)
            part = sorted(j["t_done"] - j["t_submit"] for j in timed
                          if a <= j["t_done"] < b)
            if part:
                p50s.append(quantile(part, 0.5))
        jobs_per_s = statistics.median(rates)
        p50 = statistics.median(p50s) if p50s else quantile(lat, 0.5)
    p90 = quantile(lat, 0.9)
    beyond_p90 = sum(1 for x in lat if x > p90)
    return {
        "jobs_per_s": jobs_per_s,
        "job_p50_s": p50,
        "job_p90_s": p90 if beyond_p90 >= 10 else None,
        "beyond_p90": beyond_p90,
        "job_p50_all_s": quantile(
            sorted(j["t_done"] - j["t_submit"] for j in done), 0.5
        ),
        "fresh_evals_per_job": (
            sum(fresh_evals(j["result"]) for j in timed) / max(len(timed), 1)
        ),
        "latency_samples": len(lat),
        "parts": {"jobs_per_s": rates, "job_p50_s": p50s},
        "cpu_s_per_job": (loop.cpu1 - loop.cpu0) / max(len(done), 1),
    }


def check_pass(loop, workload, refs, store_path) -> list[str]:
    """Output checks; returns one message per violation."""
    problems = []
    if loop.error is not None:
        problems.append(f"submitter failed: {loop.error}")
    if loop.timed_out:
        problems.append("jobs still running after the tail limit")
    misses = 0
    for key, job in loop.jobs.items():
        if job["state"] != JobState.DONE:
            continue  # counted as failed
        result = job["result"]
        memo = result.get("memo") or {}
        misses += int(memo.get("misses", 0))
        if key in refs and result["fingerprint"] != refs[key]:
            problems.append(f"{key}: fingerprint differs from in-process run_job")
        if workload == "methodology":
            want = 1 + wl.METHODOLOGY_VARIATIONS * SyntheticFunction.N_DIM
            if result.get("analysis_evaluations") != want:
                problems.append(
                    f"{key}: analysis_evaluations "
                    f"{result.get('analysis_evaluations')} != 1 + V*d = {want}"
                )
        elif any(s["n_records"] != wl.CAMPAIGN_BUDGET for s in result["searches"]):
            problems.append(f"{key}: search records != budget {wl.CAMPAIGN_BUDGET}")
        if job["repeat_of"] is not None:
            first = loop.jobs[job["repeat_of"]]
            if first["state"] != JobState.DONE:
                problems.append(f"{key}: repeats {job['repeat_of']}, which did "
                                "not reach DONE; not compared")
                continue
            if memo.get("misses") != 0:
                problems.append(f"{key}: repeat paid {memo.get('misses')} misses")
            if result["fingerprint"] != first["result"]["fingerprint"]:
                problems.append(f"{key}: repeat fingerprint differs from {job['repeat_of']}")
    if store_path is not None:
        with open(store_path) as f:
            grown = sum(1 for _ in f) - 1 - wl.STORE_PREFILL  # minus header
        if grown != misses:
            problems.append(f"store grew by {grown} records, jobs missed {misses}")
    return problems


def write_prefill(path: str, seed: int) -> None:
    """The store-reuse input: evaluations of spaces no job uses, written
    through the store's own API (unsynced: it is input, not a result)."""
    store = EvaluationStore(path, fsync=False)
    try:
        for space, config, value, provenance in wl.prefill_records(seed):
            store.record(space, canonical_key(config), value,
                         provenance=provenance)
    finally:
        store.close()


# ----------------------------------------------------------------------


def probe(args) -> int:
    supervisor, parts = start_service(os.path.join(args.work, "probe"), nproc(), None)
    emit({"ready": parts})
    supervisor.close_pool()
    supervisor.registry.close()
    if args.refs:
        with open(args.refs) as f:
            specs = json.load(f)
        fingerprints = {}
        for key, kind, params in specs:
            result = run_job(JobSpec(kind=kind, job_id=key, params=params),
                             os.path.join(args.work, "reference", key))
            fingerprints[key] = result["fingerprint"]
        emit({"refs": fingerprints})
    return 0


def serve(args) -> int:
    workload, seed = args.workload, args.seed
    store_reuse = workload == "store-reuse"

    def pass_dirs(name):
        work = os.path.join(args.work, name)
        os.makedirs(work, exist_ok=True)
        return work, os.path.join(work, "store.jsonl") if store_reuse else None

    work_u, store_u = pass_dirs("untraced")
    supervisor, parts = start_service(work_u, nproc(), store_u)
    emit({"ready": {**parts, "blas": blas_info()}})
    hook = DoneHook()
    if store_u:
        write_prefill(store_u, seed)
    refs = json.loads(sys.stdin.readline())["refs"]

    # A traced run makes two passes, each of about half the work of an
    # untraced one.
    seconds, timed = args.seconds, wl.timed_jobs(workload)
    if args.trace:
        seconds, timed = seconds / 2.0, timed and (timed + 1) // 2
    loop_u = run_pass(supervisor, hook, workload, seed, seconds, timed)
    passes = [(loop_u, store_u)]
    m_u = loop_metrics(loop_u)
    out = {"untraced": m_u}
    if not args.trace:
        out["peak_rss_mb"] = max(loop_u.supervisor_rss_mb, loop_u.worker_rss_mb)
    else:
        # The traced pass: wrappers first, so the new pool inherits them.
        work_r, store_r = pass_dirs("traced")
        spans_dir = os.path.join(work_r, "spans")
        os.makedirs(spans_dir)
        rec = spanlib.SpanRecorder(spans_dir)
        spanlib.install(rec)
        supervisor_r, _ = start_service(work_r, nproc(), store_r)
        if store_r:
            write_prefill(store_r, seed)
        loop_r = run_pass(supervisor_r, hook, workload, seed, seconds, timed)
        passes.append((loop_r, store_r))
        m_r = loop_metrics(loop_r)
        jobs = {}
        trace_bytes = {}
        for key, job in loop_r.jobs.items():
            if job["state"] != JobState.DONE:
                continue
            jobs[key] = {"latency": job["t_done"] - job["t_submit"],
                         "t_done": job["t_done"], "result": job["result"]}
            path = job_trace_path(os.path.join(work_r, "jobs", key))
            trace_bytes[key] = os.path.getsize(path) if os.path.exists(path) else 0
        layers, trace_problems = spanlib.layer_metrics(
            rec.spans + rec.load_worker_spans(), jobs, (loop_r.w0, loop_r.w1),
            nproc(), supervisor_r.pool.respawns, trace_bytes,
        )
        out["layers"] = layers
        out["traced"] = m_r
        out["proc"] = {
            "cpu_s_per_job": m_u["cpu_s_per_job"],
            "supervisor_rss_mb": loop_u.supervisor_rss_mb,
            "worker_rss_mb": loop_u.worker_rss_mb,
        }
    problems = []
    attempted = failed = 0
    for loop, store in passes:
        attempted += len(loop.jobs)
        failed += sum(1 for j in loop.jobs.values() if j["state"] != JobState.DONE)
        problems += check_pass(loop, workload, refs, store)
    if args.trace:
        problems += trace_problems
    out.update(attempted=attempted, failed=failed, problems=problems)
    emit({"result": out})
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--work", required=True)
    p.add_argument("--refs", default=None)
    s = sub.add_parser("serve")
    s.add_argument("--work", required=True)
    s.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--seconds", type=float, required=True)
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return probe(args) if args.mode == "probe" else serve(args)


if __name__ == "__main__":
    sys.exit(main())
