"""Service benchmark: closed-loop tenants against ``repro serve``'s stack.

    python3 perfbench/run.py --workload {svc-tiny,methodology,store-reuse}
        --seed N --seconds T --trace {0,1}

Run from the repository root.  The last stdout line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` they are the per-layer ones, taken from a traced pass
that follows an untraced pass of the same workload.  The lines above the
result record the machine (nproc, BLAS build, BLAS thread pin, Python)
and the host (steal seconds, calibration loop time, fsync latency) for
this run.  Exits non-zero, without a result line, when the package
sources are missing or a process fails.  It also exits non-zero, after
the result line, when an output check fails.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
clock = time.perf_counter
#: Wall-clock cap for one invocation, inside the 180 s a run may take.
DEADLINE_S = 170.0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class ChildError(RuntimeError):
    pass


class Child:
    """A service-side process whose stdout JSON lines are timestamped on
    arrival (the ``ready`` line's arrival ends its set-up time)."""

    def __init__(self, args, env, deadline):
        self.deadline = deadline
        self.lines: dict[str, tuple[float, object]] = {}
        self._cond = threading.Condition()
        self.spawned = clock()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "service.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=ROOT,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for raw in self.proc.stdout:
            t = clock()
            try:
                msg = json.loads(raw)
            except ValueError:
                continue
            if isinstance(msg, dict) and len(msg) == 1:
                (key, value), = msg.items()
                with self._cond:
                    self.lines[key] = (t, value)
                    self._cond.notify_all()
        with self._cond:
            self.lines.setdefault("eof", (clock(), None))
            self._cond.notify_all()

    def wait_line(self, key):
        with self._cond:
            while key not in self.lines:
                if "eof" in self.lines:
                    raise ChildError(f"service.py exited before {key!r}")
                left = self.deadline - clock()
                if left <= 0:
                    raise ChildError(f"timed out waiting for {key!r}")
                self._cond.wait(left)
            return self.lines[key]

    def setup_s(self) -> float:
        return self.wait_line("ready")[0] - self.spawned

    def send(self, payload):
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()

    def finish(self):
        """Wait for a clean exit."""
        self.wait_line("eof")
        code = self.proc.wait(timeout=max(1.0, self.deadline - clock()))
        if code != 0:
            raise ChildError(f"service.py exited with {code}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def steal_s() -> float:
    """Steal time of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    t = clock()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return clock() - t


def fsync_ms(work: str) -> float:
    """Median time of a 100-byte append plus fsync in the work directory:
    the storage's current speed, which every WAL and checkpoint write
    of the service waits for."""
    path = os.path.join(work, "fsync-probe")
    times = []
    with open(path, "ab") as f:
        for _ in range(50):
            t = clock()
            f.write(b"x" * 99 + b"\n")
            f.flush()
            os.fsync(f.fileno())
            times.append(clock() - t)
    os.unlink(path)
    return 1000.0 * statistics.median(times)


def ensure_bytecode(env) -> None:
    """Compile the package once per checkout, so no timed set-up pays
    for compiling it."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro", "__pycache__")):
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src/repro"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )


def run(args, env, work, deadline):
    nproc = len(os.sched_getaffinity(0))
    refs_file = os.path.join(work, "refs.json")
    with open(refs_file, "w") as f:
        json.dump(wl.reference_sample(args.workload, args.seed, nproc), f)
    serve_args = [
        "serve", "--work", os.path.join(work, "serve"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    children = []
    setups = []

    def probe(name):
        child = Child(["probe", "--work", os.path.join(work, name)], env, deadline)
        children.append(child)
        setups.append(child.setup_s())
        child.finish()

    try:
        # Set-up is timed five times per untraced run (twice per traced
        # run), each time alone on an otherwise idle machine: probe B;
        # probe A, which goes on to the reference runs; the service, once
        # probe A has exited; and probes C and D after the service has
        # exited.  Host speed drifts within a run, so the samples are
        # spread over it.
        if not args.trace:
            probe("b")
        probe_a = Child(["probe", "--work", os.path.join(work, "a"),
                         "--refs", refs_file], env, deadline)
        children.append(probe_a)
        setups.append(probe_a.setup_s())
        refs = probe_a.wait_line("refs")[1]
        probe_a.finish()
        service = Child(serve_args, env, deadline)
        children.append(service)
        setups.append(service.setup_s())
        service.send({"refs": refs})
        result = service.wait_line("result")[1]
        service.finish()
        if not args.trace:
            probe("c")
            probe("d")
        return result, setups, service.wait_line("ready")[1]
    finally:
        for child in children:
            child.stop()


def end_to_end(result, setups):
    u = result["untraced"]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": u["jobs_per_s"],
        "job_p50_s": u["job_p50_s"],
        "fresh_evals_per_job": u["fresh_evals_per_job"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def change_pct(new, old):
    return 100.0 * (new / old - 1.0) if old else 0.0


def per_layer(result, ready):
    u, r = result["untraced"], result["traced"]
    return {
        **result["layers"],
        "setup.import_s": ready["import_s"],
        "setup.registry_open_ms": ready["registry_open_ms"],
        "setup.pool_start_ms": ready["pool_start_ms"],
        "proc.cpu_s_per_job": result["proc"]["cpu_s_per_job"],
        "proc.supervisor_rss_mb": result["proc"]["supervisor_rss_mb"],
        "proc.worker_rss_mb": result["proc"]["worker_rss_mb"],
        "trace.overhead_p50_pct": change_pct(r["job_p50_all_s"], u["job_p50_all_s"]),
        "trace.overhead_jobs_per_s_pct": -change_pct(r["jobs_per_s"], u["jobs_per_s"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = clock() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    env = {**os.environ, **BLAS_PIN,
           "PYTHONPATH": os.path.join(ROOT, "src")}
    ensure_bytecode(env)
    work = os.path.join(HERE, ".work",
                        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    fsync0, steal0, calib0 = fsync_ms(work), steal_s(), calibrate()
    try:
        result, setups, ready = run(args, env, work, deadline)
    except (ChildError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    steal1, calib1, fsync1 = steal_s(), calibrate(), fsync_ms(work)
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"machine": {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas": ready["blas"],
        "blas_threads_pinned": BLAS_PIN,
    }}))
    print(json.dumps({"host": {
        "steal_s": round(steal1 - steal0, 3),
        "calibration_s": [round(calib0, 4), round(calib1, 4)],
        "fsync_ms": [round(fsync0, 4), round(fsync1, 4)],
        "setup_samples_s": [round(s, 4) for s in setups],
    }}))
    u = result["untraced"]
    detail = {"latency_samples": u["latency_samples"],
              "problems": result["problems"]}
    if u["parts"]["jobs_per_s"] is not None:
        detail["parts"] = u["parts"]
    if u["job_p90_s"] is not None:
        # Only where ten or more samples lie beyond it; not a gated metric.
        detail.update(job_p90_s=u["job_p90_s"], beyond_p90=u["beyond_p90"])
    if args.trace:
        detail["traced_latency_samples"] = result["traced"]["latency_samples"]
    print(json.dumps({"detail": detail}))

    values = per_layer(result, ready) if args.trace else end_to_end(result, setups)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = json.load(f)["per_layer" if args.trace else "end_to_end"]
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
