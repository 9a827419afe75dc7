"""Benchmark of the cheshire command line, run from the root of a checkout.

    python3 perfbench/run.py --workload cli-short --seed 1 --seconds 30 --trace 0

Each job of the workload's seeded stream runs as a fresh process, one at a
time (a closed loop with one client), with CHESHIRE_THREADS=2 and BLAS and
OpenMP pinned to one thread.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` replays the workload's first deck of jobs in-process with
spans around the library calls and prints the per-layer metrics instead
(see layers.py).  The last line of stdout is one JSON result object; the
line before it records the run environment and the job counts.
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
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")

PINNED_ENV = {
    "CHESHIRE_THREADS": "2",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 150.0


def job_env() -> dict[str, str]:
    return dict(os.environ, **PINNED_ENV, PYTHONPATH=SRC)


def run_child(argv: list[str], stdout_path: str, timeout: float = JOB_TIMEOUT_S):
    """Run one process; return (wall seconds, exit code, peak RSS in MB).

    The peak RSS is this child's own, from wait4: RUSAGE_CHILDREN would be
    the running maximum over every child so far.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=subprocess.PIPE,
                                env=job_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            watchdog.cancel()
            watchdog.join()
            proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 and stderr:
        sys.stderr.write(stderr.decode(errors="replace"))
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup() -> float:
    """Median time from starting an interpreter until `import cheshire` returns."""
    probe = "import cheshire, time; print(repr(time.monotonic())); print(cheshire.__file__)"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=job_env(), cwd=ROOT, timeout=JOB_TIMEOUT_S, check=True)
        stamp, path = done.stdout.split()
        if not os.path.abspath(path).startswith(SRC + os.sep):
            raise RuntimeError(f"imported cheshire from {path}, not from {SRC}")
        times.append(float(stamp) - start)
    return statistics.median(times)


def mix_quantile(records, shares, q: float) -> float:
    """q-quantile of job wall time over the workload's declared mix.

    Each job weighs its kind's share divided by how many jobs of that kind
    ran, so where a run's time limit cut the last deck does not shift the
    quantile between kinds.
    """
    counts = {kind: sum(r["kind"] == kind for r in records) for kind in shares}
    weighted = sorted((r["wall_s"], shares[r["kind"]] / counts[r["kind"]]) for r in records)
    total = sum(w for _, w in weighted)
    reached = 0.0
    for wall, w in weighted:
        reached += w
        if reached >= q * total * (1.0 - 1e-12):
            return wall
    return weighted[-1][0]


def mix_mean(records, shares) -> float:
    total = sum(shares.values())
    return sum(
        shares[kind] / total * statistics.fmean(r["wall_s"] for r in records if r["kind"] == kind)
        for kind in shares
    )


def run_workload(workload: str, seed: int, seconds: float):
    """Closed loop over the workload's jobs for `seconds`, never ending
    before the first deck (every kind once) is complete."""
    import jobs

    shares = jobs.WORKLOADS[workload]
    deck = sum(shares.values())
    records = []
    start = time.monotonic()
    for i, job in enumerate(jobs.job_stream(workload, seed, WORKDIR)):
        if i >= deck and time.monotonic() - start >= seconds:
            break
        out_path = os.path.join(WORKDIR, f"job{i:05d}.out")
        wall, code, rss_mb = run_child(job.argv, out_path)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            error = jobs.check(job, code, fh.read())
        if error:
            print(f"job {i} ({job.kind}) failed: {error}", file=sys.stderr)
        records.append({"kind": job.kind, "wall_s": wall, "rss_mb": rss_mb,
                        "trials": job.params.get("trials", 0), "error": error})

    correct = [r for r in records if r["error"] is None]
    metrics = {
        "setup_s": (measure_setup(), "s"),
        "job_p50_s": (mix_quantile(records, shares, 0.5), "s"),
        "jobs_per_s": (len(correct) / len(records) / mix_mean(records, shares), "1/s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
    }
    by_kind = {}
    for kind in shares:
        walls = [r["wall_s"] for r in records if r["kind"] == kind]
        by_kind[kind] = {"jobs": len(walls), "min_s": min(walls),
                         "median_s": statistics.median(walls), "max_s": max(walls)}
    trials = sum(r["trials"] for r in correct)
    info = {"jobs": len(records), "by_kind": by_kind,
            "failed_frac": (len(records) - len(correct)) / len(records)}
    if trials:
        info["mc_trials_per_s"] = trials / sum(r["wall_s"] for r in correct if r["trials"])
    return metrics, len(records), len(records) - len(correct), info


def environment(workload: str, seed: int) -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": PINNED_ENV,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="cli-short, mc-large or mc-small")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cheshire", "__init__.py")):
        print(f"error: no cheshire sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.update(PINNED_ENV)
    import jobs

    if args.workload not in jobs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(jobs.WORKLOADS)}")

    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        if args.trace:
            import layers

            metrics, attempted, failed, info = layers.traced_run(args.workload, args.seed, WORKDIR)
        else:
            metrics, attempted, failed, info = run_workload(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    print(json.dumps({"env": environment(args.workload, args.seed), **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
