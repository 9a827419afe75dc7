"""Traced run: per-layer metrics for one workload.

The run replays one job of each kind from the workload's first deck
in-process three times: plain, with spans around the library's public
functions, and plain again.  The traced pass's wall time minus the mean of
the plain ones is the tracing overhead.  Then it runs a fixed set of layer
probes, with the spans still on, on the first pure config of that deck: the
sweep rows at one and two threads, the state search, the sampler at n=1
(its setup) and at PROBE_TRIALS at one and two threads (its marginal
throughput), and the trial-CSV writer.  The probes run on every workload,
so every layer has a figure everywhere; span totals cover replay and probes.
The import profile comes from ``python -X importtime``.

Spans are kept in memory and summed when the run ends.  They sit in the
benchmark's own code, around the calls into each layer, by replacing each
traced function in every namespace that holds it for the length of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import math
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc

import numpy as np

import jobs
from run import ROOT, job_env

# span name -> (module, function)
TRACED = {
    "config.load_config": ("cheshire.config", "load_config"),
    "indicator.cheshire_analytic": ("cheshire.indicator", "cheshire_analytic"),
    "indicator.optimize_states": ("cheshire.indicator", "optimize_states"),
    "indicator.moment_decomposition": ("cheshire.indicator", "moment_decomposition"),
    "entanglement.meter_negativity": ("cheshire.entanglement", "meter_negativity"),
    "cli.sweep_rows": ("cheshire.cli", "sweep_rows"),
    "dynamics.classical_mixture_density": ("cheshire.dynamics", "classical_mixture_density"),
    "sampler.sample_trials": ("cheshire.sampler", "sample_trials"),
    "sampler.estimate_cheshire": ("cheshire.sampler", "estimate_cheshire"),
    "sampler.write_trials_csv": ("cheshire.sampler", "write_trials_csv"),
}

PROBE_TRIALS = 1 << 22
CSV_PROBE_ROWS = 100_000
SWEEP_PROBE = (0.0, 8.0, jobs.SWEEP_STEPS)
IMPORT_REPEATS = 3
SETUP_REPEATS = 3
F64_BYTES = 8


class Spans:
    """In-memory spans (name, phase, seconds) and counters (name, phase)."""

    def __init__(self):
        self.phase = "replay"
        self.spans: list[tuple[str, str, float]] = []
        self.counts: dict[tuple[str, str], float] = {}
        self.heap_peak = 0
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            key = (name, self.phase)
            self.counts[key] = self.counts.get(key, 0) + amount

    def busy(self, name: str, phase: str | None = None) -> float:
        return math.fsum(s for n, p, s in self.spans if n == name and phase in (None, p))

    def calls(self, name: str, phase: str | None = None) -> int:
        return sum(1 for n, p, _ in self.spans if n == name and phase in (None, p))

    def counted(self, name: str, phase: str | None = None) -> float:
        return sum(v for (n, p), v in self.counts.items() if n == name and phase in (None, p))

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            # tracemalloc costs under 1 % of a sampler call, whose memory is numpy's
            heap = name == "sampler.sample_trials"
            if heap:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((name, self.phase, time.perf_counter() - start))
                if heap:
                    self.heap_peak = max(self.heap_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

        return traced

    @contextlib.contextmanager
    def installed(self, extra_modules=()):
        """Replace every traced function, wherever it was imported to."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "cheshire" or name.startswith("cheshire.")]
        namespaces.extend(extra_modules)
        patches = []
        for name, (module_name, attr) in TRACED.items():
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, value))
                        setattr(module, key, wrapper)
        spans = self

        class CountingGenerator(np.random.Generator):
            """One per sampler batch: each batch draws from its own stream."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spans.count("sampler.batches")

        patches.append((np.random, "Generator", np.random.Generator))
        np.random.Generator = CountingGenerator
        sampler = sys.modules["cheshire.sampler"]
        table_class = getattr(sampler, "GridSampler2D", None)
        if table_class is not None:
            class CountingTable(table_class):
                def __init__(self, density, grid_a, grid_b):
                    super().__init__(density, grid_a, grid_b)
                    # the flattened conditional CDF: one float64 per grid cell
                    cells = (grid_a.n_points - 1) * (grid_b.n_points - 1)
                    spans.count("sampler.table_bytes", cells * F64_BYTES)

            patches.append((sampler, "GridSampler2D", table_class))
            sampler.GridSampler2D = CountingTable
        try:
            yield
        finally:
            for module, key, value in reversed(patches):
                setattr(module, key, value)


def _load_script(relpath: str):
    spec = importlib.util.spec_from_file_location("perfbench_script", os.path.join(ROOT, relpath))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_in_process(job: jobs.Job, noise_study) -> tuple[int, str]:
    from cheshire import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if job.argv[:2] == list(jobs.CLI):
                code = cli.main(job.argv[2:])
            else:
                code = noise_study.main(job.argv[1:])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails this job, as a traceback and exit 1 would
        traceback.print_exc()
        code = 1
    return code, out.getvalue()


def _replay(replay, noise_study) -> tuple[float, list[str]]:
    wall = 0.0
    errors = []
    for job in replay:
        start = time.perf_counter()
        code, stdout = _run_in_process(job, noise_study)
        wall += time.perf_counter() - start
        error = jobs.check(job, code, stdout)
        if error:
            errors.append(f"{job.kind}: {error}")
    return wall, errors


def import_profile() -> tuple[float, float]:
    """Median (cumulative `import cheshire`, self time of scipy modules), s."""
    totals, scipy = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cheshire"],
                              capture_output=True, text=True, env=job_env(), cwd=ROOT,
                              timeout=120, check=True)
        total = scipy_us = 0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue
            name = module.strip()
            if name == "cheshire":
                total = int(cumulative_us)
            if name == "scipy" or name.startswith("scipy."):
                scipy_us += int(self_us)
        totals.append(total / 1e6)
        scipy.append(scipy_us / 1e6)
    return statistics.median(totals), statistics.median(scipy)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


@contextlib.contextmanager
def _threads(count: int):
    previous = os.environ["CHESHIRE_THREADS"]
    os.environ["CHESHIRE_THREADS"] = str(count)
    try:
        yield
    finally:
        os.environ["CHESHIRE_THREADS"] = previous


def _probe(spans: Spans, config_path: str, workdir: str) -> dict:
    from cheshire import cli, config, indicator, sampler

    spans.phase = "probe"
    cfg = config.load_config(config_path)
    amps, weights = cfg.amplitudes(), cfg.weights()
    args = (amps, weights, cfg.g_a, cfg.g_b)
    noise = sampler.NoiseModel(cfg.noise_a, cfg.noise_b)
    out = {}
    for threads in (1, 2):
        with _threads(threads):
            out[f"sweep_t{threads}"], _ = _timed(cli.sweep_rows, cfg, *SWEEP_PROBE)
    indicator.optimize_states(cfg.g_a, cfg.g_b, seed=cfg.seed)

    spans.phase = "setup"
    out["setup"] = statistics.median(
        _timed(sampler.sample_trials, *args, n=1, seed=cfg.seed, noise=noise)[0]
        for _ in range(SETUP_REPEATS)
    )
    spans.phase = "probe"
    for threads in (1, 2):
        with _threads(threads):
            wall, trials = _timed(sampler.sample_trials, *args, n=PROBE_TRIALS, seed=cfg.seed,
                                  noise=noise)
        out[f"tps_t{threads}"] = PROBE_TRIALS / (wall - out["setup"])
    sampler.estimate_cheshire(trials)
    path = os.path.join(workdir, "probe.trials.csv")
    head = slice(0, CSV_PROBE_ROWS)
    sampler.write_trials_csv(type(trials)(trials.tau[head], trials.x[head], trials.y[head]), path)
    out["csv_bytes"] = os.path.getsize(path)
    os.remove(path)
    return out


def traced_run(workload: str, seed: int, workdir: str):
    """Per-layer metrics; returns (metrics, attempted, failed, info)."""
    stream = jobs.job_stream(workload, seed, workdir)
    deck = [next(stream) for _ in range(sum(jobs.WORKLOADS[workload].values()))]
    first_of_kind = {}
    for job in deck:
        first_of_kind.setdefault(job.kind, job)
    replay = list(first_of_kind.values())
    probe_config = next(j.config for j in deck if j.config and j.kind != "analytic-povm")
    noise_study = _load_script(jobs.NOISE_STUDY)

    import_total, import_scipy = import_profile()
    # plain passes before and after the traced one, so warm-up lands on neither side
    plain_before, errors = _replay(replay, noise_study)
    spans = Spans()
    with spans.installed([noise_study]):
        traced_s, traced_errors = _replay(replay, noise_study)
        probe = _probe(spans, probe_config, workdir)
    plain_after, plain_errors = _replay(replay, noise_study)
    errors += traced_errors + plain_errors
    plain_s = 0.5 * (plain_before + plain_after)
    for error in errors:
        print(f"replay failed: {error}", file=sys.stderr)

    metrics = {
        "import.total_s": (import_total, "s"),
        "import.scipy_s": (import_scipy, "s"),
        "config.load_s": (spans.busy("config.load_config"), "s"),
    }
    for name in ("indicator.cheshire_analytic", "indicator.moment_decomposition",
                 "entanglement.meter_negativity"):
        metrics[f"{name}.calls"] = (spans.calls(name), "count")
        metrics[f"{name}.busy_s"] = (spans.busy(name), "s")
    metrics.update({
        "indicator.optimize_states.busy_s": (spans.busy("indicator.optimize_states"), "s"),
        "cli.sweep_rows.threads1_s": (probe["sweep_t1"], "s"),
        "cli.sweep_rows.threads2_s": (probe["sweep_t2"], "s"),
        "cli.sweep_rows.pool_overhead_s": (probe["sweep_t2"] - probe["sweep_t1"], "s"),
        "dynamics.classical_mixture_density.busy_s":
            (spans.busy("dynamics.classical_mixture_density"), "s"),
        "sampler.setup_s": (probe["setup"], "s"),
        "sampler.setups_per_job": (spans.calls("sampler.sample_trials", "replay") / len(replay), "count"),
        "sampler.trials_per_s.threads1": (probe["tps_t1"], "1/s"),
        "sampler.trials_per_s.threads2": (probe["tps_t2"], "1/s"),
        "sampler.parallel_efficiency": (probe["tps_t2"] / (2.0 * probe["tps_t1"]), "ratio"),
        "sampler.batches": (spans.counted("sampler.batches"), "count"),
        "sampler.peak_heap_mb": (spans.heap_peak / 2 ** 20, "MB"),
        "sampler.table_bytes": (spans.counted("sampler.table_bytes", "setup") / SETUP_REPEATS, "B"),
        "sampler.estimate.busy_s": (spans.busy("sampler.estimate_cheshire"), "s"),
        "sampler.csv.write_s": (spans.busy("sampler.write_trials_csv"), "s"),
        "sampler.csv.bytes": (probe["csv_bytes"], "B"),
        "trace.replay_s": (plain_s, "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
    })
    info = {"replay_kinds": list(first_of_kind), "probe_trials": PROBE_TRIALS}
    return metrics, 3 * len(replay), len(errors), info
