"""Seeded job streams for the benchmark workloads, and the checks that
decide whether a job's output is correct.

A workload is a mix of job kinds.  The stream deals the mix out in decks:
each deck holds every kind as often as the mix says, in an order shuffled
from the seed, and every job draws its own parameters from the same seeded
generator.  The program only sees the config files written here and the
command-line flags.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from cheshire.config import load_config
from cheshire.dynamics import BranchWeights
from cheshire.indicator import cheshire_analytic
from cheshire.qsystem import PhotonKet, transition_amplitudes
from cheshire.sampler import NoiseModel, trial_variance

CLI = ("-m", "cheshire.cli")
NOISE_STUDY = "scripts/noise_study.py"

MC_LARGE_TRIALS = 10_000_000
MC_SMALL_TRIALS = 100_000
SWEEP_STEPS = 161
NOISE_LEVELS = 9
NOISE_TRIALS = 20_000
DETECTION_Z = 5.0

# kind -> jobs per deck; a workload's mix is fixed, only the order and the
# parameters come from the seed
WORKLOADS = {
    "cli-short": {
        "analytic-pure": 2,
        "analytic-povm": 2,
        "optimize-config": 1,
        "optimize-states": 1,
        "sweep": 1,
    },
    "mc-large": {"mc-large": 1},
    "mc-small": {"noise-table": 1, "mc-dump": 6},
}

ANALYTIC_TOL = 1e-12
COUPLING_OPT_TOL = 1e-6
OPTIMUM_TOL = 1e-9
DUMP_MEAN_TOL = 1e-12


@dataclass
class Job:
    kind: str
    argv: list[str]
    config: str | None = None
    dump: str | None = None
    params: dict = field(default_factory=dict)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _random_ket(rng) -> np.ndarray:
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return z / np.linalg.norm(z)


def _random_effect(rng) -> np.ndarray:
    """A POVM element 0 < E < 1 with a random eigenbasis."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    eigenvalues = rng.uniform(0.05, 0.95, 4)
    e = (q * eigenvalues) @ q.conj().T
    return 0.5 * (e + e.conj().T)


def _config_text(rng, *, effect: bool, g_range, noise_max: float = 0.0) -> str:
    lines = ["prep = " + ", ".join(_complex(z) for z in _random_ket(rng))]
    if effect:
        lines.append("post_effect = " + ", ".join(_complex(z) for z in _random_effect(rng).ravel()))
    else:
        lines.append("post = " + ", ".join(_complex(z) for z in _random_ket(rng)))
    lines.append(f"g_a = {_fmt(rng.uniform(*g_range))}")
    lines.append(f"g_b = {_fmt(rng.uniform(*g_range))}")
    if noise_max > 0.0:
        lines.append(f"noise_a = {_fmt(rng.uniform(0.0, noise_max))}")
        lines.append(f"noise_b = {_fmt(rng.uniform(0.0, noise_max))}")
    lines.append(f"seed = {int(rng.integers(2 ** 32))}")
    return "\n".join(lines) + "\n"


def _make_job(kind: str, rng, workdir: str, index: int) -> Job:
    cfg = os.path.join(workdir, f"job{index:05d}.cfg")

    def with_config(text: str, *args: str, **extra) -> Job:
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        return Job(kind, [*CLI, *args, "--config", cfg], config=cfg, **extra)

    if kind == "analytic-pure":
        return with_config(_config_text(rng, effect=False, g_range=(0.0, 6.0)), "analytic")
    if kind == "analytic-povm":
        return with_config(_config_text(rng, effect=True, g_range=(0.0, 6.0)), "analytic")
    if kind == "optimize-config":
        return with_config(_config_text(rng, effect=False, g_range=(0.0, 6.0)), "optimize")
    if kind == "sweep":
        return with_config(_config_text(rng, effect=False, g_range=(0.0, 6.0)),
                           "sweep", "--steps", str(SWEEP_STEPS))
    if kind == "optimize-states":
        g_a, g_b = (float(v) for v in rng.uniform(0.5, 4.0, 2))
        seed = int(rng.integers(2 ** 32))
        return Job(kind, [*CLI, "optimize", "--g-a", _fmt(g_a), "--g-b", _fmt(g_b),
                          "--seed", str(seed)], params={"g_a": g_a, "g_b": g_b})
    if kind == "mc-large":
        text = _config_text(rng, effect=False, g_range=(0.5, 4.0), noise_max=1.0)
        return with_config(text, "montecarlo", "--trials", str(MC_LARGE_TRIALS),
                           params={"trials": MC_LARGE_TRIALS})
    if kind == "mc-dump":
        text = _config_text(rng, effect=False, g_range=(0.5, 4.0), noise_max=1.0)
        dump = os.path.join(workdir, f"job{index:05d}.trials.csv")
        return with_config(text, "montecarlo", "--trials", str(MC_SMALL_TRIALS),
                           "--dump-trials", dump, dump=dump, params={"trials": MC_SMALL_TRIALS})
    if kind == "noise-table":
        g = float(rng.uniform(1.0, 3.0))
        nu_max = float(rng.uniform(2.0, 4.0))
        seed = int(rng.integers(2 ** 32))
        argv = [NOISE_STUDY, "--levels", str(NOISE_LEVELS), "--trials", str(NOISE_TRIALS),
                "--g", _fmt(g), "--nu-max", _fmt(nu_max), "--seed", str(seed)]
        return Job(kind, argv, params={"g": g, "nu_max": nu_max,
                                       "trials": NOISE_LEVELS * NOISE_TRIALS})
    raise ValueError(f"unknown job kind {kind!r}")


def job_stream(workload: str, seed: int, workdir: str):
    """Endless seeded stream of jobs, one shuffled deck of the mix at a time.

    Config files are written into ``workdir`` as each job is drawn.
    """
    mix = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    deck = [kind for kind, count in mix.items() for _ in range(count)]
    index = 0
    while True:
        for k in rng.permutation(len(deck)):
            yield _make_job(deck[k], rng, workdir, index)
            index += 1


# --- output checks ---------------------------------------------------------

def _key_values(stdout: str) -> dict[str, str]:
    pairs = (line.partition("=") for line in stdout.splitlines() if "=" in line)
    return {key: value for key, _, value in pairs}


def _near(name: str, got: float, want: float, tol: float) -> str | None:
    if not abs(got - want) <= tol:
        return f"{name}={got!r}, expected {want!r} within {tol:g}"
    return None


def _first_error(*errors) -> str | None:
    return next((e for e in errors if e), None)


def _check_analytic(job: Job, stdout: str) -> str | None:
    out = _key_values(stdout)
    cfg = load_config(job.config)
    post = cfg.post if cfg.is_pure else cfg.post_effect
    exact = cheshire_analytic(post, cfg.prep, cfg.g_a, cfg.g_b)
    return _first_error(
        _near("c_analytic", float(out["c_analytic"]), exact.c_value, ANALYTIC_TOL),
        _near("p_success", float(out["p_success"]), exact.p_success, ANALYTIC_TOL),
    )


def _check_montecarlo(job: Job, stdout: str) -> str | None:
    out = _key_values(stdout)
    n = int(out["n_trials"])
    if n != job.params["trials"]:
        return f"n_trials={n}, expected {job.params['trials']}"
    cfg = load_config(job.config)
    exact = cheshire_analytic(cfg.post, cfg.prep, cfg.g_a, cfg.g_b)
    noise = NoiseModel(cfg.noise_a, cfg.noise_b)
    c_sigma = math.sqrt(trial_variance(cfg.amplitudes(), cfg.weights(), cfg.g_a, cfg.g_b, noise) / n)
    p = exact.p_success
    p_sigma = math.sqrt(p * (1.0 - p) / n)
    c_hat = float(out["c_hat"])
    error = _first_error(
        _near("c_hat", c_hat, exact.c_value, DETECTION_Z * c_sigma),
        _near("p_hat", float(out["p_hat"]), p, DETECTION_Z * p_sigma),
    )
    if error or job.dump is None:
        return error
    return _check_dump(job.dump, n, c_hat)


def _check_dump(path: str, n: int, c_hat: float) -> str | None:
    """The dumped trials are the ones the estimate was computed from."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    os.remove(path)
    if header != "tau,x,y":
        return f"trial CSV header {header!r}"
    if rows.shape != (n, 3):
        return f"trial CSV holds {rows.shape}, expected ({n}, 3)"
    mean = float(np.mean(rows[:, 0] * rows[:, 1] * rows[:, 2]))
    return _near("mean of dumped tau*x*y", mean, c_hat, DUMP_MEAN_TOL)


def _check_sweep(job: Job, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != SWEEP_STEPS + 2 or not lines[-1].startswith("# max"):
        return f"sweep printed {len(lines)} lines, expected header, {SWEEP_STEPS} rows and a summary"
    return None


def _check_optimize_config(job: Job, stdout: str) -> str | None:
    out = _key_values(stdout)
    cfg = load_config(job.config)
    g = 2.0
    best = cheshire_analytic(cfg.post, cfg.prep, g, g).c_value
    return _first_error(
        _near("g_a_optimal", float(out["g_a_optimal"]), g, COUPLING_OPT_TOL),
        _near("g_b_optimal", float(out["g_b_optimal"]), g, COUPLING_OPT_TOL),
        _near("c_optimal", float(out["c_optimal"]), best, OPTIMUM_TOL),
    )


def _check_optimize_states(job: Job, stdout: str) -> str | None:
    out = _key_values(stdout)
    g_a, g_b = job.params["g_a"], job.params["g_b"]
    # largest |C| over all states: g_A g_B w_A w_B / 4 with w = exp(-g^2/8)
    bound = g_a * g_b * math.exp(-(g_a * g_a + g_b * g_b) / 8.0) / 4.0
    return _near("c_optimal", float(out["c_optimal"]), bound, OPTIMUM_TOL)


def _check_noise_table(job: Job, stdout: str) -> str | None:
    """Rows of scripts/noise_study.py for its fixed worked-example states."""
    prep = PhotonKet.normalized([1.0, 0.0, 1.0, 1.0])
    post = PhotonKet.normalized([1.0, 0.0, 1.0, -1.0])
    amps = transition_amplitudes(prep, post)
    weights = BranchWeights.from_preparation(prep)
    g = job.params["g"]
    c = cheshire_analytic(post, prep, g, g).c_value
    lines = stdout.splitlines()
    if lines[0] != "nu_a,nu_b,c_hat,std_error,n_required" or len(lines) != NOISE_LEVELS + 1:
        return f"noise table has {len(lines)} lines, expected a header and {NOISE_LEVELS} rows"
    step = job.params["nu_max"] / (NOISE_LEVELS - 1)
    for k, line in enumerate(lines[1:]):
        nu_a, nu_b, c_hat, _, n_required = line.split(",")
        variance = trial_variance(amps, weights, g, g, NoiseModel(float(nu_a), float(nu_b)))
        want = math.ceil(DETECTION_Z ** 2 * variance / (c * c))
        error = _first_error(
            _near(f"row {k} nu_a", float(nu_a), k * step, 1e-12),
            _near(f"row {k} nu_b", float(nu_b), k * step, 1e-12),
            None if n_required == str(want) else f"row {k} n_required={n_required}, expected {want}",
            _near(f"row {k} c_hat", float(c_hat), c,
                  DETECTION_Z * math.sqrt(variance / NOISE_TRIALS)),
        )
        if error:
            return error
    return None


_CHECKS = {
    "analytic-pure": _check_analytic,
    "analytic-povm": _check_analytic,
    "optimize-config": _check_optimize_config,
    "optimize-states": _check_optimize_states,
    "sweep": _check_sweep,
    "mc-large": _check_montecarlo,
    "mc-dump": _check_montecarlo,
    "noise-table": _check_noise_table,
}


def check(job: Job, returncode: int, stdout: str) -> str | None:
    """None when the job succeeded and its output is right, else the reason.

    A nonzero exit is a failure; a sweep that exits 0 has checked itself
    against the grid oracle.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        return _CHECKS[job.kind](job, stdout)
    except (KeyError, ValueError, IndexError, OSError) as exc:
        return f"unreadable output: {exc!r}"
