"""Command-line front end: analytic reports, coupling sweeps, Monte Carlo
runs, and state/coupling optimization.

All output is machine-readable: key=value lines for scalar reports and
RFC-4180-style CSV (17 significant digits) for tables.  Exit codes: 0 on
success; a package error exits with its ``exit_code``, 2 for bad input and 3
for an internal inconsistency; a refused allocation and a usage error exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (ExperimentConfig, _format_real, _format_vector, dump_config, format_complex,
                     load_config)
from .dynamics import JointMeterState
from .entanglement import meter_negativity
from .errors import CheshireError, ConsistencyError, OrthogonalPostselection, ValidationError
from .indicator import (
    cheshire_analytic,
    local_averages,
    moment_decomposition,
    optimize_couplings,
    optimize_states,
)
from .meter import GridMeter
from .qsystem import WeakValues, weak_values
from .sampler import (
    NoiseModel,
    estimate_cheshire,
    sample_estimate,
    sample_trials,
    write_trials_csv,
)
from .tolerances import ORACLE_AGREEMENT_TOL

SWEEP_COLUMNS = ("g_a", "g_b", "c_analytic", "c_grid", "p_success", "negativity")


def _effective_config(args) -> ExperimentConfig | None:
    """The config file with the command-line overrides applied; None for
    ``optimize``'s state search, the one run that takes no config."""
    if not args.config:
        if args.command != "optimize":
            raise ValidationError("config: --config PATH is required for this command")
        if args.dump_config:
            raise ValidationError("config: --dump-config needs --config")
        return None
    try:
        config = load_config(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config: cannot read {args.config}: {exc}") from exc
    overrides = {"seed": args.seed, "n_trials": args.trials}
    return replace(config, **{key: value for key, value in overrides.items() if value is not None})


def _or_undefined(compute, undefined):
    """compute(), or ``undefined`` for an orthogonal postselection."""
    try:
        return compute()
    except OrthogonalPostselection:
        return undefined


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def cmd_analytic(args, config: ExperimentConfig) -> str:
    """One key=value line per exact quantity of the configuration.

    Quantities that are undefined for an orthogonal postselection (weak
    values, local averages, negativity) are nan.
    """
    result = cheshire_analytic(config.postselection, config.prep, config.g_a, config.g_b)
    k, g_a, g_b = config.coherence(), config.g_a, config.g_b
    nan = complex(math.nan, math.nan)
    values = _or_undefined(lambda: weak_values(k), WeakValues(nan, nan))
    x_mean, y_mean, _ = _or_undefined(lambda: local_averages(k, g_a, g_b), (math.nan,) * 3)
    state = JointMeterState(k, g_a, g_b)
    neg = _or_undefined(lambda: meter_negativity(state).negativity, math.nan)
    return _lines([
        f"c_analytic={_format_real(result.c_value)}",
        f"p_success={_format_real(result.p_success)}",
        f"trace_term={format_complex(result.trace_term)}",
        f"weak_value_presence={format_complex(values.L_w)}",
        f"weak_value_polarization={format_complex(values.Sigma_w)}",
        f"x_mean={_format_real(x_mean)}",
        f"y_mean={_format_real(y_mean)}",
        f"negativity={_format_real(neg)}",
        f"g_a={_format_real(g_a)}",
        f"g_b={_format_real(g_b)}",
    ])


def sweep_rows(config: ExperimentConfig, g_min: float, g_max: float, steps: int):
    """Diagonal sweep g_a = g_b = g: one row of exact and grid-oracle
    values per sweep point, in sweep order.

    Each kernel runs once over the whole stack of couplings.  A row that
    fails stops the sweep with its own error: when several rows fail, the
    first in sweep order decides.
    """
    if steps < 2:
        raise ValidationError("steps: a sweep needs at least 2 points")
    if not (0.0 <= g_min < g_max and math.isfinite(g_max)):
        raise ValidationError("g-range: need 0 <= g-min < g-max < infinity")
    g_values = np.linspace(g_min, g_max, steps)
    try:
        return _sweep_stack(config, g_values)
    except CheshireError as exc:
        failure = exc
    # a stack raises for whichever failing row its kernel meets first; one
    # row at a time, the first failing row raises
    for i in range(steps):
        _sweep_stack(config, g_values[i:i + 1])
    raise failure


def _sweep_stack(config: ExperimentConfig, g: np.ndarray):
    coherence = config.coherence()
    meter = GridMeter.gaussian(config.grid)
    exact = cheshire_analytic(config.postselection, config.prep, g, g)
    grid = JointMeterState(coherence, g, g, meter)
    c_grid = 2.0 * moment_decomposition(grid).total
    _check_oracle("indicators", g, exact.c_value, c_grid)
    neg = meter_negativity(JointMeterState(coherence, g, g)).negativity
    _check_oracle("negativities", g, neg, meter_negativity(grid).negativity)
    columns = (g, g, exact.c_value, c_grid, exact.p_success, neg)
    return list(zip(*(column.tolist() for column in columns)))


def _check_oracle(what: str, g: np.ndarray, exact: np.ndarray, grid: np.ndarray) -> None:
    """Raise at the first g where closed form and grid differ beyond the tolerance."""
    disagree = np.flatnonzero(np.abs(exact - grid) > ORACLE_AGREEMENT_TOL)
    if disagree.size:
        i = disagree[0]
        raise ConsistencyError(
            f"analytic and grid {what} disagree at g={g[i]}: "
            f"{exact[i].item()!r} vs {grid[i].item()!r}"
        )


def locate_max(rows) -> tuple[float, float, float]:
    """(g_a, g_b, c_analytic) of the row with the largest |c_analytic|."""
    best = max(rows, key=lambda r: abs(r[2]))
    return (best[0], best[1], best[2])


def cmd_sweep(args, config: ExperimentConfig) -> str:
    rows = sweep_rows(config, args.g_min, args.g_max, args.steps)
    g_a, g_b, c = map(_format_real, locate_max(rows))
    return _lines([
        ",".join(SWEEP_COLUMNS),
        *(",".join(map(_format_real, row)) for row in rows),
        f"# max |c_analytic| at g_a={g_a} g_b={g_b}: c_analytic={c}",
    ])


def cmd_montecarlo(args, config: ExperimentConfig) -> str:
    if config.n_trials < 100:
        raise ValidationError("n_trials: the Monte Carlo run needs at least 100 trials")
    experiment = (config.coherence(), config.weights(), config.g_a, config.g_b)
    draws = dict(n=config.n_trials, seed=config.seed,
                 noise=NoiseModel(config.noise_a, config.noise_b))
    if args.dump_trials:
        # the file is made before the first draw, so an unwritable path fails at once
        with _replacing(args.dump_trials, "dump-trials") as fh:
            trials = sample_trials(*experiment, **draws)
            write_trials_csv(trials, fh)
        estimate = estimate_cheshire(trials)
    else:
        # the same estimate, bit for bit, without storing the trials
        estimate = sample_estimate(*experiment, **draws)
    exact = cheshire_analytic(config.postselection, config.prep, config.g_a, config.g_b)
    z = (estimate.c_hat - exact.c_value) / estimate.std_error if estimate.std_error > 0.0 else math.nan
    return _lines([
        f"c_hat={_format_real(estimate.c_hat)}",
        f"std_error={_format_real(estimate.std_error)}",
        f"p_hat={_format_real(estimate.p_hat)}",
        f"n_trials={estimate.n_trials}",
        f"c_analytic={_format_real(exact.c_value)}",
        f"z_score={_format_real(z)}",
        f"seed={config.seed}",
    ])


def cmd_optimize(args, config: ExperimentConfig | None) -> str:
    if config is not None:
        optimum = optimize_couplings(config.postselection, config.prep, g_max=args.search_max)
        return _lines([
            f"g_a_optimal={_format_real(optimum.g_a)}",
            f"g_b_optimal={_format_real(optimum.g_b)}",
            f"c_optimal={_format_real(optimum.c_value)}",
        ])
    optimum = optimize_states(args.g_a, args.g_b)
    return _lines([
        f"c_optimal={_format_real(optimum.c_value)}",
        f"trace_term={format_complex(optimum.trace_term)}",
        f"prep={_format_vector(optimum.prep.amplitudes)}",
        f"post={_format_vector(optimum.post.amplitudes)}",
        f"g_a={_format_real(args.g_a)}",
        f"g_b={_format_real(args.g_b)}",
    ])


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="experiment config file (flat key=value)")
    common.add_argument("--out", metavar="PATH", help="write output to this file instead of stdout")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective config and exit without running")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, metavar="N", help="override the config seed")

    parser = argparse.ArgumentParser(
        prog="cheshire",
        description="Postselected two-meter simulator: exact, grid, and Monte Carlo "
                    "values of the signed cross-moment entanglement indicator.",
    )
    # the config overrides and trial file of a subcommand that takes none
    parser.set_defaults(seed=None, trials=None, dump_trials=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", parents=[common],
                                help="exact Gaussian-meter report for one configuration")
    p_analytic.set_defaults(func=cmd_analytic)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="diagonal coupling sweep, CSV with analytic and grid values")
    p_sweep.add_argument("--g-min", type=float, default=0.0, help="first coupling (default 0)")
    p_sweep.add_argument("--g-max", type=float, default=8.0, help="last coupling (default 8)")
    p_sweep.add_argument("--steps", type=int, default=161, help="number of sweep points (default 161)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mc = sub.add_parser("montecarlo", parents=[common, seeded],
                          help="seeded Monte Carlo estimate of the indicator")
    p_mc.add_argument("--trials", type=int, metavar="N", help="override the config trial count")
    p_mc.add_argument("--dump-trials", metavar="PATH", help="also write the raw trial CSV here")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_opt = sub.add_parser(
        "optimize", parents=[common, seeded],
        help="optimal couplings for a configured experiment (with --config) "
             "or optimal state pair at fixed couplings (without)",
    )
    p_opt.add_argument("--g-a", type=float, default=2.0, help="coupling A for the optimal states")
    p_opt.add_argument("--g-b", type=float, default=2.0, help="coupling B for the optimal states")
    p_opt.add_argument("--search-max", type=float, default=8.0,
                       help="largest coupling the optimum may take (default 8)")
    p_opt.set_defaults(func=cmd_optimize)
    return parser


@contextlib.contextmanager
def _replacing(path, what):
    """A binary file whose bytes replace ``path``'s only if the block succeeds: a new name
    or a regular file gets them through ``REALPATH.XXXXXXXX.tmp``, with the mode open or the
    file gives, removed on failure; any other target, such as a pipe, is written in place."""
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "wb") as fh:
                yield fh
            return
        target = os.path.realpath(path)
        temp = f"{target}.{os.urandom(4).hex()}.tmp"
        fh = open(temp, "xb")
        try:
            with fh:
                if os.path.isfile(path):
                    os.chmod(temp, os.stat(path).st_mode & 0o7777)
                yield fh
            os.replace(temp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(temp)
            raise
    except OSError as exc:
        # the reason names the path as given, not the temporary file
        reason = OSError(exc.errno, exc.strerror, path) if exc.filename else exc
        raise ValidationError(f"{what}: cannot write {path}: {reason}") from exc


def _same_file(a, b) -> bool:
    """By inode where both exist, so hard links and symlinks count; else by realpath."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _refuse_overwriting(args) -> None:
    """Bad input: an output that is the other output (checked first) or the config."""
    pairs = [("dump-trials", args.dump_trials, "--out", args.out),
             ("dump-trials", args.dump_trials, "--config", args.config),
             ("out", args.out, "--config", args.config)]
    for what, output, flag, other in pairs:
        if output and other and _same_file(output, other):
            raise ValidationError(f"{what}: {output} is also the {flag} file")


def run(produce, out_path) -> int:
    """The exit code of one run: ``produce()``'s text goes to stdout, or
    replaces ``out_path`` once it succeeds, and the run exits 0; a package
    error prints one ``error:`` line and exits with its ``exit_code``."""
    try:
        text = produce()
        if out_path:
            with _replacing(out_path, "out") as fh:
                fh.write(text.encode("utf-8"))
        else:
            sys.stdout.write(text)
        return 0
    except CheshireError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # a size the allocator refuses, such as a 10^13-step sweep, is bad input
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return CheshireError.exit_code


def main(argv=None) -> int:
    """Run one subcommand: same-file check, config, then --dump-config or the subcommand."""
    args = build_parser().parse_args(argv)

    def output() -> str:
        _refuse_overwriting(args)
        config = _effective_config(args)
        return dump_config(config) if args.dump_config else args.func(args, config)

    return run(output, args.out)


if __name__ == "__main__":
    sys.exit(main())
