"""Command-line front end: analytic reports, coupling sweeps, Monte Carlo
runs, and state/coupling optimization.

All output is machine-readable: key=value lines for scalar reports and
RFC-4180-style CSV (17 significant digits) for tables.  Exit codes: 0 on
success, 2 for configuration errors, 3 for numerical-consistency errors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
from dataclasses import replace

import numpy as np

from .config import ExperimentConfig, dump_config, load_config
from .dynamics import JointMeterState
from .entanglement import meter_negativity
from .errors import (
    CheshireError,
    ConsistencyError,
    FlatObjective,
    GridTooSmall,
    OrthogonalPostselection,
    ValidationError,
)
from .indicator import (
    cheshire_analytic,
    local_averages,
    moment_decomposition,
    optimize_couplings,
    optimize_states,
)
from .meter import Grid, GridMeter, format_complex
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


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"out: cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


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
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.grid_points is not None:
        overrides["grid"] = Grid(config.grid.x_min, config.grid.x_max, args.grid_points)
    return replace(config, **overrides) if overrides else config


def analytic_report(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Key/value pairs of every exact quantity for one configuration.

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
    return [
        ("c_analytic", _fmt(result.c_value)),
        ("p_success", _fmt(result.p_success)),
        ("trace_term", format_complex(result.trace_term)),
        ("weak_value_presence", format_complex(values.L_w)),
        ("weak_value_polarization", format_complex(values.Sigma_w)),
        ("x_mean", _fmt(x_mean)),
        ("y_mean", _fmt(y_mean)),
        ("negativity", _fmt(neg)),
        ("g_a", _fmt(g_a)),
        ("g_b", _fmt(g_b)),
    ]


def _or_undefined(compute, undefined):
    """compute(), or ``undefined`` for an orthogonal postselection."""
    try:
        return compute()
    except OrthogonalPostselection:
        return undefined


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def cmd_analytic(args, config: ExperimentConfig) -> str:
    return _lines(f"{key}={value}" for key, value in analytic_report(config))


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


def format_sweep_csv(rows) -> str:
    g_a, g_b, c = locate_max(rows)
    return _lines([
        ",".join(SWEEP_COLUMNS),
        *(",".join(map(_fmt, row)) for row in rows),
        f"# max |c_analytic| at g_a={_fmt(g_a)} g_b={_fmt(g_b)}: c_analytic={_fmt(c)}",
    ])


def cmd_sweep(args, config: ExperimentConfig) -> str:
    return format_sweep_csv(sweep_rows(config, args.g_min, args.g_max, args.steps))


def _sample_to_csv(path, run, draws):
    """The trials, written to the trial CSV at ``path``: opened before the first
    draw, so an unwritable path fails at once; a regular file is emptied once
    the trials are drawn, and removed if the run fails only if this run made it."""
    created = not os.path.lexists(path)
    with open(path, "ab") as fh:
        try:
            trials = sample_trials(*run, **draws)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(0)
            write_trials_csv(trials, fh)
            return trials
        except BaseException:
            if created:
                fh.close()
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


def cmd_montecarlo(args, config: ExperimentConfig) -> str:
    if config.n_trials < 100:
        raise ValidationError("n_trials: the Monte Carlo run needs at least 100 trials")
    run = (config.coherence(), config.weights(), config.g_a, config.g_b)
    draws = dict(n=config.n_trials, seed=config.seed,
                 noise=NoiseModel(config.noise_a, config.noise_b))
    if args.dump_trials:
        try:
            trials = _sample_to_csv(args.dump_trials, run, draws)
        except OSError as exc:
            raise ValidationError(f"dump-trials: cannot write {args.dump_trials}: {exc}") from exc
        estimate = estimate_cheshire(trials)
    else:
        # the same estimate, bit for bit, without storing the trials
        estimate = sample_estimate(*run, **draws)
    exact = cheshire_analytic(config.postselection, config.prep, config.g_a, config.g_b)
    z = (estimate.c_hat - exact.c_value) / estimate.std_error if estimate.std_error > 0.0 else math.nan
    return _lines([
        f"c_hat={_fmt(estimate.c_hat)}",
        f"std_error={_fmt(estimate.std_error)}",
        f"p_hat={_fmt(estimate.p_hat)}",
        f"n_trials={estimate.n_trials}",
        f"c_analytic={_fmt(exact.c_value)}",
        f"z_score={_fmt(z)}",
        f"seed={config.seed}",
    ])


def cmd_optimize(args, config: ExperimentConfig | None) -> str:
    if config is not None:
        optimum = optimize_couplings(config.postselection, config.prep, g_max=args.search_max)
        return _lines([
            f"g_a_optimal={_fmt(optimum.g_a)}",
            f"g_b_optimal={_fmt(optimum.g_b)}",
            f"c_optimal={_fmt(optimum.c_value)}",
        ])
    optimum = optimize_states(args.g_a, args.g_b)
    amps = ",".join(format_complex(z) for z in optimum.prep.amplitudes)
    post = ",".join(format_complex(z) for z in optimum.post.amplitudes)
    return _lines([
        f"c_optimal={_fmt(optimum.c_value)}",
        f"trace_term={format_complex(optimum.trace_term)}",
        f"prep={amps}",
        f"post={post}",
        f"g_a={_fmt(args.g_a)}",
        f"g_b={_fmt(args.g_b)}",
    ])


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="experiment config file (flat key=value)")
    common.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    common.add_argument("--out", metavar="PATH", help="write output to this file instead of stdout")
    common.add_argument("--trials", type=int, metavar="N", help="override the config trial count")
    common.add_argument("--grid-points", type=int, metavar="N",
                        help="override the config grid resolution")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective config and exit without running")

    parser = argparse.ArgumentParser(
        prog="cheshire",
        description="Postselected two-meter simulator: exact, grid, and Monte Carlo "
                    "values of the signed cross-moment entanglement indicator.",
    )
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

    p_mc = sub.add_parser("montecarlo", parents=[common],
                          help="seeded Monte Carlo estimate of the indicator")
    p_mc.add_argument("--dump-trials", metavar="PATH", help="also write the raw trial CSV here")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_opt = sub.add_parser(
        "optimize", parents=[common],
        help="optimal couplings for a configured experiment (with --config) "
             "or optimal state pair at fixed couplings (without)",
    )
    p_opt.add_argument("--g-a", type=float, default=2.0, help="coupling A for the optimal states")
    p_opt.add_argument("--g-b", type=float, default=2.0, help="coupling B for the optimal states")
    p_opt.add_argument("--search-max", type=float, default=8.0,
                       help="largest coupling the optimum may take (default 8)")
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    """Run one subcommand: the effective config first, then --dump-config or
    the subcommand, then stdout or --out, written only once the run succeeds."""
    args = build_parser().parse_args(argv)
    try:
        config = _effective_config(args)
        _emit(dump_config(config) if args.dump_config else args.func(args, config), args.out)
        return 0
    except (ValidationError, GridTooSmall, OrthogonalPostselection, FlatObjective) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
