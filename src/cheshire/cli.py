"""Command-line front end: analytic reports, coupling sweeps, Monte Carlo
runs, and state/coupling optimization.

All output is machine-readable: key=value lines for scalar reports and
RFC-4180-style CSV (17 significant digits) for tables.  Exit codes: 0 on
success, 2 for configuration errors, 3 for numerical-consistency errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from .config import ExperimentConfig, dump_config, load_config
from .dynamics import JointMeterState
from .entanglement import meter_negativity
from .errors import (
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
from .qsystem import weak_values
from .sampler import (
    NoiseModel,
    estimate_cheshire,
    sample_estimate,
    sample_trials,
    write_trials_csv,
)

SWEEP_COLUMNS = ("g_a", "g_b", "c_analytic", "c_grid", "p_success", "negativity")
ORACLE_AGREEMENT_TOL = 1e-6

_NAN_COMPLEX = complex(math.nan, math.nan)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _effective_config(args) -> ExperimentConfig:
    if not args.config:
        raise ValidationError("config: --config PATH is required for this command")
    try:
        config = load_config(args.config)
    except OSError as exc:
        raise ValidationError(f"config: cannot read {args.config}: {exc}") from exc
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.grid_points is not None:
        overrides["grid"] = Grid(config.grid.x_min, config.grid.x_max, args.grid_points)
    return config.with_overrides(**overrides) if overrides else config


def _handle_dump(args, config: ExperimentConfig) -> bool:
    if args.dump_config:
        _emit(dump_config(config), args.out)
        return True
    return False


def analytic_report(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Key/value pairs of every exact quantity for one configuration.

    Quantities that are undefined for the configuration (weak values for
    an orthogonal pair, pure-state diagnostics for an effect) are nan.
    """
    postselection = config.post if config.is_pure else config.post_effect
    result = cheshire_analytic(postselection, config.prep, config.g_a, config.g_b)
    pairs = [
        ("c_analytic", _fmt(result.c_value)),
        ("p_success", _fmt(result.p_success)),
        ("trace_term", format_complex(result.trace_term)),
    ]

    presence = polarization = _NAN_COMPLEX
    x_mean = y_mean = neg = math.nan
    if config.is_pure:
        amps = config.amplitudes()
        try:
            values = weak_values(amps)
            presence, polarization = values.L_w, values.Sigma_w
        except OrthogonalPostselection:
            pass
        try:
            x_mean, y_mean, _ = local_averages(amps, config.g_a, config.g_b)
        except OrthogonalPostselection:
            pass
        try:
            neg = meter_negativity(amps, config.g_a, config.g_b).negativity
        except OrthogonalPostselection:
            pass
    pairs.extend([
        ("weak_value_presence", format_complex(presence)),
        ("weak_value_polarization", format_complex(polarization)),
        ("x_mean", _fmt(x_mean)),
        ("y_mean", _fmt(y_mean)),
        ("negativity", _fmt(neg)),
        ("g_a", _fmt(config.g_a)),
        ("g_b", _fmt(config.g_b)),
    ])
    return pairs


def cmd_analytic(args) -> int:
    config = _effective_config(args)
    if _handle_dump(args, config):
        return 0
    lines = [f"{key}={value}" for key, value in analytic_report(config)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def sweep_rows(config: ExperimentConfig, g_min: float, g_max: float, steps: int):
    """Diagonal sweep g_a = g_b = g: one row of exact and grid-oracle
    values per sweep point, in sweep order."""
    if steps < 2:
        raise ValidationError("steps: a sweep needs at least 2 points")
    if not (0.0 <= g_min < g_max and math.isfinite(g_max)):
        raise ValidationError("g-range: need 0 <= g-min < g-max < infinity")
    if not config.is_pure:
        raise ValidationError("post: the sweep's grid oracle needs a pure postselection state")
    amps = config.amplitudes()
    meter = GridMeter.gaussian(config.grid)
    g_values = np.linspace(g_min, g_max, steps)

    def row(g: float):
        exact = cheshire_analytic(config.post, config.prep, g, g)
        state = JointMeterState(amps, meter, meter, g, g)
        c_grid = 2.0 * moment_decomposition(state, "x", "x").total
        if abs(exact.c_value - c_grid) > ORACLE_AGREEMENT_TOL:
            raise ConsistencyError(
                f"analytic and grid indicators disagree at g={g}: "
                f"{exact.c_value!r} vs {c_grid!r}"
            )
        neg = meter_negativity(amps, g, g).negativity
        return (float(g), float(g), exact.c_value, c_grid, exact.p_success, neg)

    return [row(g) for g in g_values]


def locate_max(rows) -> tuple[float, float, float]:
    """(g_a, g_b, c_analytic) of the row with the largest |c_analytic|."""
    best = max(rows, key=lambda r: abs(r[2]))
    return (best[0], best[1], best[2])


def format_sweep_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    g_a, g_b, c = locate_max(rows)
    buffer.write(f"# max |c_analytic| at g_a={_fmt(g_a)} g_b={_fmt(g_b)}: c_analytic={_fmt(c)}\n")
    return buffer.getvalue()


def cmd_sweep(args) -> int:
    config = _effective_config(args)
    if _handle_dump(args, config):
        return 0
    rows = sweep_rows(config, args.g_min, args.g_max, args.steps)
    _emit(format_sweep_csv(rows), args.out)
    return 0


def cmd_montecarlo(args) -> int:
    config = _effective_config(args)
    if _handle_dump(args, config):
        return 0
    if config.n_trials < 100:
        raise ValidationError("n_trials: the Monte Carlo run needs at least 100 trials")
    if not config.is_pure:
        raise ValidationError("post: Monte Carlo sampling needs a pure postselection state")
    run = (config.amplitudes(), config.weights(), config.g_a, config.g_b)
    draws = dict(n=config.n_trials, seed=config.seed,
                 noise=NoiseModel(config.noise_a, config.noise_b))
    if args.dump_trials:
        trials = sample_trials(*run, **draws)
        write_trials_csv(trials, args.dump_trials)
        estimate = estimate_cheshire(trials)
    else:
        # the same estimate, bit for bit, without storing the trials
        estimate = sample_estimate(*run, **draws)
    exact = cheshire_analytic(config.post, config.prep, config.g_a, config.g_b)
    if estimate.std_error > 0.0:
        z = (estimate.c_hat - exact.c_value) / estimate.std_error
    else:
        z = math.nan
    lines = [
        f"c_hat={_fmt(estimate.c_hat)}",
        f"std_error={_fmt(estimate.std_error)}",
        f"p_hat={_fmt(estimate.p_hat)}",
        f"n_trials={estimate.n_trials}",
        f"c_analytic={_fmt(exact.c_value)}",
        f"z_score={_fmt(z)}",
        f"seed={config.seed}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_optimize(args) -> int:
    if args.config:
        config = _effective_config(args)
        if _handle_dump(args, config):
            return 0
        postselection = config.post if config.is_pure else config.post_effect
        optimum = optimize_couplings(postselection, config.prep, g_max=args.search_max)
        lines = [
            f"g_a_optimal={_fmt(optimum.g_a)}",
            f"g_b_optimal={_fmt(optimum.g_b)}",
            f"c_optimal={_fmt(optimum.c_value)}",
        ]
    else:
        if args.dump_config:
            raise ValidationError("config: --dump-config needs --config")
        seed = args.seed if args.seed is not None else 0
        optimum = optimize_states(args.g_a, args.g_b, n_starts=args.starts, seed=seed)
        amps = ",".join(format_complex(z) for z in optimum.prep.amplitudes)
        post = ",".join(format_complex(z) for z in optimum.post.amplitudes)
        lines = [
            f"c_optimal={_fmt(optimum.c_value)}",
            f"trace_term={format_complex(optimum.trace_term)}",
            f"prep={amps}",
            f"post={post}",
            f"g_a={_fmt(args.g_a)}",
            f"g_b={_fmt(args.g_b)}",
        ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


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
    p_opt.add_argument("--g-a", type=float, default=2.0, help="coupling A for the state search")
    p_opt.add_argument("--g-b", type=float, default=2.0, help="coupling B for the state search")
    p_opt.add_argument("--search-max", type=float, default=8.0,
                       help="upper bound of the coupling search (default 8)")
    p_opt.add_argument("--starts", type=int, default=8,
                       help="multistart count for the state search (default 8)")
    p_opt.set_defaults(func=cmd_optimize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, GridTooSmall, OrthogonalPostselection, FlatObjective) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
