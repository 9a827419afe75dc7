#!/usr/bin/env python3
"""Readout-noise robustness table for the worked example states.

For each noise level nu (applied to both meters) the table reports the
Monte Carlo estimate, its standard error, and the exact number of trials
needed for a 5-sigma detection of a nonzero indicator.  Independent
zero-mean noise leaves the estimator unbiased; it only inflates the
per-trial variance.  The table goes to stdout or --out, and errors exit as
`cheshire`'s do, through `cheshire.cli.run`.
"""

import argparse
import math
import sys

from cheshire import BranchWeights, PhotonKet, noise_robustness, transition_amplitudes
from cheshire.cli import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nu-max", type=float, default=4.0,
                        help="largest noise standard deviation (default 4)")
    parser.add_argument("--levels", type=int, default=9,
                        help="number of noise levels from 0 to nu-max (default 9)")
    parser.add_argument("--trials", type=int, default=20000,
                        help="Monte Carlo trials per level (default 20000)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--g", type=float, default=2.0, help="coupling for both meters")
    parser.add_argument("--out", metavar="PATH", help="CSV destination (default stdout)")
    args = parser.parse_args(argv)

    prep = PhotonKet.normalized([1.0, 0.0, 1.0, 1.0])
    post = PhotonKet.normalized([1.0, 0.0, 1.0, -1.0])
    amps = transition_amplitudes(prep, post)
    weights = BranchWeights.from_preparation(prep)

    if args.levels < 1:
        parser.error("--levels must be >= 1")
    step = args.nu_max / max(args.levels - 1, 1)
    nu_grid = [(k * step, k * step) for k in range(args.levels)]

    def table() -> str:
        rows = noise_robustness(amps, weights, args.g, args.g, nu_grid,
                                n=args.trials, seed=args.seed)
        lines = ["nu_a,nu_b,c_hat,std_error,n_required\n"]
        for row in rows:
            n_req = "inf" if math.isinf(row.n_required) else f"{int(row.n_required)}"
            lines.append(f"{row.nu_a:.17g},{row.nu_b:.17g},{row.c_hat:.17g},"
                         f"{row.std_error:.17g},{n_req}\n")
        return "".join(lines)

    return run(table, args.out)


if __name__ == "__main__":
    sys.exit(main())
