#!/usr/bin/env python3
"""Discretization sweep: protocol quality as a function of the bin count.

For each bin count, runs the sender once at a fixed state, answers the
batch at a 5-point grid of measurement angles, and reports the worst
Born-rule error, the mean code length, and the round-1 acceptance rate.  The Born error shrinks like
1/bins while the cost stays flat, which is why the default bin count can
be generous.
"""

from __future__ import annotations

import argparse

import numpy as np

from kschannel import run_trials
from kschannel.cli import _bins_arg, _positive_int, _seed_arg, round1_acceptance_binned
from kschannel.rngstream import mix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=_seed_arg, default=7)
    parser.add_argument("--trials", type=_positive_int, default=50_000)
    parser.add_argument("--bins", type=_bins_arg, nargs="+", default=[4, 16, 64, 256, 1024, 4096])
    args = parser.parse_args()

    dots = (-1.0, -0.5, 0.0, 0.5, 1.0)
    print(f"{'bins':>6}  {'worst Born err':>14}  {'mean bits':>9}  "
          f"{'P(k=1)':>8}  {'binned 7/16':>11}")
    for bins in args.bins:
        # the sender never sees the measurement: one run per bin count, answered at each angle
        batch = run_trials(mix(args.seed, bins), args.trials, bins, state=(0.0, 0.0, 1.0))
        worst = 0.0
        for dot in dots:
            outcome, born = batch.answer((float(np.sqrt(max(0.0, 1.0 - dot * dot))), 0.0, dot))
            worst = max(worst, abs(float(np.mean(outcome == 1)) - float(born[0])))
        print(f"{bins:>6}  {worst:>14.5f}  {float(np.mean(batch.code_bits)):>9.4f}  "
              f"{float(np.mean(batch.accepted_index == 1)):>8.4f}  "
              f"{round1_acceptance_binned(bins):>11.6f}")


if __name__ == "__main__":
    main()
