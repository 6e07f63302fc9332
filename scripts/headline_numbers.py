#!/usr/bin/env python3
"""Print the package's headline numbers side by side.

Closed forms, a Monte Carlo cross-check of the mutual information, the
measured one-shot communication cost of the protocol, and the reference
costs of the other known single-qubit simulations.
"""

from __future__ import annotations

import argparse

import numpy as np

from kschannel import (conditional_entropy_ks, exact_ks_mi, marginal_entropy_ks,
                       mc_mutual_information, run_trials)
from kschannel.cli import COST_BRACKET, REFERENCE_COSTS, _bins_arg, _mi_trials, _seed_arg
from kschannel.rngstream import mix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=_seed_arg, default=7)
    parser.add_argument("--trials", type=_mi_trials, default=200_000)
    parser.add_argument("--bins", type=_bins_arg, default=4096)
    args = parser.parse_args()

    mi = exact_ks_mi()
    print("closed forms (bits)")
    print(f"  conditional entropy h(X|Psi)   {conditional_entropy_ks():.6f}")
    print(f"  marginal entropy    h(X)       {marginal_entropy_ks():.6f}")
    print(f"  mutual information  I(X:Psi)   {mi:.6f}   = 2 - 1/(2 ln 2)")

    est = mc_mutual_information(args.trials, np.random.default_rng(mix(args.seed, 1)))
    print(f"\nMonte Carlo I(X:Psi) at n={est.n_samples}: {est.value:.5f} +/- {est.std_error:.5f}")

    batch = run_trials(mix(args.seed, 2), args.trials, args.bins)
    mean_bits = float(np.mean(batch.code_bits))
    print(f"\none-shot protocol over {batch.n} trials, {args.bins} bins")
    print(f"  mean code length      {mean_bits:.4f} bits")
    print(f"  round-1 acceptance    {float(np.mean(batch.accepted_index == 1)):.4f}   (7/16 = {7 / 16:.4f})")
    print(f"  guaranteed bracket    [{COST_BRACKET[0]:.4f}, {COST_BRACKET[1]:.4f}] bits")

    print("\nreference single-qubit simulation costs (bits)")
    for row in REFERENCE_COSTS:
        print(f"  {row['protocol']:<33} {row['bits']:.4f}   {row['note']}")


if __name__ == "__main__":
    main()
