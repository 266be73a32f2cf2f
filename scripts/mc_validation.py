#!/usr/bin/env python3
"""Monte-Carlo cross-check of the closed-form risk values.

For each fixture market and a batch of random portfolios, compares the
analytic conditional value-at-risk with the simulation estimate and prints a
z-score table.  Deterministic for a fixed seed.
"""

import argparse
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from covarsel import McConfig, covar_portfolio, mc_covar
from covarsel.cli import load_scenario

FIXTURES = ("example1", "example2", "example3")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--portfolios", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'market':<10} {'portfolio':<28} {'closed':>12} {'mc':>12} "
          f"{'se':>10} {'z':>7}")
    worst = 0.0
    for name in FIXTURES:
        scenario = load_scenario(str(ROOT / "scenarios" / f"{name}.json"))
        m, r = scenario.model, scenario.reduced
        for k in range(args.portfolios):
            x = rng.dirichlet(np.ones(3))
            closed = covar_portfolio(m, r, x).covar
            est = mc_covar(m, x, McConfig(samples=args.samples,
                                          seed=args.seed * 1000 + k))
            z = 0.0 if est.std_error == 0 else (est.estimate - closed) / est.std_error
            worst = max(worst, abs(z))
            label = "(" + ", ".join(f"{w:.3f}" for w in x) + ")"
            print(f"{name:<10} {label:<28} {closed:>12.6f} {est.estimate:>12.6f} "
                  f"{est.std_error:>10.2e} {z:>7.2f}")
    print(f"\nworst |z| = {worst:.2f} over "
          f"{args.portfolios * len(FIXTURES)} portfolios at {args.samples} samples")


if __name__ == "__main__":
    main()
