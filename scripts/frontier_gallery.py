#!/usr/bin/env python3
"""Emit plot-ready frontier data for the three fixture markets.

Writes CSV files into an output directory:

* example1_constrained_covar.csv / example1_constrained_sigma.csv: the lower
  envelopes of the no-short-selling feasible region under the conditional
  risk measure and under volatility, for side-by-side comparison (the
  equality-constrained problem has no minimum there);
* example2_frontier.csv: the V-shaped optimal-value polyline;
* example3_case{1a,1b,2a,2b,3}.csv: the five stress-intensity panels, one per
  efficiency regime occurrence, efficient points flagged.

Every panel is one `Frontier` record, written by the CLI's CSV writer:
E,value,efficient,status,w1..wn.
"""

import argparse
import dataclasses
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from covarsel import (ConstrainedProblem, Frontier, RiskParams, constrained_frontier,
                      frontier, markowitz_frontier, reduce_model, sigma_and_var,
                      validate_model)
from covarsel.cli import _emit_points, load_scenario

EX3_PANELS = [
    ("case1a", 1.0, 0.3),
    ("case1b", 2.0, 0.35),
    ("case2a", 1.0, 1.0),
    ("case2b", 0.1, 1.0),
    ("case3", 5.0, 0.8),
]


def fixture(name):
    return load_scenario(str(ROOT / "scenarios" / f"{name}.json"))


def write_points(path, points):
    with open(path, "w", encoding="utf-8") as fh:
        _emit_points(points, "csv", fh)


def example1(outdir, steps):
    scenario = fixture("example1")
    m, r = scenario.model, scenario.reduced
    grid = np.linspace(1.0, 4.0, steps)
    write_points(outdir / "example1_constrained_covar.csv",
                 constrained_frontier(ConstrainedProblem(model=m, reduced=r), grid))

    # Minimum-variance portfolios with their short positions cut and the
    # rest rescaled to the budget.
    weights = np.maximum(markowitz_frontier(m, grid)[0], 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    sigmas = [sigma_and_var(m, w)[0] for w in weights]
    write_points(outdir / "example1_constrained_sigma.csv",
                 Frontier(grid, sigmas, weights, np.zeros(steps, bool), "SigmaEnvelope"))


def example2(outdir, steps):
    scenario = fixture("example2")
    m, r = scenario.model, scenario.reduced
    write_points(outdir / "example2_frontier.csv", frontier(m, r, 1.0, 3.0, steps))


def example3(outdir, steps):
    market = fixture("example3").market
    for label, a, b in EX3_PANELS:
        m = validate_model(dataclasses.replace(market, risk=RiskParams(a=a, b=b)))
        r = reduce_model(m)
        write_points(outdir / f"example3_{label}.csv", frontier(m, r, 0.0, 2.0, steps))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="frontier_data", help="output directory")
    parser.add_argument("--steps", type=int, default=201)
    args = parser.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    example1(outdir, args.steps)
    example2(outdir, args.steps)
    example3(outdir, args.steps)
    print(f"wrote {len(list(outdir.glob('*.csv')))} files to {outdir}/")


if __name__ == "__main__":
    main()
