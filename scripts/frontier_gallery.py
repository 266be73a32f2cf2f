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

Every file uses the CLI column layout E,value,efficient,status,w1..wn.
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from covarsel import (ConstrainedProblem, MarketModel, RiskParams,
                      constrained_frontier, frontier, markowitz_frontier,
                      reduce_model, sigma_and_var, validate_model)
from covarsel.closedform import FrontierPoint

EX3_PANELS = [
    ("case1a", 1.0, 0.3),
    ("case1b", 2.0, 0.35),
    ("case2a", 1.0, 1.0),
    ("case2b", 0.1, 1.0),
    ("case3", 5.0, 0.8),
]


def write_points(path, points, n):
    header = ["E", "value", "efficient", "status"] + [f"w{i}" for i in range(1, n + 1)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for p in points:
            row = [repr(p.E), repr(p.value), "true" if p.efficient else "false", p.status]
            row += [repr(float(w)) for w in p.weights]
            fh.write(",".join(row) + "\n")


def example1(outdir, steps):
    m = validate_model(MarketModel(
        mu=[1, 4, 3],
        sigma=[[1, -4 / 3, 2 / 3], [-4 / 3, 4, -1], [2 / 3, -1, 1]],
        conditioning_asset=1, risk=RiskParams(a=0.8, b=0.7)))
    r = reduce_model(m)
    grid = np.linspace(1.0, 4.0, steps)
    pts = constrained_frontier(ConstrainedProblem(model=m, reduced=r), grid)
    write_points(outdir / "example1_constrained_covar.csv", pts, m.n)

    sigma_pts = []
    for e, w in zip(grid, markowitz_frontier(m, grid)[0]):
        w = np.maximum(w, 0.0)
        w = w / w.sum()
        sig, _ = sigma_and_var(m, w)
        sigma_pts.append(FrontierPoint(E=float(e), value=sig, weights=w,
                                       efficient=False, status="SigmaEnvelope"))
    write_points(outdir / "example1_constrained_sigma.csv", sigma_pts, m.n)


def example2(outdir, steps):
    m = validate_model(MarketModel(
        mu=[2, 3, 1], sigma=[[1, 0.2, 1], [0.2, 1, 0], [1, 0, 9]],
        conditioning_asset=1, risk=RiskParams(a=1.0, b=2.0)))
    r = reduce_model(m)
    write_points(outdir / "example2_frontier.csv",
                 frontier(m, r, 1.0, 3.0, steps), m.n)


def example3(outdir, steps):
    for label, a, b in EX3_PANELS:
        m = validate_model(MarketModel(
            mu=[1, 2, 3], sigma=[[1, 1, 2], [1, 9, 0], [2, 0, 16]],
            conditioning_asset=1, risk=RiskParams(a=a, b=b)))
        r = reduce_model(m)
        write_points(outdir / f"example3_{label}.csv",
                     frontier(m, r, 0.0, 2.0, steps), m.n)


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
