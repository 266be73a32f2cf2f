"""Command line interface: scenario ingestion and plot-ready emission.

Scenario files are JSON with fields ``name, mu, sigma, conditioning_asset,
risk, constraints, targets``; risk carries either {"a": .., "b": ..} or
{"alpha": .., "beta": ..}.  Numbers in structured output are rendered with
repr, the shortest decimal that round-trips the binary double, so CSV and
JSON carry bit-identical values.

Exit codes: 0 success; 1 a mathematically degenerate regime was diagnosed
(unbounded below, infimum not attained); 2 input or validation error;
3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .closedform import (Frontier, SolveStatus, classify_efficiency, frontier, is_efficient,
                         markowitz_frontier, solvability_status, solve_critical, target_grid)
from .constrained import ConstrainedProblem, min_risk_return, minimize_constrained
from .errors import (CovarselError, NoConvergence, NumericalBreakdown,
                     PreconditionViolated, ScenarioError)
from .model import MarketModel, RiskParams, validate_model
from .oracle import McConfig, mc_covar
from .reduction import reduce_model
from .riskmeasures import covar_portfolio

EXIT_OK = 0
EXIT_REGIME = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    return str(x)


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: quoted, with its quotes doubled, when it
    holds a comma, a quote or a line break, as a vector or a matrix does."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [float(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


class Scenario:
    """Parsed scenario file plus the validated/reduced model pair."""

    def __init__(self, raw: dict, path: str):
        self.name = raw.get("name", path)
        mu = _array(raw.get("mu"), "mu", "a non-empty array of numbers")
        n = len(mu)
        sigma = _array(raw.get("sigma"), "sigma", f"{n} rows", n,
                       lambda row, name: _array(row, name, f"a row of {n} numbers", n))
        cond = raw.get("conditioning_asset", 1)
        if not isinstance(cond, int) or isinstance(cond, bool):
            raise ScenarioError("conditioning_asset: expected an integer")
        risk_raw = raw.get("risk")
        if not isinstance(risk_raw, dict):
            raise ScenarioError("risk: expected an object with a/b or alpha/beta")
        if "a" in risk_raw or "b" in risk_raw:
            risk = RiskParams(a=_number(risk_raw.get("a"), "risk.a"),
                              b=_number(risk_raw.get("b"), "risk.b"))
        else:
            risk = RiskParams.from_levels(_number(risk_raw.get("alpha"), "risk.alpha"),
                                          _number(risk_raw.get("beta"), "risk.beta"))
        constraints = raw.get("constraints", {})
        if not isinstance(constraints, dict):
            raise ScenarioError("constraints: expected an object")
        self.non_negative = constraints.get("non_negative", False)
        if not isinstance(self.non_negative, bool):
            raise ScenarioError("constraints.non_negative: expected true or false, "
                                f"got {self.non_negative!r}")
        self.targets = raw.get("targets", {}) or {}
        if not isinstance(self.targets, dict):
            raise ScenarioError("targets: expected an object")
        self.market = MarketModel(mu=np.array(mu), sigma=np.array(sigma),
                                  conditioning_asset=cond, risk=risk)
        self.model = validate_model(self.market)
        self.reduced = reduce_model(self.model)


def _number(value, name, integer=False, finite=False):
    """A number from a scenario file or a flag, as a float; with ``finite``
    it must be finite, and with ``integer`` it is returned as an int >= 1 (a
    float only if integral).  A bool, a non-number or an integer too large
    for a double raises ScenarioError naming ``name``."""
    want = "an integer >= 1" if integer else "a finite number" if finite else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name}: expected {want}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ScenarioError(f"{name}: an integer of {len(str(abs(value)))} digits "
                            "is too large for a double") from None
    if (integer or finite) and not math.isfinite(x) or \
            integer and not (x == int(x) and x >= 1):
        raise ScenarioError(f"{name}: expected {want}, got {value!r}")
    return int(value) if integer else x


def _array(value, name, want, n=None, entry=_number):
    """The non-empty list ``value``, of length ``n`` when given, with
    ``entry(e, "name[i]")`` read from each entry."""
    if not isinstance(value, list) or not value or n not in (None, len(value)):
        raise ScenarioError(f"{name}: expected {want}")
    return [entry(e, f"{name}[{i}]") for i, e in enumerate(value)]


def _request(value, flag, scenario: Scenario, key, integer=False):
    """The flag's value, else the scenario's ``targets.<key>``, as a finite
    float (an int >= 1 with ``integer``); None when neither is set."""
    if value is None:
        value, flag = scenario.targets.get(key), f"targets.{key}"
        if value is None:
            return None
    return _number(value, flag, integer, finite=True)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep nesting
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return Scenario(raw, path)


def _emit_record(record: dict, fmt: str, out):
    if fmt == "json":
        print(json.dumps({k: _jsonable(v) for k, v in record.items()}), file=out)
    elif fmt == "csv":
        keys = list(record.keys())
        print(",".join(map(_csv_field, keys)), file=out)
        print(",".join(_csv_field(_fmt(_jsonable(record[k]))) for k in keys), file=out)
    else:
        for k, v in record.items():
            print(f"{k} = {_fmt(_jsonable(v))}", file=out)


def _point_rows(points: Frontier):
    """Column names, and one tuple of Python values per point."""
    weights = points.weights
    return (["E", "value", "efficient", "status"]
            + [f"w{i}" for i in range(1, weights.shape[1] + 1)],
            zip(points.E.tolist(), points.value.tolist(), points.efficient.tolist(),
                [points.status] * len(points), *weights.T.tolist()))


def _emit_points(points: Frontier, fmt, out):
    header, rows = _point_rows(points)
    if fmt == "json":
        print(json.dumps([dict(zip(header, map(_jsonable, r))) for r in rows]), file=out)
        return
    print("\n".join(",".join(map(_fmt, r)) for r in (header, *rows)), file=out)


def cmd_describe(scenario: Scenario, fmt: str, out) -> int:
    m, r = scenario.model, scenario.reduced
    record = {
        "name": scenario.name,
        "n": m.n,
        "conditioning_asset": int(m.perm[0]) + 1,
        "a": m.risk.a,
        "b": m.risk.b,
        "q": r.q,
        "Qhat": [[float(v) for v in row] for row in r.Qhat],
        "mu_hat": r.mu_hat,
        "q_hat": r.q_hat,
        "alpha_C": r.alpha_C,
        "beta_C": r.beta_C,
        "gamma_C": r.gamma_C,
        "detG": r.detG,
        "Delta": r.Delta,
        "independent": r.independent,
    }
    status = solvability_status(r)
    degenerate = status in (SolveStatus.UNBOUNDED_BELOW,
                            SolveStatus.INFIMUM_NOT_ATTAINED)
    record["status"] = status.value
    record["efficiency_class"] = None if degenerate else classify_efficiency(r).value
    if fmt == "text":
        print(f"scenario {scenario.name}: n={m.n}, "
              f"conditioning asset {record['conditioning_asset']}, "
              f"a={_fmt(m.risk.a)}, b={_fmt(m.risk.b)}", file=out)
        for key in ("q", "mu_hat", "q_hat"):
            print(f"{key} = {[float(v) for v in record[key]]}", file=out)
        print(f"Qhat = {record['Qhat']}", file=out)
        for key in ("alpha_C", "beta_C", "gamma_C", "detG", "Delta"):
            print(f"{key} = {_fmt(record[key])}", file=out)
        print(f"independent = {record['independent']}", file=out)
        print(f"status = {record['status']}", file=out)
        if record["efficiency_class"]:
            print(f"efficiency_class = {record['efficiency_class']}", file=out)
    else:
        _emit_record(record, fmt, out)
    return EXIT_REGIME if degenerate else EXIT_OK


def cmd_solve(scenario: Scenario, target: float, fmt: str, out) -> int:
    m, r = scenario.model, scenario.reduced
    if solvability_status(r) in (SolveStatus.UNIQUE, SolveStatus.MARKOWITZ_FALLBACK):
        _emit_points(frontier(m, r, target, target, 1), fmt if fmt != "text" else "csv", out)
        return EXIT_OK
    sol = solve_critical(m, r, target)
    record = {
        "E": target,
        "status": sol.status.value,
        "value": sol.value,
        "Delta": r.Delta,
        "ray_base": sol.ray_base,
        "ray_direction": sol.ray_direction,
        "note": "objective decreases along ray_base + tau * ray_direction",
    }
    _emit_record(record, fmt, out)
    return EXIT_REGIME


def cmd_frontier(scenario: Scenario, e_min, e_max, steps, mode, fmt, out) -> int:
    m, r = scenario.model, scenario.reduced
    if mode == "covar":
        try:
            points = frontier(m, r, e_min, e_max, steps)
        except PreconditionViolated:
            record = {"status": solvability_status(r).value,
                      "Delta": r.Delta,
                      "note": "no frontier: per-target minimum does not exist"}
            _emit_record(record, fmt, out)
            return EXIT_REGIME
    else:
        grid = target_grid(e_min, e_max, steps)
        weights, gmv, var_least, sigma = markowitz_frontier(m, r, grid)
        values = sigma if mode == "sigma" else m.risk.a * sigma - grid
        least = gmv if mode == "sigma" else var_least
        points = Frontier(grid, values, weights, is_efficient(grid, least),
                          SolveStatus.UNIQUE.value)
    _emit_points(points, fmt if fmt != "text" else "csv", out)
    return EXIT_OK


def cmd_constrained(scenario: Scenario, target, fmt, out) -> int:
    m, r = scenario.model, scenario.reduced
    problem = ConstrainedProblem(model=m, reduced=r, E=target)
    sol = minimize_constrained(problem)
    E = target if target is not None else float(sol.x @ np.asarray(scenario.market.mu))
    threshold = min_risk_return(problem, sol if target is None else None)
    point = Frontier(E, sol.value, sol.x, is_efficient(E, threshold), "Constrained")
    if fmt == "json":
        header, (row,) = _point_rows(point)
        record = dict(zip(header, row))
        record.update({"multiple": sol.multiple,
                       "kkt_residual": sol.kkt_residual,
                       "kkt_min_dual": sol.kkt_min_dual})
        _emit_record(record, "json", out)
    else:
        _emit_points(point, "csv", out)
    return EXIT_OK


def cmd_validate(scenario: Scenario, weights, cfg: McConfig, fmt, out) -> int:
    m, r = scenario.model, scenario.reduced
    closed = covar_portfolio(m, r, weights)
    est = mc_covar(m, weights, cfg)
    z = 0.0 if est.std_error == 0.0 else (est.estimate - closed.covar) / est.std_error
    record = {
        "closed_form": closed.covar,
        "mc_estimate": est.estimate,
        "mc_std_error": est.std_error,
        "z_score": z,
        "samples": cfg.samples,
        "seed": cfg.seed,
    }
    _emit_record(record, fmt, out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covarsel",
        description="Portfolio selection with a stress-conditional value-at-risk objective")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("describe", help="derived quantities and regime diagnosis")
    common(p)

    p = sub.add_parser("solve", help="closed-form solve at one target return")
    common(p)
    p.add_argument("--E", type=float, default=None)

    p = sub.add_parser("frontier", help="sample the optimal value over a return grid")
    common(p)
    p.add_argument("--E-min", type=float, default=None)
    p.add_argument("--E-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--mode", choices=("covar", "sigma", "var"), default="covar")

    p = sub.add_parser("constrained", help="minimize under the no-short-selling constraint")
    common(p)
    p.add_argument("--E", type=float, default=None)
    p.add_argument("--no-target", action="store_true",
                   help="ignore targets.E and minimize over the whole simplex")
    p.add_argument("--non-negative", action="store_true",
                   help="force the non-negativity constraint even if the scenario omits it")

    p = sub.add_parser("validate", help="Monte-Carlo check of the closed-form risk value")
    common(p)
    p.add_argument("--weights", type=str, default=None,
                   help="comma-separated portfolio weights (default: equal weights)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1_000_000)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        scenario = load_scenario(args.scenario)
        if args.command == "describe":
            return cmd_describe(scenario, args.format, out)
        if args.command == "solve":
            target = _request(args.E, "--E", scenario, "E")
            if target is None:
                raise ScenarioError("solve needs --E or targets.E in the scenario")
            return cmd_solve(scenario, target, args.format, out)
        if args.command == "frontier":
            e_min = _request(args.E_min, "--E-min", scenario, "E_min")
            e_max = _request(args.E_max, "--E-max", scenario, "E_max")
            steps = _request(args.steps, "--steps", scenario, "steps", integer=True)
            if e_min is None or e_max is None or steps is None:
                raise ScenarioError(
                    "frontier needs --E-min/--E-max/--steps or targets in the scenario")
            return cmd_frontier(scenario, e_min, e_max, steps,
                                args.mode, args.format, out)
        if args.command == "constrained":
            if not (scenario.non_negative or args.non_negative):
                raise ScenarioError(
                    "constrained solve requires constraints.non_negative or --non-negative")
            target = None if args.no_target else _request(args.E, "--E", scenario, "E")
            return cmd_constrained(scenario, target, args.format, out)
        # argparse admits only the five commands, so this one is validate.
        if args.weights is not None:
            try:
                weights = np.array([float(v) for v in args.weights.split(",")])
            except ValueError as exc:
                raise ScenarioError(f"--weights: {exc}") from exc
        else:
            weights = np.full(scenario.model.n, 1.0 / scenario.model.n)
        cfg = McConfig(samples=args.samples, seed=args.seed)
        return cmd_validate(scenario, weights, cfg, args.format, out)
    except (NumericalBreakdown, NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except CovarselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of covarsel itself, not of the input
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
