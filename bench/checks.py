"""Output checks: each compares covarsel's answer with reference.py or with a
property the method must have.  None compares against saved earlier output.

Every check function appends a message to ``errors`` for each violation.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from reference import (Market, kink_margin, polytope_points, ray_slope, slsqp_minimize,
                       stationarity_residual)

FEAS_TOL = 1e-9          # budget and return rows of a closed-form answer
NONNEG_TOL = 1e-10       # bounds and rows of a no-short-selling answer
VALUE_RTOL = 1e-9        # reported value against the reference objective
STATIONARITY_TOL = 1e-7  # relative stationarity residual
CONVEX_RTOL = 1e-9       # second differences of values along a grid
OPTIMALITY_RTOL = 1e-8   # constrained value against polytope points and SLSQP
Z_LIMIT = 5.0            # Monte-Carlo estimate against the reference objective


def _scale(v) -> float:
    return max(1.0, abs(float(v)))


def check_value(m: Market, x, value, errors, label):
    ref = float(m.objective(x))
    if not abs(ref - value) <= VALUE_RTOL * _scale(value):
        errors.append(f"{label}: value {value!r} but objective at x is {ref!r}")


def check_critical_point(m: Market, E, x, value, errors, label):
    """A minimizer on {1'x = 1, mu'x = E} (short selling allowed)."""
    x = np.asarray(x, dtype=float)
    if not (abs(float(x.sum()) - 1.0) <= FEAS_TOL
            and abs(float(m.mu @ x) - E) <= FEAS_TOL * _scale(E)):
        errors.append(f"{label}: infeasible, sum {float(x.sum())!r}, return {float(m.mu @ x)!r}")
        return
    check_value(m, x, value, errors, label)
    unit = np.zeros(m.n)
    unit[m.y] = 1.0
    if np.abs(x - unit).max() <= 1e-12:
        if not kink_margin(m) > 0.0:
            errors.append(f"{label}: x = e_Y fails the one-sided optimality test")
    else:
        resid = stationarity_residual(m, x)
        if not resid <= STATIONARITY_TOL:
            errors.append(f"{label}: stationarity residual {resid:.3e}")


def check_convex(Es, values, errors, label):
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        return
    e = np.asarray(Es, dtype=float)
    # Second divided differences, scaled back to the grid step.
    slopes = np.diff(v) / np.diff(e)
    worst = float(np.min(np.diff(slopes) * np.diff(e)[1:]))
    if not worst >= -CONVEX_RTOL * _scale(np.abs(v).max()):
        errors.append(f"{label}: values not convex in E (second difference {worst:.3e})")


def check_frontier(m: Market, grid, Es, xs, values, errors, label):
    if len(Es) != len(grid) or np.any(np.asarray(Es) != np.asarray(grid)):
        errors.append(f"{label}: frontier rows are not the requested grid in return order")
        return
    for E, x, v in zip(Es, xs, values):
        check_critical_point(m, E, x, v, errors, f"{label} E={E!r}")
    check_convex(Es, values, errors, label)


def check_delta_sign(m: Market, sign, errors, label):
    delta = m.delta()
    if not np.sign(delta) == sign:
        errors.append(f"{label}: reference Delta {delta!r} has the wrong sign")


def check_ray(m: Market, E, base, direction, errors, label):
    """A feasible ray along which the objective decreases without bound."""
    base = np.asarray(base, dtype=float)
    d = np.asarray(direction, dtype=float)
    size = float(np.abs(d).max())
    if not (abs(float(base.sum()) - 1.0) <= FEAS_TOL
            and abs(float(m.mu @ base) - E) <= FEAS_TOL * _scale(E)
            and abs(float(d.sum())) <= FEAS_TOL * size
            and abs(float(m.mu @ d)) <= FEAS_TOL * size * _scale(np.abs(m.mu).max())):
        errors.append(f"{label}: ray leaves the feasible set")
        return
    slope = ray_slope(m, d)
    values = [float(m.objective(base + t * d)) for t in (0.0, 1.0, 10.0, 100.0)]
    if not (slope < 0.0 and all(b < a for a, b in zip(values, values[1:]))):
        errors.append(f"{label}: objective does not decrease along the ray "
                      f"(slope {slope!r}, values {values})")


def check_constrained(m: Market, E, x, value, errors, label):
    """A minimizer over {x >= 0, 1'x = 1} or its slice at mu'x = E."""
    x = np.asarray(x, dtype=float)
    defect = abs(float(x.sum()) - 1.0)
    if E is not None:
        defect = max(defect, abs(float(m.mu @ x) - E) / _scale(E))
    if not (float(x.min()) >= -NONNEG_TOL and defect <= NONNEG_TOL):
        errors.append(f"{label}: infeasible, min weight {float(x.min())!r}, row defect {defect!r}")
        return
    check_value(m, x, value, errors, label)
    points = polytope_points(m.mu, E)
    vals = m.objective(points)
    best = int(np.argmin(vals))
    tol = OPTIMALITY_RTOL * _scale(value)
    if not value <= float(vals[best]) + tol:
        errors.append(f"{label}: value {value!r} above polytope point value {float(vals[best])!r}")
    starts = [points[best], points[:m.n].mean(axis=0) if E is None else points.mean(axis=0)]
    _, ref = slsqp_minimize(m, E, starts)
    if not value <= ref + tol:
        errors.append(f"{label}: value {value!r} above the SLSQP reference {ref!r}")


# ---- CLI output parsing ---------------------------------------------------

def _weights(row: dict, n: int) -> np.ndarray:
    return np.array([float(row[f"w{i}"]) for i in range(1, n + 1)])


def _options(argv) -> dict:
    """``--name value`` pairs of an argv; a flag without a value maps to True."""
    opts = {}
    for tok, nxt in zip(argv, [*argv[1:], None]):
        if tok.startswith("--"):
            opts[tok] = nxt if nxt is not None and not nxt.startswith("--") else True
    return opts


def parse_rows(stdout: str, fmt: str) -> list[dict]:
    """Frontier-style rows from CSV or JSON output."""
    if fmt == "json":
        data = json.loads(stdout)
        return data if isinstance(data, list) else [data]
    return list(csv.DictReader(io.StringIO(stdout)))


def check_cli_call(m: Market, scenario: dict, argv, code: int, stdout: str,
                   errors, label):
    """Exit code and output of one successful-path CLI call."""
    cmd = argv[0]
    opts = _options(argv)
    fmt = opts["--format"]
    sign = 1 if m.delta() > 0 else -1
    if cmd == "describe":
        expected = 0 if sign > 0 else 1
        record = json.loads(stdout)
        if code != expected or record["status"] != ("Unique" if sign > 0 else "UnboundedBelow"):
            errors.append(f"{label}: exit {code}, status {record['status']!r}, "
                          f"reference Delta sign {sign}")
        return
    if cmd == "validate":
        record = json.loads(stdout)
        w = np.array([float(v) for v in opts["--weights"].split(",")])
        check_value(m, w, float(record["closed_form"]), errors, label)
        se = float(record["mc_std_error"])
        z = (float(record["mc_estimate"]) - float(m.objective(w))) / se
        if code != 0 or not abs(z) <= Z_LIMIT or not abs(float(record["z_score"])) <= Z_LIMIT:
            errors.append(f"{label}: exit {code}, Monte-Carlo z {z:.2f}")
        return
    if cmd == "constrained":
        row = json.loads(stdout)
        E = None if "--no-target" in opts else float(opts.get("--E", scenario["targets"].get("E")))
        if code != 0:
            errors.append(f"{label}: exit {code}")
            return
        check_constrained(m, E, _weights(row, m.n), float(row["value"]), errors, label)
        return
    if cmd == "solve":
        E = float(opts.get("--E", scenario["targets"].get("E")))
        if sign < 0:
            record = json.loads(stdout)
            if code != 1 or record["status"] != "UnboundedBelow":
                errors.append(f"{label}: exit {code}, status {record['status']!r}")
                return
            check_ray(m, E, record["ray_base"], record["ray_direction"], errors, label)
            return
        rows = parse_rows(stdout, fmt)
        if code != 0 or len(rows) != 1:
            errors.append(f"{label}: exit {code}, {len(rows)} rows")
            return
        check_critical_point(m, E, _weights(rows[0], m.n), float(rows[0]["value"]), errors, label)
        return
    if cmd == "frontier":
        rows = parse_rows(stdout, fmt)
        grid = np.linspace(float(opts["--E-min"]), float(opts["--E-max"]), int(opts["--steps"]))
        if code != 0:
            errors.append(f"{label}: exit {code}")
            return
        check_frontier(m, grid, [float(r["E"]) for r in rows], [_weights(r, m.n) for r in rows],
                       [float(r["value"]) for r in rows], errors, label)
        return
    errors.append(f"{label}: no check for command {cmd!r}")


def known_fault_fixed(argv, code: int, stdout: str, stderr: str) -> bool:
    """Whether a call that covarsel gets wrong today now behaves as documented.

    It passes by exiting 2 with a one-line message and no traceback; the
    reversed frontier also passes by printing its rows in return order.
    """
    if code == 2 and "Traceback" not in stderr and len(stderr.strip().splitlines()) == 1:
        return True
    if argv[0] == "frontier" and code == 0:
        es = [float(r["E"]) for r in parse_rows(stdout, _options(argv)["--format"])]
        return len(es) > 1 and all(a < b for a, b in zip(es, es[1:]))
    return False

