"""Minimization under the no-short-selling constraint.

Feasible sets are the standard simplex or its intersection with a target
return hyperplane.  The objective ``f(x) = c'x + b sqrt(x'Qx)`` (with
``c = a q - mu``) is convex.  ``Q`` is positive semidefinite with null space
spanned by ``e1``, the all-in conditioning-asset portfolio (internal position
0), so on the budget hyperplane ``f`` is smooth everywhere except at ``e1``.

Since ``Q e1 = 0``, ``f`` is affine along every segment from ``e1``.  When
``e1`` is feasible (the simplex, or the slice at the conditioning asset's own
return), every other feasible point lies on such a segment to a point of the
facet ``x1 = 0``.  The minimum is then ``f(e1)`` or the facet minimum, and a
tie makes the whole segment optimal.

On the facet, and on every slice that excludes ``e1``, ``f`` is smooth and
strictly convex, and a primal active-set method finds the exact minimizer
(Nocedal & Wright, *Numerical Optimization*, ch. 16).  Each round minimizes
``f`` in closed form on the affine hull of the current face.  If the way there
leaves the orthant, it steps to the first blocking bound and fixes that bound;
at a face minimizer it releases the bound with the most negative multiplier,
or stops when none is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSlice, NoConvergence, NumericalBreakdown
from .linalg import PivotFailure, cholesky_spd, solve_cholesky
from .model import ValidatedModel
from .reduction import ReducedModel
from .closedform import FrontierPoint
from .riskmeasures import QUAD_FLOOR, _raw_value

ACTIVE_TOL = 1e-7
DUAL_TOL = 1e-8
RANK_RTOL = 1e-12
TARGET_SLACK = 1e-12
ROUNDS_PER_ASSET = 10


@dataclass(frozen=True)
class Simplex:
    """Feasible set {x >= 0, sum(x) = 1}."""


@dataclass(frozen=True)
class SimplexSlice:
    """Feasible set {x >= 0, sum(x) = 1, mu'x = E}."""

    E: float


@dataclass(frozen=True)
class ConstrainedProblem:
    model: ValidatedModel
    reduced: ReducedModel
    E: float | None = None

    def __post_init__(self):
        if self.E is not None:
            mu = self.model.mu
            if not (float(mu.min()) - TARGET_SLACK <= self.E <= float(mu.max()) + TARGET_SLACK):
                raise InfeasibleSlice(
                    f"target return {self.E!r} outside [{mu.min()!r}, {mu.max()!r}]")

    @property
    def feasible_set(self):
        return Simplex() if self.E is None else SimplexSlice(self.E)


@dataclass(frozen=True)
class ConstrainedSolution:
    """``x`` is the minimizer in the caller's asset order.  ``iterations``
    counts active-set rounds.  The KKT fields are evaluated at ``x``; at
    ``e1`` they are ``(0, facet minimum - f(e1))``, which is non-negative
    exactly when ``e1`` is optimal.  ``multiple`` marks a tie between ``e1``
    and the facet minimum, which makes the segment between them optimal."""

    x: np.ndarray
    value: float
    multiple: bool
    iterations: int
    kkt_residual: float
    kkt_min_dual: float
    active_set: tuple[int, ...]


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort based)."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, n + 1)
    mask = u * ks > css - 1.0
    rho = int(np.nonzero(mask)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _rows(mu: np.ndarray, target: float | None):
    """Equality rows and right-hand side of the feasible set."""
    ones = np.ones(mu.shape[0])
    if target is None:
        return ones[None, :], np.array([1.0])
    return np.vstack([ones, mu]), np.array([1.0, float(target)])


def _slice_seed(mu: np.ndarray, target: float):
    """A point of the slice polytope and its free set, or None when the slice
    is empty.  The point mixes the lowest- and highest-return assets, which
    are both free, so the free rows have full rank unless every asset
    returns the target."""
    n = mu.shape[0]
    lo, hi = int(np.argmin(mu)), int(np.argmax(mu))
    if not mu[lo] - TARGET_SLACK <= target <= mu[hi] + TARGET_SLACK:
        return None
    if mu[hi] == mu[lo]:
        return np.full(n, 1.0 / n), np.ones(n, dtype=bool)
    t = min(1.0, max(0.0, (target - mu[lo]) / (mu[hi] - mu[lo])))
    x = np.zeros(n)
    x[lo], x[hi] = 1.0 - t, t
    free = np.zeros(n, dtype=bool)
    free[[lo, hi]] = True
    return x, free


def _rank(svals: np.ndarray) -> int:
    return int(np.sum(svals > RANK_RTOL * svals[0])) if svals.size else 0


def _gradient(c, big_q, b_risk, x):
    """Gradient of ``f`` at ``x``.  Where ``x'Qx < QUAD_FLOOR`` (``x`` on the
    ray of ``e1``) the square-root term has none, and its zero subgradient is
    taken."""
    qx = big_q @ x
    quad = float(x @ qx)
    if quad < QUAD_FLOOR:
        return c
    return c + b_risk * qx / math.sqrt(quad)


def _face_step(cf, qf, b_risk, null, y0):
    """Move from ``y0`` towards the minimum of ``cf'y + b sqrt(y'Qf y)`` on
    the affine hull ``y0 + span(null)`` of one face.

    Returns ``(step, 1.0)`` when that minimum exists, ``y0 + step`` being the
    minimizer, and ``(ray, inf)`` when the objective decreases without end, or
    towards an infimum it never attains, along ``y0 + t * ray``.  ``Qf`` must
    be positive definite on ``span(null)`` and ``y'Qf y`` positive on the hull.
    """
    if null.shape[1] == 0:
        return np.zeros_like(y0), 1.0
    m_red = null.T @ qf @ null
    try:
        low = cholesky_spd(0.5 * (m_red + m_red.T), 1e-13)
    except PivotFailure as exc:
        raise NumericalBreakdown(f"face system lost definiteness: {exc}") from exc
    qy = qf @ y0
    cross = null.T @ qy
    w_center = -solve_cholesky(low, cross)
    v_min = max(float(y0 @ qy + cross @ w_center), 0.0)
    c_red = null.T @ cf
    h = solve_cholesky(low, c_red)
    gap = b_risk * b_risk - float(c_red @ h)
    if gap <= 0.0:
        return -(null @ h), math.inf
    return null @ (w_center - math.sqrt(v_min / gap) * h), 1.0


def _bound_duals(g, rows, free):
    """Stationarity residual on the free coordinates, the smallest multiplier
    of the other bounds, and the bounds to release when it is negative.

    The row multipliers fit ``g`` on the free coordinates in least squares.
    When every free asset returns exactly the slice target, the free rows are
    rank deficient and the row multipliers keep one degree of freedom ``s``.
    It is spent on making the smallest bound multiplier ``d_i - s e_i`` as
    large as possible.  That maximum is set by one bound with ``e_i = 0`` or
    by a pair with ``e_i > 0 > e_j``, which are then released together; it is
    infinite when all ``e_i`` share one strict sign.
    """
    sub = rows[:, free]
    u, svals, vt = np.linalg.svd(sub)
    rank = _rank(svals)
    lam = u[:, :rank] @ ((vt[:rank] @ g[free]) / svals[:rank])
    resid = float(np.abs(g[free] - sub.T @ lam).max(initial=0.0))
    bound = np.flatnonzero(~free)
    if bound.size == 0:
        return resid, 0.0, ()
    duals = g[bound] - rows[:, bound].T @ lam
    if rank == rows.shape[0]:
        k = int(np.argmin(duals))
        return resid, float(duals[k]), (int(bound[k]),)
    slope = rows[:, bound].T @ u[:, rank]
    tol = RANK_RTOL * float(np.abs(rows).max())
    up, down = np.flatnonzero(slope > tol), np.flatnonzero(slope < -tol)
    options = [(float(duals[k]), (k,)) for k in np.flatnonzero(np.abs(slope) <= tol)]
    if up.size and down.size:
        e_up, e_down = slope[up][:, None], slope[down][None, :]
        cross = (-e_down * duals[up][:, None] + e_up * duals[down][None, :]) / (e_up - e_down)
        i, j = np.unravel_index(int(np.argmin(cross)), cross.shape)
        options.append((float(cross[i, j]), (up[i], down[j])))
    if not options:
        return resid, math.inf, ()
    value, pick = min(options, key=lambda o: o[0])
    return resid, value, tuple(int(bound[k]) for k in pick)


def _active_set(c, big_q, b_risk, rows, x, free, budget):
    """Primal active-set minimization over ``{x >= 0, rows x = rows x_start}``.

    Starts from the feasible ``x`` with the bounds outside ``free`` fixed at
    zero.  The objective must be smooth and strictly convex on the polytope.
    Returns the minimizer and the rounds used; raises NoConvergence when the
    budget runs out.
    """
    x, free = x.copy(), free.copy()
    for rounds in range(1, budget + 1):
        idx = np.flatnonzero(free)
        xf = x[idx]
        _, svals, vt = np.linalg.svd(rows[:, idx])
        step, limit = _face_step(c[idx], big_q[np.ix_(idx, idx)], b_risk,
                                 vt[_rank(svals):].T, xf)
        falling = np.flatnonzero(step < 0.0)
        ratios = xf[falling] / -step[falling]
        if ratios.size and ratios.min() < limit:
            k = int(np.argmin(ratios))
            x[idx] = np.maximum(xf + ratios[k] * step, 0.0)
            x[idx[falling[k]]] = 0.0
            free[idx[falling[k]]] = False
            continue
        x[idx] = np.maximum(xf + step, 0.0)
        g = _gradient(c, big_q, b_risk, x)
        _, min_dual, release = _bound_duals(g, rows, free)
        if min_dual >= -DUAL_TOL * max(1.0, float(np.abs(g).max())):
            return x, rounds
        free[list(release)] = True
    raise NoConvergence(f"active-set solve did not finish in {budget} rounds")


def _minimize(c, big_q, b_risk, mu, target, budget):
    """Exact minimizer over the simplex or its slice where the objective is
    smooth there, and the rounds used; ``(None, 0)`` for an empty slice."""
    n = mu.shape[0]
    if target is None:
        start = np.full(n, 1.0 / n), np.ones(n, dtype=bool)
    else:
        start = _slice_seed(mu, target)
        if start is None:
            return None, 0
    return _active_set(c, big_q, b_risk, _rows(mu, target)[0], *start, budget)


def _facet_minimum(c, big_q, b_risk, mu, target, budget):
    """Minimizer over the feasible points with ``x1 = 0`` (or None when there
    are none) and the rounds used."""
    y, rounds = _minimize(c[1:], big_q[1:, 1:], b_risk, mu[1:], target, budget)
    return (None if y is None else np.concatenate(([0.0], y))), rounds


def _e1_feasible(mu, target) -> bool:
    return target is None or abs(target - mu[0]) <= TARGET_SLACK


def _kkt_at(c, big_q, b_risk, rows, x):
    """Stationarity residual and smallest active-bound multiplier at a point
    other than ``e1``; bounds below ACTIVE_TOL count as active."""
    resid, min_dual, _ = _bound_duals(_gradient(c, big_q, b_risk, x), rows, x > ACTIVE_TOL)
    return resid, min_dual


def minimize_constrained(problem: ConstrainedProblem, tol: float = 1e-9) -> ConstrainedSolution:
    """Minimize the conditional risk measure over the feasible polytope.

    ``tol`` is the relative gap below which ``f(e1)`` and the facet minimum
    count as a tie.  The returned point meets the budget to 1e-10 and the
    target return to 1e-10 max(1, |E|).  Raises InfeasibleSlice for
    unreachable targets, NoConvergence when the active-set budget runs out or
    the point misses those tolerances, and NumericalBreakdown when a face
    system loses definiteness (ill-conditioned inputs).
    """
    m, r = problem.model, problem.reduced
    c = m.risk.a * r.q - m.mu
    b_risk = m.risk.b
    budget = ROUNDS_PER_ASSET * m.n
    rows, rhs = _rows(m.mu, problem.E)
    multiple = False
    if _e1_feasible(m.mu, problem.E):
        facet, rounds = _facet_minimum(c, r.Q, b_risk, m.mu, problem.E, budget)
        x = np.zeros(m.n)
        x[0] = 1.0
        value = _raw_value(m, r, x)
        facet_value = math.inf if facet is None else _raw_value(m, r, facet)
        multiple = abs(facet_value - value) <= tol * max(1.0, abs(value))
        if facet_value < value:
            x, value = facet, facet_value
            resid, min_dual = _kkt_at(c, r.Q, b_risk, rows, x)
        else:
            resid, min_dual = 0.0, facet_value - value
    else:
        x, rounds = _minimize(c, r.Q, b_risk, m.mu, problem.E, budget)
        value = _raw_value(m, r, x)
        resid, min_dual = _kkt_at(c, r.Q, b_risk, rows, x)

    defect = np.abs(rows @ x - rhs)
    if not np.all(defect <= 1e-10 * np.maximum(1.0, np.abs(rhs))):
        raise NoConvergence(
            f"constrained solve left the feasible set (defects {defect.tolist()!r})")
    x_out = m.to_original(x)
    return ConstrainedSolution(x=x_out, value=value, multiple=multiple,
                               iterations=rounds, kkt_residual=resid,
                               kkt_min_dual=min_dual,
                               active_set=tuple(int(i) for i in np.flatnonzero(x_out <= ACTIVE_TOL)))


def kkt_certificate(problem: ConstrainedProblem, x):
    """(stationarity residual, smallest active-bound multiplier) at a feasible x.

    At ``e1``, where the square-root term has no gradient, the pair is
    ``(0, facet minimum - f(e1))``, non-negative exactly when ``e1`` is optimal.
    """
    m, r = problem.model, problem.reduced
    c = m.risk.a * r.q - m.mu
    xi = m.to_internal(np.asarray(x, dtype=float))
    if float(xi @ r.Q @ xi) < QUAD_FLOOR:
        facet, _ = _facet_minimum(c, r.Q, m.risk.b, m.mu, problem.E, ROUNDS_PER_ASSET * m.n)
        if facet is None:
            return 0.0, math.inf
        return 0.0, _raw_value(m, r, facet) - _raw_value(m, r, xi)
    return _kkt_at(c, r.Q, m.risk.b, _rows(m.mu, problem.E)[0], xi)


def constrained_frontier(problem: ConstrainedProblem, e_grid) -> list[FrontierPoint]:
    """Constrained minimum per grid return; the lower envelope of the
    feasible region's image.  Points are flagged efficient when no other
    sampled point weakly dominates them (lower value at a return at least as
    high)."""
    m = problem.model
    sols = []
    for e in np.asarray(e_grid, dtype=float):
        sub = ConstrainedProblem(model=m, reduced=problem.reduced, E=float(e))
        sols.append((float(e), minimize_constrained(sub)))
    points = []
    for e, sol in sols:
        dominated = any(o_e >= e - 1e-12 and o_sol.value < sol.value - 1e-10
                        for o_e, o_sol in sols if o_sol is not sol)
        points.append(FrontierPoint(E=e, value=sol.value, weights=sol.x,
                                    efficient=not dominated, status="Constrained"))
    return points
