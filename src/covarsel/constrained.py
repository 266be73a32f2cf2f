"""Minimization under the no-short-selling constraint.

Feasible sets are the standard simplex or its intersection with a target
return hyperplane.  The objective ``f(x) = c'x + b sqrt(x'Qx)`` (with
``c = a q - mu``, or ``a q`` on a slice, where ``mu'x = E`` is fixed) is
convex.  ``Q`` is positive semidefinite with null space spanned by ``e1``,
the all-in conditioning-asset portfolio (internal position 0), so on the
budget hyperplane ``f`` is smooth everywhere except at ``e1``.

Since ``Q e1 = 0``, ``f`` is affine along every segment from ``e1``.  When
``e1`` is feasible (the simplex, or the slice at the conditioning asset's own
return), every other feasible point lies on such a segment to a point of the
facet ``x1 = 0``.  The minimum is then ``f(e1)`` or the facet minimum, and a
tie makes the whole segment optimal.

On the facet, and on every slice that excludes ``e1``, ``f`` is smooth and
strictly convex, and a primal active-set method finds the exact minimizer
(Nocedal & Wright, *Numerical Optimization*, ch. 16).  Each round minimizes
``f`` on the affine hull of the current face (one KKT solve and a quadratic).
If the way there leaves the orthant, it steps to the first blocking bound and
fixes that bound; at a face minimizer it releases the bound with the most
negative multiplier, or stops when none is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSlice, NoConvergence, NumericalBreakdown
from .model import ValidatedModel
from .reduction import ReducedModel
from .closedform import CONSTRAINT_TOL, TARGET_SLACK, Frontier
from .riskmeasures import QUAD_FLOOR, _raw_value

ACTIVE_TOL = 1e-7
DUAL_TOL = 1e-8
RANK_RTOL = 1e-12
ROUNDS_PER_ASSET = 10
TIE_RTOL = 1e-9  # relative gap at which f(e1) and the facet minimum tie
DOMINANCE_SLACK = 1e-10  # how much lower a dominating frontier value must be


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


def _linear_term(problem: ConstrainedProblem) -> np.ndarray:
    """``c`` of the objective: ``a q - mu``, or ``a q`` on a slice, where
    ``mu'x = E`` is constant and a huge return would void the dual test."""
    c = problem.model.risk.a * problem.reduced.q
    return c if problem.E is not None else c - problem.model.mu


def _independent_rows(sub) -> int:
    """Rank of the free rows ``sub`` (ones, then on a slice ``mu_F``): 1 when
    ``mu_F`` spreads by at most RANK_RTOL times its largest magnitude."""
    mu_f = sub[-1]
    return 1 + int(sub.shape[0] == 2 and np.ptp(mu_f) > RANK_RTOL * np.abs(mu_f).max())


def _gradient(c, big_q, b_risk, x):
    """Gradient of ``f`` at ``x``.  Where ``x'Qx = 0`` (``x`` on the ray of
    ``e1``) the square-root term has none, and its zero subgradient is taken;
    near that ray its gradient is still of order one."""
    qx = big_q @ x
    quad = float(x @ qx)
    if quad <= 0.0:
        return c
    return c + b_risk * qx / math.sqrt(quad)


def _face_step(cf, pf, b_risk, sub, y0):
    """Move from ``y0`` towards the minimum of ``cf'y + b sqrt(y'Pf y)`` on
    ``{A y = A y0}``, ``A`` being ``sub``'s independent rows.  It lies
    at ``y_r + tau y_c``: one solve of ``K = [[Pf, A'], [A, 0]]``, refined once
    for badly scaled returns, gives ``y_r`` from ``[0; A y0]`` and ``y_c`` from
    ``[-cf; 0]``, and ``tau = sqrt(p0 / (b^2 - p2))`` with ``p0 = y_r'Pf y_r``
    and ``p2 = y_c'Pf y_c``.  The cross term ``y_r'Pf y_c`` vanishes, as
    ``Pf y_r`` lies in the row space of ``A`` and ``A y_c = 0``.

    Returns ``(step, 1.0)`` with ``y0 + step`` the minimizer, or ``(y_c, inf)``
    when ``p2 >= b^2`` and the objective falls without end, or towards an
    infimum it never attains, along ``y0 + t y_c``.  Raises NumericalBreakdown
    when ``K`` is singular or ``p0`` or ``p2`` is negative (lost definiteness).
    """
    a_rows = sub[:_independent_rows(sub)]
    k, rank = y0.shape[0], a_rows.shape[0]
    kkt = np.block([[pf, a_rows.T], [a_rows, np.zeros((rank, rank))]])
    rhs = np.zeros((k + rank, 2))
    rhs[k:, 0], rhs[:k, 1] = a_rows @ y0, -cf
    try:
        sol = np.linalg.solve(kkt, rhs)
        sol += np.linalg.solve(kkt, rhs - kkt @ sol)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"face system is singular: {exc}") from exc
    y_r, y_c = sol[:k].T
    p0, p2 = float(y_r @ pf @ y_r), float(y_c @ pf @ y_c)
    if not (0.0 <= p0 < math.inf and 0.0 <= p2 < math.inf):
        raise NumericalBreakdown(f"face system lost definiteness (p0 {p0!r}, p2 {p2!r})")
    gap = b_risk * b_risk - p2
    if gap <= 0.0:
        return y_c, math.inf
    return y_r + math.sqrt(p0 / gap) * y_c - y0, 1.0


def _bound_duals(g, rows, free):
    """Stationarity residual on the free coordinates, the smallest multiplier
    of the other bounds, and the bounds to release when it is negative.

    The row multipliers fit ``g_F`` in least squares: its mean plus, on a
    slice, a slope on the centred returns ``e = mu - mean(mu_F)``.  When
    ``mu_F`` does not vary, the bound multipliers ``d_i - s e_i`` keep one
    degree of freedom ``s``, spent on making the smallest as large as
    possible.  That maximum is set by one bound with ``e_i = 0`` or by a pair
    with ``e_i > 0 > e_j``, which are then released together; it is infinite
    when all ``e_i`` share one strict sign.
    """
    rank = _independent_rows(rows[:, free])
    centred = rows[-1] - rows[-1, free].mean()
    fit = np.full(g.shape[0], g[free].mean())
    if rank == 2:
        unit = centred / np.abs(centred[free]).max()
        fit += unit * ((unit[free] @ g[free]) / (unit[free] @ unit[free]))
    resid = float(np.abs(g[free] - fit[free]).max(initial=0.0))
    bound = np.flatnonzero(~free)
    if bound.size == 0:
        return resid, 0.0, ()
    duals = g[bound] - fit[bound]
    if rank == rows.shape[0]:
        k = int(np.argmin(duals))
        return resid, float(duals[k]), (int(bound[k]),)
    slope = centred[bound]
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
    """Primal active-set minimization over ``{x >= 0, rows x = rows x_start}``
    from the feasible ``x``, the bounds outside ``free`` fixed at zero.  The
    objective must be smooth and strictly convex on the polytope.  Returns the
    minimizer and the rounds used; raises NoConvergence when the budget runs out.
    """
    x, free = x.copy(), free.copy()
    for rounds in range(1, budget + 1):
        idx = np.flatnonzero(free)
        xf = x[idx]
        step, limit = _face_step(c[idx], big_q[np.ix_(idx, idx)], b_risk, rows[:, idx], xf)
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


def _kkt_at(c, big_q, b_risk, rows, x):
    """Stationarity residual and smallest active-bound multiplier at a point
    other than ``e1``; bounds below ACTIVE_TOL count as active."""
    return _bound_duals(_gradient(c, big_q, b_risk, x), rows, x > ACTIVE_TOL)[:2]


def minimize_constrained(problem: ConstrainedProblem) -> ConstrainedSolution:
    """Minimize the conditional risk measure over the feasible polytope.

    ``f(e1)`` and the facet minimum count as a tie when their gap is at most
    TIE_RTOL max(1, |f(e1)|).  The returned point meets the budget to
    CONSTRAINT_TOL and the target return to CONSTRAINT_TOL max(1, |E|).
    Raises InfeasibleSlice for unreachable targets, NoConvergence when the
    active-set budget runs out or the point misses those tolerances, and
    NumericalBreakdown when a face's KKT matrix is singular or its quadratic
    form turns negative (ill-conditioned inputs).
    """
    m, r = problem.model, problem.reduced
    c = _linear_term(problem)
    b_risk = m.risk.b
    budget = ROUNDS_PER_ASSET * m.n
    rows, rhs = _rows(m.mu, problem.E)
    multiple = False
    if problem.E is None or abs(problem.E - m.mu[0]) <= TARGET_SLACK:  # e1 is feasible
        facet, rounds = _facet_minimum(c, r.Q, b_risk, m.mu, problem.E, budget)
        x = np.eye(1, m.n)[0]
        value = _raw_value(m, r, x)
        facet_value = math.inf if facet is None else _raw_value(m, r, facet)
        multiple = abs(facet_value - value) <= TIE_RTOL * max(1.0, abs(value))
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
    if not np.all(defect <= CONSTRAINT_TOL * np.maximum(1.0, np.abs(rhs))):
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
    c = _linear_term(problem)
    xi = m.to_internal(x)
    if float(xi @ r.Q @ xi) < QUAD_FLOOR:
        facet, _ = _facet_minimum(c, r.Q, m.risk.b, m.mu, problem.E, ROUNDS_PER_ASSET * m.n)
        if facet is None:
            return 0.0, math.inf
        return 0.0, _raw_value(m, r, facet) - _raw_value(m, r, xi)
    return _kkt_at(c, r.Q, m.risk.b, _rows(m.mu, problem.E)[0], xi)


def constrained_frontier(problem: ConstrainedProblem, e_grid) -> Frontier:
    """Constrained minimum per grid return; the lower envelope of the
    feasible region's image, as one ``Frontier`` record with status
    "Constrained".  Points are flagged efficient when no other sampled point
    weakly dominates them (lower value at a return at least as high)."""
    grid = np.asarray(e_grid, dtype=float)
    sols = [minimize_constrained(ConstrainedProblem(model=problem.model, reduced=problem.reduced,
                                                    E=e)) for e in grid.tolist()]
    values = np.array([sol.value for sol in sols], dtype=float)
    dominated_by = (grid >= grid[:, None] - TARGET_SLACK) \
        & (values < values[:, None] - DOMINANCE_SLACK)
    np.fill_diagonal(dominated_by, False)
    weights = np.reshape([sol.x for sol in sols], (len(sols), problem.model.n))
    return Frontier(grid, values, weights, ~dominated_by.any(axis=1), "Constrained")
