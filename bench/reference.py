"""Independent reference computations for checking covarsel's outputs.

Uses numpy and scipy only and never imports covarsel.  Every quantity is
rebuilt from the raw inputs (mu, sigma, conditioning asset, a, b) in the
caller's asset order, so a fault in covarsel's reduction, permutation or
evaluation code cannot hide itself in the check.  scipy is imported only by
the SLSQP reference, after the timed part of a run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Market:
    """Raw market; ``y`` is the 0-based index of the conditioning asset."""

    mu: np.ndarray
    sigma: np.ndarray
    y: int
    a: float
    b: float
    q: np.ndarray = field(init=False, repr=False)
    Q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        q = sigma[:, self.y] / math.sqrt(sigma[self.y, self.y])
        big_q = sigma - np.outer(q, q)
        # Q e_Y = 0 exactly; without this the rounding left in Q[y, y] puts a
        # spurious b * sqrt(1e-16 * sigma_Y^2) into the objective at x = e_Y.
        big_q[self.y, :] = 0.0
        big_q[:, self.y] = 0.0
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "Q", big_q)

    @classmethod
    def from_scenario(cls, raw: dict) -> "Market":
        risk = raw["risk"]
        return cls(mu=raw["mu"], sigma=raw["sigma"], y=int(raw["conditioning_asset"]) - 1,
                   a=float(risk["a"]), b=float(risk["b"]))

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @property
    def c(self) -> np.ndarray:
        """Linear part of the objective: -mu + a q."""
        return self.a * self.q - self.mu

    def objective(self, x) -> np.ndarray | float:
        """-x'mu + a x'q + b sqrt(x'Qx), for one point or for rows of points."""
        x = np.asarray(x, dtype=float)
        quad = np.einsum("...i,ij,...j->...", x, self.Q, x)
        return x @ self.c + self.b * np.sqrt(np.maximum(quad, 0.0))

    def gramian(self) -> tuple[float, float, float, float]:
        """(alpha_C, beta_C, gamma_C, detG) from a dense solve with Qhat."""
        keep = np.delete(np.arange(self.n), self.y)
        qhat = self.Q[np.ix_(keep, keep)]
        mu_hat = self.mu[keep] - self.mu[self.y]
        q_hat = self.q[keep] - self.q[self.y]
        u = np.linalg.solve(qhat, mu_hat)
        v = np.linalg.solve(qhat, q_hat)
        alpha, beta, gamma = float(mu_hat @ u), float(mu_hat @ v), float(q_hat @ v)
        return alpha, beta, gamma, alpha * gamma - beta * beta

    def independence(self) -> float:
        """Gramian determinant of (1, mu, q) over the product of squared norms.

        Zero when the three vectors are linearly dependent, at most one.
        """
        vecs = np.vstack([np.ones(self.n), self.mu, self.q])
        gram = vecs @ vecs.T
        return float(np.linalg.det(gram) / np.prod(np.diag(gram)))

    def delta(self) -> float:
        """Solvability discriminant b^2 alpha_C - a^2 detG."""
        alpha, _, _, det_g = self.gramian()
        return self.b * self.b * alpha - self.a * self.a * det_g

    def critical_b(self) -> float:
        """The b at which Delta changes sign: a sqrt(detG / alpha_C)."""
        alpha, _, _, det_g = self.gramian()
        if not (alpha > 0.0 and det_g > 0.0):
            raise ValueError(f"degenerate Gramian: alpha_C={alpha!r} detG={det_g!r}")
        return self.a * math.sqrt(det_g / alpha)


def _null_basis(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of ``rows``."""
    _, svals, vt = np.linalg.svd(rows)
    rank = int(np.sum(svals > 1e-12 * svals.max()))
    return vt[rank:].T


def stationarity_residual(m: Market, x) -> float:
    """Relative size of the gradient's part outside span{1, mu} at x.

    Zero at a minimizer on {1'x = 1, mu'x = E} where x'Qx > 0.  Scaled by the
    larger of the two gradient terms, so it reads as a relative error.
    """
    x = np.asarray(x, dtype=float)
    qx = m.Q @ x
    quad = float(x @ qx)
    if not quad > 0.0:
        raise ValueError("stationarity is undefined at the kink; use kink_margin")
    risk = m.b * qx / math.sqrt(quad)
    g = m.c + risk
    rows = np.vstack([np.ones(m.n), m.mu])
    lam, *_ = np.linalg.lstsq(rows.T, g, rcond=None)
    scale = max(float(np.abs(m.c).max()), float(np.abs(risk).max()), 1e-300)
    return float(np.abs(g - rows.T @ lam).max()) / scale


def kink_margin(m: Market) -> float:
    """One-sided optimality test of x = e_Y on the slice mu'x = mu_Y.

    Along a feasible direction d (1'd = 0, mu'd = 0) the objective changes by
    c'd + b sqrt(d'Qd), because Q e_Y = 0.  That is non-negative for every d
    exactly when b >= sqrt(c_N' (N'QN)^-1 c_N), N a basis of the directions.
    Returns b minus that bound: positive means e_Y is the unique minimizer.
    """
    null = _null_basis(np.vstack([np.ones(m.n), m.mu]))
    c_n = null.T @ m.c
    gram = null.T @ m.Q @ null
    return m.b - math.sqrt(max(float(c_n @ np.linalg.solve(gram, c_n)), 0.0))


def ray_slope(m: Market, direction) -> float:
    """Asymptotic rate c'd + b sqrt(d'Qd) of the objective along base + tau d.

    The objective is convex along the ray, so a negative rate means it
    decreases for every tau >= 0 and is unbounded below.
    """
    d = np.asarray(direction, dtype=float)
    return float(d @ m.c + m.b * math.sqrt(max(float(d @ m.Q @ d), 0.0)))


def polytope_points(mu, target: float | None = None,
                    fractions=(0.25, 0.5, 0.75)) -> np.ndarray:
    """Vertices and points on the edges of {x >= 0, 1'x = 1[, mu'x = E]}.

    Simplex vertices are the unit vectors and its edges join any two.  A
    slice vertex lies on a simplex edge, and two slice vertices whose joint
    support has at most three assets share a 2-face of the simplex, so the
    segment between them is an edge of the slice (or lies inside one).
    """
    mu = np.asarray(mu, dtype=float)
    n = mu.shape[0]
    eye = np.eye(n)
    if target is None:
        verts = [(eye[i], {i}) for i in range(n)]
    else:
        verts = [(eye[i], {i}) for i in range(n) if mu[i] == target]
        for i, j in itertools.combinations(range(n), 2):
            lo, hi = (i, j) if mu[i] < mu[j] else (j, i)
            if mu[lo] < target < mu[hi]:
                t = (mu[hi] - target) / (mu[hi] - mu[lo])
                verts.append((t * eye[lo] + (1.0 - t) * eye[hi], {lo, hi}))
    points = [v for v, _ in verts]
    for (u, su), (v, sv) in itertools.combinations(verts, 2):
        if len(su | sv) <= 3:
            points.extend(f * u + (1.0 - f) * v for f in fractions)
    return np.array(points)


def slsqp_minimize(m: Market, target: float | None = None, starts=()) -> tuple[np.ndarray, float]:
    """SLSQP minimum over the no-short-selling set, best of several starts.

    Each start is a feasible point; a result counts only if it is feasible to
    1e-9.  Returns (x, value) of the best feasible result.
    """
    from scipy.optimize import minimize

    n = m.n
    cons = [{"type": "eq", "fun": lambda x: np.sum(x) - 1.0,
             "jac": lambda x: np.ones(n)}]
    if target is not None:
        cons.append({"type": "eq", "fun": lambda x: m.mu @ x - target,
                     "jac": lambda x: m.mu})

    def grad(x):
        qx = m.Q @ x
        root = math.sqrt(max(float(x @ qx), 0.0))
        return m.c + (m.b * qx / root if root > 1e-150 else 0.0)

    best_x, best_val = None, math.inf
    for x0 in starts:
        res = minimize(m.objective, np.asarray(x0, dtype=float), jac=grad, method="SLSQP",
                       bounds=[(0.0, 1.0)] * n, constraints=cons,
                       options={"ftol": 1e-15, "maxiter": 1000})
        x = res.x
        defect = abs(float(x.sum()) - 1.0)
        if target is not None:
            defect = max(defect, abs(float(m.mu @ x) - target) / max(1.0, abs(target)))
        if defect > 1e-9 or float(x.min()) < -1e-9:
            continue
        val = float(m.objective(np.maximum(x, 0.0)))
        if val < best_val:
            best_x, best_val = x, val
    if best_x is None:
        raise ValueError("SLSQP found no feasible point from any start")
    return best_x, best_val
