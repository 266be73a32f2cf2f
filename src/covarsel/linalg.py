"""Dense Cholesky helpers for symmetric positive definite systems.

The factorization is LAPACK's, through ``np.linalg.cholesky``; on top of it a
factor is accepted only if every pivot ``diag(L)**2`` stays above
``tol_scale * max(diag)``.  That makes "positive definite" a deterministic,
reproducible predicate with no eigensolver involved.

The closed-form path factors each market once (``ValidatedModel.chol``) and
solves through ``np.linalg.solve``, as the constrained solver's face step does.
Nothing in covarsel calls the row-loop ``solve_cholesky``; the bench traces it.
"""

from __future__ import annotations

import numpy as np


class PivotFailure(ValueError):
    """Internal: a Cholesky pivot fell below the relative floor."""


def cholesky_spd(a: np.ndarray, tol_scale: float) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix with a relative pivot floor.

    Raises PivotFailure when LAPACK finds the matrix not positive definite,
    or when any pivot ``L[j, j]**2`` is not larger than
    ``tol_scale * max(diag(a))``.  Only the lower triangle of ``a`` is read.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    diag_max = float(np.max(np.diag(a))) if n else 0.0
    if diag_max <= 0.0:
        raise PivotFailure("no positive diagonal entry")
    tol = tol_scale * diag_max
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise PivotFailure(f"factorization failed: {exc}") from exc
    pivots = np.diag(low) ** 2
    below = np.flatnonzero(~(pivots > tol))
    if below.size:
        j = int(below[0])
        raise PivotFailure(f"pivot {pivots[j]:.3e} at column {j} below floor {tol:.3e}")
    return low


def solve_cholesky(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = rhs`` given the lower factor ``L``."""
    n = low.shape[0]
    y = np.empty(n)
    for i in range(n):
        y[i] = (rhs[i] - low[i, :i] @ y[:i]) / low[i, i]
    x = np.empty(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - low[i + 1:, i] @ x[i + 1:]) / low[i, i]
    return x
