"""Dense Cholesky helpers for symmetric positive definite systems.

The factorization is LAPACK's, through ``np.linalg.cholesky``; on top of it a
factor is accepted only if every pivot ``diag(L)**2`` stays above
``tol_scale * max(diag)``.  That makes "positive definite" a deterministic,
reproducible predicate with no eigensolver involved.

The closed-form path factors each market once (``ValidatedModel.chol``);
``solve_cholesky`` solves on such a factor in O(n^2) by blocked forward and
back substitution (Golub and Van Loan, *Matrix Computations*, section 3.1):
numpy has no triangular solve, so each diagonal block of SOLVE_BLOCK rows is
solved by ``np.linalg.solve`` and one BLAS product carries it to the rest.
"""

from __future__ import annotations

import numpy as np

# Rows per diagonal block of the substitution.  Each block costs two
# np.linalg.solve calls, whose overhead outweighs their arithmetic; at
# n = 300, 32 rows timed faster than 16, 48 or 64.
SOLVE_BLOCK = 32


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
    diag_max = float(a.diagonal().max()) if n else 0.0
    if diag_max <= 0.0:
        raise PivotFailure("no positive diagonal entry")
    tol = tol_scale * diag_max
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise PivotFailure(f"factorization failed: {exc}") from exc
    pivots = low.diagonal() ** 2
    if not pivots.min() > tol:
        j = int(np.flatnonzero(~(pivots > tol))[0])
        raise PivotFailure(f"pivot {pivots[j]:.3e} at column {j} below floor {tol:.3e}")
    return low


def solve_cholesky(low: np.ndarray, rhs) -> np.ndarray:
    """Solve ``(L L^T) x = rhs`` given the lower factor ``L``; ``rhs`` is a
    vector or one right-hand side per column."""
    x = np.array(rhs, dtype=float)
    n = low.shape[0]
    starts = range(0, n, SOLVE_BLOCK)
    for s in starts:
        e = s + SOLVE_BLOCK
        x[s:e] = np.linalg.solve(low[s:e, s:e], x[s:e])
        if e < n:
            x[e:] -= low[e:, s:e] @ x[s:e]
    for s in reversed(starts):
        e = s + SOLVE_BLOCK
        if e < n:
            x[s:e] -= low[e:, s:e].T @ x[e:]
        x[s:e] = np.linalg.solve(low[s:e, s:e].T, x[s:e])
    return x
