"""The LAPACK-backed Cholesky keeps the positive-definiteness verdict of the
row-loop factorization it replaced, right at the relative pivot floor, and
the blocked substitution on its factor solves like a dense solve."""

import numpy as np
import pytest

from covarsel.linalg import SOLVE_BLOCK, PivotFailure, cholesky_spd, solve_cholesky
from covarsel.model import PD_PIVOT_SCALE


def row_loop_cholesky(a, tol_scale):
    """Reference: the row-loop factorization with the same pivot floor."""
    n = a.shape[0]
    tol = tol_scale * float(np.max(np.diag(a)))
    low = np.zeros((n, n))
    for j in range(n):
        pivot = a[j, j] - low[j, :j] @ low[j, :j]
        if pivot <= tol:
            raise PivotFailure(f"pivot {pivot:.3e} at column {j}")
        low[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def with_pivot(rng, n, j, ratio, tol_scale):
    """Symmetric matrix whose pivot at column j is ``ratio`` times the floor
    ``tol_scale * max(diag)``; every other pivot is between 1 and 4."""
    low = np.tril(rng.normal(size=(n, n)))
    np.fill_diagonal(low, rng.uniform(1.0, 2.0, size=n))
    for _ in range(3):
        a = low @ low.T
        low[j, j] = np.sqrt(ratio * tol_scale * float(np.max(np.diag(a))))
    return low @ low.T


def verdict(factor, a, tol_scale):
    try:
        factor(a, tol_scale)
    except PivotFailure:
        return False
    return True


@pytest.mark.parametrize("n", [3, 10, 30])
@pytest.mark.parametrize("ratio", [0.98, 1.02])
def test_verdict_at_the_floor(n, ratio):
    rng = np.random.default_rng(n)
    for j in (0, n // 2, n - 1):
        a = with_pivot(rng, n, j, ratio, 1e-10)
        expected = ratio > 1.0
        assert verdict(row_loop_cholesky, a, 1e-10) is expected
        assert verdict(cholesky_spd, a, 1e-10) is expected


def test_indefinite_and_accepted_factor():
    rng = np.random.default_rng(3)
    b = with_pivot(rng, 6, 2, 1e6, 1e-10)
    a = b.copy()
    a[2, 2] -= 2.0 * (a[2, 2] - a[2, :2] @ np.linalg.solve(a[:2, :2], a[:2, 2]))
    with pytest.raises(PivotFailure):
        row_loop_cholesky(a, 1e-10)
    with pytest.raises(PivotFailure):
        cholesky_spd(a, PD_PIVOT_SCALE)
    low = cholesky_spd(b, PD_PIVOT_SCALE)
    assert np.allclose(low, row_loop_cholesky(b, 1e-10), rtol=1e-10, atol=1e-12)
    assert np.allclose(low @ low.T, b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, SOLVE_BLOCK - 1, SOLVE_BLOCK, SOLVE_BLOCK + 1,
                               2 * SOLVE_BLOCK + 1, 300])
@pytest.mark.parametrize("columns", [None, 2])
def test_blocked_solve_matches_dense_solve(n, columns):
    rng = np.random.default_rng(n)
    mat = rng.normal(size=(n, n))
    a = mat @ mat.T + n * np.eye(n)
    rhs = rng.normal(size=n if columns is None else (n, columns))
    x = solve_cholesky(cholesky_spd(a, PD_PIVOT_SCALE), rhs)
    ref = np.linalg.solve(a, rhs)
    assert x.shape == rhs.shape
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
