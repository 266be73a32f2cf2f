"""Tests of the reference module on the paper's three example markets.

    python3 -m pytest bench/test_reference.py -q

The expected numbers are worked out by hand from the paper's data, or come
from brute force over the feasible set; none is taken from covarsel.
"""

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from fixtures import EXAMPLE1, EXAMPLE2, EXAMPLE3  # noqa: E402
from reference import (Market, kink_margin, polytope_points, ray_slope,  # noqa: E402
                       slsqp_minimize, stationarity_residual)


def _slice_line(m, target):
    """x0 + t d parametrizes {1'x = 1, mu'x = E} for n = 3."""
    rows = np.vstack([np.ones(3), m.mu])
    x0, *_ = np.linalg.lstsq(rows, np.array([1.0, target]), rcond=None)
    return x0, np.linalg.svd(rows)[2][-1]


def _simplex_grid(step=1e-3):
    t = np.arange(0.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(t, t, indexing="ij")
    keep = a + b <= 1.0 + 1e-12
    return np.column_stack([a[keep], b[keep], np.maximum(1.0 - a[keep] - b[keep], 0.0)])


def test_q_and_projected_covariance_example3():
    m = Market.from_scenario(EXAMPLE3)
    np.testing.assert_allclose(m.q, [1.0, 1.0, 2.0])
    np.testing.assert_allclose(m.Q, [[0, 0, 0], [0, 8, -2], [0, -2, 12]], atol=1e-15)


def test_gramian_example3_by_hand():
    # Qhat = [[8, -2], [-2, 12]], mu_hat = (1, 2), q_hat = (0, 1), det Qhat = 92.
    alpha, beta, gamma, det_g = Market.from_scenario(EXAMPLE3).gramian()
    assert alpha == pytest.approx(13 / 23, rel=1e-14)
    assert beta == pytest.approx(9 / 46, rel=1e-14)
    assert gamma == pytest.approx(2 / 23, rel=1e-14)
    assert det_g == pytest.approx(1 / 92, rel=1e-12)


def test_example2_at_E2_is_the_conditioning_asset():
    m = Market.from_scenario(EXAMPLE2)
    assert m.delta() > 0.0
    assert float(m.objective([1.0, 0.0, 0.0])) == -1.0
    assert kink_margin(m) > 0.0
    x0, d = _slice_line(m, 2.0)
    ts = np.linspace(-3.0, 3.0, 60001)
    values = m.objective(x0[None, :] + ts[:, None] * d[None, :])
    assert values.min() >= -1.0 - 1e-12


@pytest.mark.parametrize("raw, unbounded", [(EXAMPLE1, True), (EXAMPLE2, False),
                                            (EXAMPLE3, False)])
def test_delta_sign_matches_a_descent_ray(raw, unbounded):
    # For n = 3 the feasible directions are +-d; the objective is unbounded
    # below on the slice exactly when one of them has a negative rate.
    m = Market.from_scenario(raw)
    _, d = _slice_line(m, 2.0)
    assert (m.delta() < 0.0) == unbounded
    assert (min(ray_slope(m, d), ray_slope(m, -d)) < 0.0) == unbounded


def test_stationarity_residual_vanishes_only_at_the_minimizer():
    m = Market.from_scenario(EXAMPLE3)
    x0, d = _slice_line(m, 2.5)
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda t: float(m.objective(x0 + t * d)), bracket=(-1.0, 1.0),
                          tol=1e-12)
    assert stationarity_residual(m, x0 + res.x * d) < 1e-6
    assert stationarity_residual(m, x0 + (res.x + 0.1) * d) > 1e-3


@pytest.mark.parametrize("raw, target", [(EXAMPLE1, None), (EXAMPLE1, 2.0), (EXAMPLE2, 2.5),
                                         (EXAMPLE3, 1.5)])
def test_polytope_points_are_feasible(raw, target):
    m = Market.from_scenario(raw)
    pts = polytope_points(m.mu, target)
    assert pts.min() >= 0.0
    np.testing.assert_allclose(pts.sum(axis=1), 1.0, atol=1e-15)
    if target is not None:
        np.testing.assert_allclose(pts @ m.mu, target, atol=1e-14)
        assert len(pts) >= 2
    else:
        assert len(pts) == 3 + 3 * 3


def test_slsqp_matches_dense_search_on_example1_slice():
    m = Market.from_scenario(EXAMPLE1)
    x0, d = _slice_line(m, 2.0)
    lo, hi = -np.inf, np.inf
    for xi, di in zip(x0, d):
        bound = -xi / di
        lo, hi = (max(lo, bound), hi) if di > 0 else (lo, min(hi, bound))
    ts = np.linspace(lo, hi, 200001)
    dense = float(m.objective(x0[None, :] + ts[:, None] * d[None, :]).min())
    pts = polytope_points(m.mu, 2.0)
    _, value = slsqp_minimize(m, 2.0, [pts[0], pts.mean(axis=0)])
    assert dense - 1e-6 <= value <= dense + 1e-12


def test_slsqp_matches_grid_on_example2_simplex():
    m = Market.from_scenario(EXAMPLE2)
    grid_min = float(m.objective(_simplex_grid()).min())
    assert grid_min == pytest.approx(-1.0, abs=1e-12)
    _, value = slsqp_minimize(m, None, [np.full(3, 1 / 3), np.array([0.0, 0.5, 0.5])])
    assert value <= grid_min + 1e-6
