import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covarsel import (DomainError, McConfig, NumericalBreakdown, covar_portfolio, covar_raw,
                      markowitz_frontier, mc_covar, sigma_and_var)
from covarsel.riskmeasures import RHO_TOL, ROUTE_RTOL, _covar_rows, _first
from helpers import random_model


# Closed forms of the three fixture markets, written out coordinate by
# coordinate; they serve as oracles fully independent of the library's
# matrix plumbing.
def ex1_value(x, a=0.8, b=0.7):
    x1, x2, x3 = x
    lin = -(x1 + 4 * x2 + 3 * x3) + a * (x1 - 4 / 3 * x2 + 2 / 3 * x3)
    quad = 20 / 9 * x2 ** 2 - 2 / 9 * x2 * x3 + 5 / 9 * x3 ** 2
    return lin + b * math.sqrt(max(quad, 0.0))


def ex2_value(x):
    x1, x2, x3 = x
    return (-5 * x1 - 14 * x2 + 2 * math.sqrt(max(
        24 * x2 ** 2 - 10 * x2 * x3 + 200 * x3 ** 2, 0.0))) / 5


def ex3_value(x, a, b):
    x1, x2, x3 = x
    return ((a - 1) * x1 + (a - 2) * x2 + (2 * a - 3) * x3
            + 2 * b * math.sqrt(max(2 * x2 ** 2 - x2 * x3 + 3 * x3 ** 2, 0.0)))


class TestBivariate:
    def test_full_correlation_reduces_to_stressed_var(self, example1):
        # Example-1 conditioning asset against itself: -1 + 0.8 = -0.2
        m, r = example1
        rep = covar_portfolio(m, r, [1.0, 0.0, 0.0])
        assert rep.rho == 1.0
        assert rep.covar == pytest.approx(-0.2)

    def test_zero_correlation_is_plain_var(self, example2):
        # x'q = 0 at (0, 1.25, -0.25): E = 3.5, sigma^2 = 2.125, so the value
        # is -E + b sigma.
        m, r = example2
        rep = covar_portfolio(m, r, [0.0, 1.25, -0.25])
        assert rep.rho == pytest.approx(0.0, abs=1e-15)
        assert rep.covar == pytest.approx(-3.5 + 2.0 * math.sqrt(2.125), rel=1e-12)

    def test_example2_vertex(self, example2):
        m, r = example2
        rep = covar_portfolio(m, r, np.array([1.0, 0.0, 0.0]))
        assert rep.covar == pytest.approx(-1.0, abs=1e-12)
        assert rep.rho == pytest.approx(1.0)

    def test_correlation_domain(self, example1):
        # Doubling q makes x'q = 2 sigma at e1, a correlation of 2.
        m, r = example1
        with pytest.raises(DomainError, match="correlation out of range: 2.0"):
            covar_portfolio(m, dataclasses.replace(r, q=2 * r.q), [1.0, 0.0, 0.0])


class TestPortfolioValue:
    def test_example1_paper_point(self, example1):
        m, r = example1
        rep = covar_portfolio(m, r, np.array([2 / 3, 1 / 3, 0.0]))
        assert rep.covar == pytest.approx((-82 + 7 * math.sqrt(5)) / 45, rel=1e-12)
        assert rep.E == pytest.approx(2.0)

    def test_example3_vertex_for_several_intensities(self):
        from conftest import example3_at
        for a, b in [(0.5, 0.5), (1.0, 2.0), (2.7, 0.4)]:
            m, r = example3_at(a, b)
            rep = covar_portfolio(m, r, np.array([1.0, 0.0, 0.0]))
            assert rep.covar == pytest.approx(a - 1.0, abs=1e-12)

    def test_example2_vertex_value(self, example2):
        m, r = example2
        assert covar_portfolio(m, r, [1, 0, 0]).covar == pytest.approx(-1.0)

    def test_weights_must_sum_to_one(self, example2):
        m, r = example2
        with pytest.raises(DomainError, match="sum to"):
            covar_portfolio(m, r, [0.5, 0.2, 0.0])
        with pytest.raises(DomainError, match="sum to"):
            covar_portfolio(m, r, [1.0, 0.0, 1e-9])

    @pytest.mark.parametrize("which", ["ex1", "ex2", "ex3"])
    def test_against_spelled_out_closed_forms(self, which, example1, example2, example3):
        m, r = {"ex1": example1, "ex2": example2, "ex3": example3}[which]
        oracle = {"ex1": ex1_value, "ex2": ex2_value,
                  "ex3": lambda x: ex3_value(x, 1.0, 1.0)}[which]
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=3)
            x = x / x.sum() if abs(x.sum()) > 0.2 else rng.dirichlet(np.ones(3))
            rep = covar_portfolio(m, r, x)
            assert rep.covar == pytest.approx(oracle(x), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("evaluate", [
    lambda m, r, x: covar_raw(m, r, x),
    lambda m, r, x: covar_portfolio(m, r, x),
    lambda m, r, x: sigma_and_var(m, x),
    lambda m, r, x: mc_covar(m, x, McConfig(samples=10_000)),
], ids=["covar_raw", "covar_portfolio", "sigma_and_var", "mc_covar"])
def test_non_finite_weights_are_domain_errors(example2, evaluate, bad):
    m, r = example2
    with pytest.raises(DomainError, match="finite"):
        evaluate(m, r, [bad, 0.5, 0.5])


class TestSigmaAndVar:
    def test_example1_first_asset(self, example1):
        m, _ = example1
        sigma, var = sigma_and_var(m, np.array([1.0, 0.0, 0.0]))
        assert sigma == pytest.approx(1.0)
        assert var == pytest.approx(-1.0 + 0.8)

    def test_example2_second_asset(self, example2):
        m, _ = example2
        sigma, var = sigma_and_var(m, np.array([0.0, 1.0, 0.0]))
        assert sigma == pytest.approx(1.0)
        assert var == pytest.approx(-3.0 + 1.0)

    def test_definitional_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m, _ = random_model(rng)
            x = rng.dirichlet(np.ones(m.n))
            sigma, var = sigma_and_var(m, x)
            assert var == pytest.approx(-(x @ m.to_original(m.mu)) + m.risk.a * sigma,
                                        rel=1e-12, abs=1e-12)


class TestFunctionShape:
    def test_positive_homogeneity(self):
        rng = np.random.default_rng(21)
        for _ in range(250):
            m, r = random_model(rng)
            x = rng.normal(size=m.n) * rng.uniform(0.1, 3.0)
            lam = rng.uniform(0.01, 10.0)
            left = covar_raw(m, r, lam * x)
            right = lam * covar_raw(m, r, x)
            assert left == pytest.approx(right, rel=1e-10, abs=1e-10)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(22)
        for _ in range(250):
            m, r = random_model(rng)
            x = rng.normal(size=m.n)
            y = rng.normal(size=m.n)
            lam = rng.uniform(0.0, 1.0)
            mix = covar_raw(m, r, lam * x + (1 - lam) * y)
            assert mix <= lam * covar_raw(m, r, x) + (1 - lam) * covar_raw(m, r, y) + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_homogeneity_hypothesis(self, lam, seed):
        rng = np.random.default_rng(seed)
        m, r = random_model(rng, n=3)
        x = rng.normal(size=3)
        assert covar_raw(m, r, lam * x) == pytest.approx(
            lam * covar_raw(m, r, x), rel=1e-10, abs=1e-10)

    def test_route_agreement_bulk(self):
        # covar_portfolio raises if the two routes drift; exercising it on a
        # large batch of random portfolios is the agreement test itself.
        rng = np.random.default_rng(23)
        for _ in range(1000):
            m, r = random_model(rng, n=int(rng.integers(3, 6)))
            x = rng.normal(size=m.n)
            s = x.sum()
            x = x / s if abs(s) > 0.1 else rng.dirichlet(np.ones(m.n))
            covar_portfolio(m, r, x)


def _var_minimizer_numeric(m, target):
    """Minimize the plain value-at-risk on the fixed-return slice numerically,
    independent of the closed-form machinery."""
    from scipy.optimize import minimize

    n = m.n
    rows = np.vstack([np.ones(n), m.mu])
    rhs = np.array([1.0, target])
    x0, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    _, _, vt = np.linalg.svd(rows)
    null = vt[2:].T

    def fun(w):
        x = x0 + null @ w
        sig = math.sqrt(float(x @ m.sigma @ x))
        return float(-(x @ m.mu) + m.risk.a * sig)

    def jac(w):
        x = x0 + null @ w
        sig = math.sqrt(float(x @ m.sigma @ x))
        return null.T @ (-m.mu + m.risk.a * (m.sigma @ x) / sig)

    res = minimize(fun, np.zeros(null.shape[1]), jac=jac, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 500})
    return x0 + null @ res.x


def test_var_and_sigma_share_their_minimizer():
    rng = np.random.default_rng(24)
    for _ in range(40):
        m, _ = random_model(rng, n=int(rng.integers(3, 6)))
        target = float(rng.uniform(m.mu.min(), m.mu.max()))
        sigma_argmin = m.to_internal(markowitz_frontier(m, [target])[0][0])
        var_argmin = _var_minimizer_numeric(m, target)
        assert np.max(np.abs(sigma_argmin - var_argmin)) < 1e-8


class TestFirstFailingRow:
    """``_first`` takes the mask of passing rows: None when all pass, else
    the first failing index; the checks of ``_covar_rows`` keep their order."""

    def test_all_pass_and_first_failure(self):
        assert _first(np.ones(5, bool)) is None
        assert _first(np.array([True, False, True, False])) == 1
        assert type(_first(np.array([True, True, False]))) is int

    @pytest.mark.parametrize("check", [
        lambda v: np.isfinite(v),
        lambda v: v > 0.0,
        lambda v: np.abs(v) <= 1.0 + RHO_TOL,
        lambda v: np.abs(v - 0.5) <= ROUTE_RTOL * np.maximum(1.0, np.abs(v)),
    ], ids=["finite", "volatility", "correlation", "routes"])
    def test_nan_row_fails_each_check(self, check):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _first(check(np.array([0.5, 0.5, 0.5]))) is None
            assert _first(check(np.array([0.5, math.nan, 0.5]))) == 1

    def test_volatility_error_before_correlation_error(self, example2):
        """Row 0 has |rho| = 2 under a doubled q, row 1 is the zero
        portfolio with volatility 0: the volatility check, which comes
        first, reports row 1."""
        m, r = example2
        bad = dataclasses.replace(r, q=2.0 * r.q)
        basis = np.eye(m.n)[:1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="correlation out of range: 2.0"):
                _covar_rows(m, bad, np.ones((1, 1)), basis)
            with pytest.raises(NumericalBreakdown, match="portfolio volatility 0.0 is not positive"):
                _covar_rows(m, bad, np.array([[1.0], [0.0]]), basis)

    @pytest.mark.parametrize("row", [0, 2])
    def test_nan_row_in_a_batch(self, example2, row):
        m, r = example2
        coeffs = np.array([[1.0, 0.1], [1.0, 0.2], [1.0, 0.3]])
        basis = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0]])
        _covar_rows(m, r, coeffs, basis)
        coeffs[row, 1] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdown,
                               match="^risk value nan or portfolio variance nan is not finite$"):
                _covar_rows(m, r, coeffs, basis)
