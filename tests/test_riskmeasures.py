import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covarsel import (DomainError, McConfig, NumericalBreakdown, covar_portfolio, frontier,
                      markowitz_frontier, mc_covar, solve_critical)
from covarsel.riskmeasures import COND_SD_SLACK, ROUTE_RTOL, _covar_rows, _first, _pair_law
from helpers import covar_at, ill_conditioned_model, random_model


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
        # Doubling q makes x'q = 2 sigma at e1; rho, taken from the factor, stays 1,
        # so the reduced form's a x'q is off by a sigma1 = 0.8.
        m, r = example1
        with pytest.raises(NumericalBreakdown, match="routes disagree: 0.600"):
            covar_portfolio(m, dataclasses.replace(r, q=2 * r.q), [1.0, 0.0, 0.0])


# Each scales q or Q of a correct reduction, keeping the rest of it.  On
# example 2 at (0.2, 0.5, 0.3) each was answered while the second route took
# rho from x'q and 1 - rho^2 from x'Qx, repeating the reduced form.
CORRUPTIONS = [(field, scale) for field in ("q", "Q")
               for scale in (1 - 1e-3, 1 + 1e-3, 1 - 1e-6, 1 + 1e-6)] + [("Q", 0.5)]


# Each scales column 0 or columns 1 and up of the Cholesky factor, after the
# reduction was taken from sigma.
FACTOR_CORRUPTIONS = [(start, stop, scale) for start, stop in ((0, 1), (1, None))
                      for scale in (1 - 1e-3, 1 - 1e-6, 1 + 1e-6)]


class TestRoutesFromSigma:
    """The reduced form is compared with the conditional law read off the
    Cholesky factor of sigma, so a reduction that disagrees with sigma, or a
    factor that does, fails wherever it is evaluated."""

    @pytest.mark.parametrize("field, scale", CORRUPTIONS)
    @pytest.mark.parametrize("fixture", ["example1", "example2", "example3"])
    def test_corrupted_reduction_fails_evaluation(self, request, fixture, field, scale):
        m, r = request.getfixturevalue(fixture)
        bad = dataclasses.replace(r, **{field: scale * getattr(r, field)})
        with pytest.raises(NumericalBreakdown, match="routes disagree"):
            covar_portfolio(m, bad, [0.2, 0.5, 0.3])

    @pytest.mark.parametrize("field, scale", CORRUPTIONS)
    @pytest.mark.parametrize("fixture", ["example2", "example3"])
    def test_corrupted_reduction_fails_solves(self, request, fixture, field, scale):
        m, r = request.getfixturevalue(fixture)
        bad = dataclasses.replace(r, **{field: scale * getattr(r, field)})
        with pytest.raises(NumericalBreakdown):
            solve_critical(m, bad, m.mu1 + 1.0)
        with pytest.raises(NumericalBreakdown):
            frontier(m, bad, 0.0, 5.0, 11)

    @pytest.mark.parametrize("start, stop, scale", FACTOR_CORRUPTIONS)
    @pytest.mark.parametrize("fixture", ["example1", "example2", "example3"])
    def test_corrupted_factor_fails_evaluation(self, request, fixture, start, stop, scale):
        """The second route reads the factor, so a factor that disagrees with
        sigma, where q and Q come from, fails too."""
        m, r = request.getfixturevalue(fixture)
        bad = dataclasses.replace(m)
        low = np.array(m.chol)
        low[:, start:stop] *= scale
        bad.__dict__["chol"] = low
        with pytest.raises(NumericalBreakdown, match="routes disagree"):
            covar_portfolio(bad, r, [0.2, 0.5, 0.3])

    def test_conditioning_asset_gap_under_half_its_allowance(self, example1, example2,
                                                             example3):
        """At e_Y the pair law has no spread and l0 = L00 = q_Y: the routes
        agree to rounding, within half the ROUTE_RTOL allowance alone."""
        rng = np.random.default_rng(31)
        pairs = [example1, example2, example3] + [random_model(rng) for _ in range(300)]
        for m, r in pairs:
            coeffs, basis = np.ones((1, 1)), np.eye(m.n)[:1]
            _, _, _, cond_mean, scale = _pair_law(m, coeffs, basis)
            value = _covar_rows(m, r, coeffs, basis)[3]
            gap = np.abs(-cond_mean + m.risk.b * scale - value)
            assert gap[0] <= 0.5 * ROUTE_RTOL * max(1.0, abs(value[0]))

    def test_ill_conditioned_routes_differ_past_the_relative_tolerance(self):
        """Market 37 of the seed-700 ill-conditioned sweep (n = 8, rank-one
        AA' plus a 1.6e-8 ridge, cond(sigma) 4.4e8, b about 1.9e5): at equal
        weights the two roots of x'Qx differ by more than ROUTE_RTOL allows,
        and the evaluation still answers, on the b sigma_X slack."""
        m, r = ill_conditioned_model(700, 37)
        xi = np.full(m.n, 1.0 / m.n)
        value = covar_portfolio(m, r, m.to_original(xi)).covar
        _, _, _, cond_mean, scale = (float(v[0]) for v in _pair_law(m, np.ones((1, 1)),
                                                                      xi[None, :]))
        assert abs(-cond_mean + m.risk.b * scale - value) > ROUTE_RTOL * max(1.0, abs(value))

    def test_correlation_within_one_without_a_clamp(self):
        """rho = l0 / |l| lies in [-1, 1] at e_Y + eps d (1'd = 0) down to
        eps = 1e-12, and is exactly 1 at e_Y."""
        rng = np.random.default_rng(41)
        for _ in range(300):
            m, r = random_model(rng)
            e_y = np.eye(m.n)[0]
            assert covar_portfolio(m, r, m.to_original(e_y)).rho == 1.0
            d = rng.normal(size=m.n)
            d -= d.mean()
            for eps in 10.0 ** -np.arange(2, 13):
                rho = covar_portfolio(m, r, m.to_original(e_y + eps * d)).rho
                assert -1.0 <= rho <= 1.0, (eps, rho)


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
    lambda m, r, x: m.to_internal(x),
    lambda m, r, x: covar_portfolio(m, r, x),
    lambda m, r, x: mc_covar(m, x, McConfig(samples=10_000)),
], ids=["to_internal", "covar_portfolio", "mc_covar"])
def test_non_finite_weights_are_domain_errors(example2, evaluate, bad):
    m, r = example2
    with pytest.raises(DomainError, match="finite"):
        evaluate(m, r, [bad, 0.5, 0.5])


class TestSigmaAndVar:
    def test_example1_first_asset(self, example1):
        rep = covar_portfolio(*example1, np.array([1.0, 0.0, 0.0]))
        assert rep.sigma == pytest.approx(1.0)
        assert rep.var_alpha == pytest.approx(-1.0 + 0.8)

    def test_example2_second_asset(self, example2):
        rep = covar_portfolio(*example2, np.array([0.0, 1.0, 0.0]))
        assert rep.sigma == pytest.approx(1.0)
        assert rep.var_alpha == pytest.approx(-3.0 + 1.0)

    def test_definitional_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m, r = random_model(rng)
            x = rng.dirichlet(np.ones(m.n))
            rep = covar_portfolio(m, r, x)
            sigma, var = rep.sigma, rep.var_alpha
            assert var == pytest.approx(-(x @ m.to_original(m.mu)) + m.risk.a * sigma,
                                        rel=1e-12, abs=1e-12)


class TestFunctionShape:
    def test_positive_homogeneity(self):
        rng = np.random.default_rng(21)
        for _ in range(250):
            m, r = random_model(rng)
            x = rng.normal(size=m.n) * rng.uniform(0.1, 3.0)
            lam = rng.uniform(0.01, 10.0)
            left = covar_at(m, r, lam * x)
            right = lam * covar_at(m, r, x)
            assert left == pytest.approx(right, rel=1e-10, abs=1e-10)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(22)
        for _ in range(250):
            m, r = random_model(rng)
            x = rng.normal(size=m.n)
            y = rng.normal(size=m.n)
            lam = rng.uniform(0.0, 1.0)
            mix = covar_at(m, r, lam * x + (1 - lam) * y)
            assert mix <= lam * covar_at(m, r, x) + (1 - lam) * covar_at(m, r, y) + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(lam=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_homogeneity_hypothesis(self, lam, seed):
        rng = np.random.default_rng(seed)
        m, r = random_model(rng, n=3)
        x = rng.normal(size=3)
        assert covar_at(m, r, lam * x) == pytest.approx(
            lam * covar_at(m, r, x), rel=1e-10, abs=1e-10)

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
        m, r = random_model(rng, n=int(rng.integers(3, 6)))
        target = float(rng.uniform(m.mu.min(), m.mu.max()))
        sigma_argmin = m.to_internal(markowitz_frontier(m, r, [target])[0][0])
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
        lambda v: np.abs(v - 0.5) <= ROUTE_RTOL * np.maximum(1.0, np.abs(v)) + COND_SD_SLACK * v,
    ], ids=["finite", "volatility", "routes"])
    def test_nan_row_fails_each_check(self, check):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _first(check(np.array([0.5, 0.5, 0.5]))) is None
            assert _first(check(np.array([0.5, math.nan, 0.5]))) == 1

    def test_volatility_error_before_correlation_error(self, example2):
        """Row 0 fails the route comparison under a doubled q, row 1 is the
        zero portfolio with volatility 0: the volatility check, which comes
        first, reports row 1."""
        m, r = example2
        bad = dataclasses.replace(r, q=2.0 * r.q)
        basis = np.eye(m.n)[:1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdown, match="routes disagree: 0.0 vs -1.0"):
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
