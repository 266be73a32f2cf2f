import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covarsel import (BadQuantileLevel, DimensionMismatch, DomainError,
                      MarketModel, MuParallelToOnes, NotPositiveDefinite,
                      RiskParams, normal_quantile, solve_critical, validate_model)
from covarsel.model import SYMMETRY_RTOL, standard_normal_cdf
from helpers import random_model


def erf_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def bisect_quantile(p, lo=-12.0, hi=12.0):
    """Independent inversion of the normal CDF by plain bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if erf_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalQuantile:
    def test_median_is_exactly_zero(self):
        assert normal_quantile(0.5) == 0.0

    def test_example1_stress_level(self):
        # a = 8/10 corresponds to the level Phi(-0.8)
        p = erf_cdf(-0.8)
        assert p == pytest.approx(0.2118553985833967, abs=1e-12)
        assert normal_quantile(p) == pytest.approx(-0.8, abs=1e-10)

    def test_two_and_a_half_percent(self):
        expected = bisect_quantile(0.025)
        assert expected == pytest.approx(-1.959964, abs=1e-6)
        assert normal_quantile(0.025) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            normal_quantile(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_round_trip(self, z):
        # Rounding Phi(z) to a double near 1 already loses ~ulp(p)/pdf(z) of z,
        # so the tolerance carries that representation floor (it only matters
        # in the far upper tail, z above about 5.7).
        p = standard_normal_cdf(z)
        floor = np.spacing(p) / max(math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi), 1e-300)
        assert normal_quantile(p) == pytest.approx(z, abs=1e-9 + floor)

    def test_round_trip_lower_range_tight(self):
        for z in np.linspace(-6.0, 5.5, 201):
            assert normal_quantile(standard_normal_cdf(z)) == pytest.approx(z, abs=1e-9)

    def test_tail_accuracy_against_bisection(self):
        for p in (1e-10, 1e-6, 0.2118553985833967, 0.49, 0.99):
            assert normal_quantile(p) == pytest.approx(bisect_quantile(p), abs=1e-9)


class TestRiskParams:
    def test_from_levels(self):
        rp = RiskParams.from_levels(0.05, 0.01)
        assert rp.a == pytest.approx(1.6448536269514722, abs=1e-9)
        assert rp.b == pytest.approx(2.3263478740408408, abs=1e-9)
        assert rp.alpha == 0.05

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.1), (0.0, 0.1), (0.1, 0.7)])
    def test_levels_outside_half_interval(self, alpha, beta):
        with pytest.raises(BadQuantileLevel):
            RiskParams.from_levels(alpha, beta)

    def test_direct_intensities_must_be_positive(self):
        with pytest.raises(BadQuantileLevel):
            RiskParams(a=-1.0, b=2.0)
        with pytest.raises(BadQuantileLevel):
            RiskParams(a=1.0, b=0.0)

    def test_large_direct_intensities_allowed(self):
        # Any positive pair is a legitimate stress choice (b = 2 ~ level 0.023).
        rp = RiskParams(a=1.0, b=2.0)
        assert 0.0 < rp.beta_level < 0.5


class TestValidateModel:
    def test_example2_inputs_are_valid(self, example2):
        m, _ = example2
        assert m.n == 3
        assert m.mu1 == 2.0
        assert m.sigma1 == 1.0

    def test_mu_parallel_to_ones(self):
        with pytest.raises(MuParallelToOnes):
            validate_model(MarketModel(mu=[1.0, 1.0, 1.0], sigma=np.eye(3),
                                       conditioning_asset=1, risk=RiskParams(a=1, b=1)))

    def test_rank_one_covariance_rejected(self):
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(NotPositiveDefinite):
            validate_model(MarketModel(mu=[1.0, 2.0, 3.0], sigma=np.outer(v, v),
                                       conditioning_asset=1, risk=RiskParams(a=1, b=1)))

    def test_asymmetric_covariance_rejected(self):
        sigma = np.eye(3)
        sigma[0, 1] = 0.5
        with pytest.raises(NotPositiveDefinite):
            validate_model(MarketModel(mu=[1.0, 2.0, 3.0], sigma=sigma,
                                       conditioning_asset=1, risk=RiskParams(a=1, b=1)))

    @pytest.mark.parametrize("skew,valid", [(2e-9, False), (2e-13, True)])
    def test_symmetry_tolerance(self, skew, valid):
        """An asymmetry of 1e-9 of the largest entry is refused, one of
        1e-13 is rounding and accepted."""
        sigma = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, 0.2], [0.1, 0.2, 1.5]])
        sigma[0, 1] += skew
        market = MarketModel(mu=[1.0, 2.0, 3.0], sigma=sigma, conditioning_asset=1,
                             risk=RiskParams(a=1, b=1))
        if valid:
            assert validate_model(market).n == 3
        else:
            with pytest.raises(NotPositiveDefinite, match="symmetric"):
                validate_model(market)

    @pytest.mark.parametrize("spread,valid", [(1e-14, False), (1e-10, True)])
    def test_return_spread_tolerance(self, spread, valid):
        """Returns of 1 that differ by 1e-14 count as equal, by 1e-10 not."""
        market = MarketModel(mu=[1.0, 1.0 + spread, 1.0], sigma=np.eye(3),
                             conditioning_asset=1, risk=RiskParams(a=1, b=1))
        if valid:
            assert validate_model(market).n == 3
        else:
            with pytest.raises(MuParallelToOnes):
                validate_model(market)

    @pytest.mark.parametrize("cond", [0, 4, -1])
    def test_conditioning_index_range(self, cond):
        with pytest.raises(DimensionMismatch):
            validate_model(MarketModel(mu=[1.0, 2.0, 3.0], sigma=np.eye(3),
                                       conditioning_asset=cond, risk=RiskParams(a=1, b=1)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            validate_model(MarketModel(mu=[1.0, 2.0], sigma=np.eye(3),
                                       conditioning_asset=1, risk=RiskParams(a=1, b=1)))

    def test_asymmetry_reported_before_equal_returns(self):
        sigma = np.eye(3)
        sigma[0, 1] = 0.5
        with pytest.raises(NotPositiveDefinite):
            validate_model(MarketModel(mu=[1.0, 1.0, 1.0], sigma=sigma,
                                       conditioning_asset=2, risk=RiskParams(a=1, b=1)))

    def test_symmetrized_sigma_bit_for_bit(self):
        """vm.sigma is 0.5 (sigma + sigma') gathered into the internal order,
        to the bit, on an input asymmetric within SYMMETRY_RTOL."""
        rng = np.random.default_rng(41)
        n = 40
        mat = rng.normal(size=(n, n))
        sigma = mat @ mat.T + n * np.eye(n)
        sigma += np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1) * SYMMETRY_RTOL
        assert not np.array_equal(sigma, sigma.T)
        for cond in (1, 17, n):
            vm = validate_model(MarketModel(mu=rng.normal(size=n), sigma=sigma,
                                            conditioning_asset=cond, risk=RiskParams(a=1, b=1)))
            expected = (0.5 * (sigma + sigma.T))[np.ix_(vm.perm, vm.perm)]
            assert vm.sigma.tobytes() == expected.tobytes()

    def test_permutation_puts_conditioning_asset_first(self):
        m, _ = _ex2_conditioned_on(2)
        assert m.mu[0] == 3.0
        assert int(m.perm[0]) == 1


def _ex2_conditioned_on(idx):
    from covarsel import reduce_model
    m = validate_model(MarketModel(mu=[2.0, 3.0, 1.0],
                                   sigma=[[1, 0.2, 1], [0.2, 1, 0], [1, 0, 9]],
                                   conditioning_asset=idx, risk=RiskParams(a=1, b=2)))
    return m, reduce_model(m)


def test_permutation_transparency():
    """Solving with conditioning_asset=i must equal solving the pre-permuted
    model and un-permuting, bit for bit."""
    from covarsel import MarketModel, RiskParams, reduce_model, validate_model
    rng = np.random.default_rng(11)
    for _ in range(10):
        m, r = random_model(rng, n=4)
        m_pre = validate_model(MarketModel(mu=m.mu, sigma=m.sigma,
                                           conditioning_asset=1, risk=m.risk))
        r_pre = reduce_model(m_pre)
        e_target = float(np.mean(m.mu))
        sol = solve_critical(m, r, e_target)
        sol_pre = solve_critical(m_pre, r_pre, e_target)
        if sol.x is None:
            assert sol_pre.x is None
            assert sol.value == sol_pre.value or (
                math.isinf(sol.value) and math.isinf(sol_pre.value))
            continue
        # sol.x is in the user's order; sol_pre.x is already in internal order
        assert np.array_equal(sol.x, sol_pre.x[m.inv_perm])
        assert sol.value == sol_pre.value


@pytest.mark.parametrize("n", [3, 10, 50, 300])
def test_chol_is_lapack_factor_of_permuted_sigma(n):
    rng = np.random.default_rng(2000 + n)
    m, _ = random_model(rng, n=n)
    assert np.array_equal(m.chol, np.linalg.cholesky(m.sigma))
    assert m.chol is m.chol
    assert not m.chol.flags.writeable
