import math

import numpy as np
import pytest

from covarsel import (DimensionTooLarge, DomainError, Hyperplane, HyperplaneSlice,
                      MarketModel, McConfig, RiskParams, Simplex, SimplexSlice,
                      TooFewBandSamples, covar_portfolio, grid_minimize, mc_covar,
                      reduce_model, validate_model)
from covarsel.model import standard_normal_cdf
from covarsel.oracle import _BAND_CHUNK, _band_returns
from helpers import random_model


def full_block_band(m, xi, y_star, eps, seed, samples):
    """Reference: the band draw the conditioning-first one replaced.  Every
    sample gets all n coordinates and is multiplied by the Cholesky factor;
    the band is applied to the finished returns."""
    base = np.random.Philox(seed)
    low = np.linalg.cholesky(m.sigma)
    kept = []
    for chunk, start in enumerate(range(0, samples, _BAND_CHUNK)):
        rng = np.random.Generator(base.jumped(chunk + 1))
        z = rng.standard_normal((min(_BAND_CHUNK, samples - start), m.n))
        returns = m.mu + z @ low.T
        kept.append(returns[np.abs(returns[:, 0] - y_star) < eps] @ xi)
    return np.concatenate(kept)


def band_setup(seed, n):
    """A random market, random long-only weights in internal order, the
    stress level and the default band half-width."""
    rng = np.random.default_rng(seed)
    m, _ = random_model(rng, n=n)
    xi = m.to_internal(rng.dirichlet(np.ones(n)))
    return m, xi, m.mu1 - m.risk.a * m.sigma1, 0.05 * m.sigma1


class TestMcConfig:
    def test_minimum_sample_count(self):
        with pytest.raises(DomainError):
            McConfig(samples=100)

    def test_band_epsilon_positive(self):
        with pytest.raises(DomainError):
            McConfig(band_epsilon=0.0)

    def test_rng_identifier(self):
        with pytest.raises(DomainError):
            McConfig(rng="mersenne")


class TestMcCovar:
    def test_deterministic_given_seed(self, example3):
        m, r = example3
        x = np.array([0.2, 0.5, 0.3])
        cfg = McConfig(samples=50_000, seed=123)
        e1 = mc_covar(m, x, cfg)
        e2 = mc_covar(m, x, cfg)
        assert e1.estimate == e2.estimate
        assert e1.std_error == e2.std_error
        assert e1.band_estimate == e2.band_estimate

    def test_uncorrelated_portfolio_reduces_to_plain_var(self):
        m = validate_model(MarketModel(mu=[1.0, 2.0, 0.5],
                                       sigma=np.diag([1.0, 4.0, 9.0]),
                                       conditioning_asset=1,
                                       risk=RiskParams(a=1.0, b=2.0)))
        x = np.array([0.0, 0.5, 0.5])
        est = mc_covar(m, x, McConfig(samples=400_000, seed=7))
        mu_x = 0.5 * 2.0 + 0.5 * 0.5
        sigma_x = math.sqrt(0.25 * 4.0 + 0.25 * 9.0)
        expected = -mu_x + 2.0 * sigma_x
        assert abs(est.estimate - expected) <= 3.0 * est.std_error

    def test_example2_degenerate_vertex(self, example2):
        m, _ = example2
        est = mc_covar(m, np.array([1.0, 0.0, 0.0]), McConfig(samples=50_000, seed=1))
        assert est.estimate == pytest.approx(-1.0, abs=1e-12)
        assert est.std_error == 0.0

    def test_example3_against_closed_form(self):
        from conftest import example3_at
        m, r = example3_at(1.0, 2.0)
        x = np.array([0.2, 0.5, 0.3])
        est = mc_covar(m, x, McConfig(samples=1_000_000, seed=5))
        closed = covar_portfolio(m, r, x).covar
        assert abs(est.estimate - closed) <= 3.0 * est.std_error
        # spelled-out fixture formula as a second, independent reference
        byhand = ((1 - 1) * 0.2 + (1 - 2) * 0.5 + (2 - 3) * 0.3
                  + 2 * 2 * math.sqrt(2 * 0.25 - 0.5 * 0.3 + 3 * 0.09))
        assert closed == pytest.approx(byhand, rel=1e-12)

    def test_bootstrap_error_scales_with_sample_count(self, example3):
        m, _ = example3
        x = np.array([0.4, 0.3, 0.3])
        se_small = mc_covar(m, x, McConfig(samples=100_000, seed=11)).std_error
        se_big = mc_covar(m, x, McConfig(samples=200_000, seed=11)).std_error
        ratio = se_big / se_small
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.20)

    def test_band_estimator_approaches_exact(self, example3):
        m, _ = example3
        x = np.array([0.4, 0.3, 0.3])
        sigma_y = m.sigma1
        wide = mc_covar(m, x, McConfig(samples=200_000, seed=3,
                                       band_epsilon=0.5 * sigma_y))
        narrow = mc_covar(m, x, McConfig(samples=2_000_000, seed=3,
                                         band_epsilon=0.05 * sigma_y))
        assert abs(narrow.band_estimate - narrow.estimate) < \
            abs(wide.band_estimate - wide.estimate)

    def test_too_narrow_band(self, example3):
        m, _ = example3
        with pytest.raises(TooFewBandSamples):
            mc_covar(m, np.array([0.4, 0.3, 0.3]),
                     McConfig(samples=10_000, seed=0, band_epsilon=1e-8))


    def test_quantile_beyond_the_sample(self, example2):
        # b = 8 puts the beta-quantile at Phi(-8) ~ 6e-16: no draw of 1e6 is
        # beyond it, so the order statistic would be meaningless.
        m, _ = example2
        m8 = validate_model(MarketModel(mu=m.to_original(m.mu),
                                        sigma=m.sigma[np.ix_(m.inv_perm, m.inv_perm)],
                                        conditioning_asset=1, risk=RiskParams(a=1.0, b=8.0)))
        with pytest.raises(TooFewBandSamples):
            mc_covar(m8, np.array([0.2, 0.5, 0.3]), McConfig(samples=1_000_000))


class TestBandDraw:
    """The band draws the conditioning asset's coordinate for every sample and
    the other n - 1 only for the samples it keeps."""

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_kept_count_is_binomial(self, n):
        m, xi, y_star, eps = band_setup(100 + n, n)
        samples = 1_000_000
        est = mc_covar(m, m.to_original(xi), McConfig(samples=samples, seed=n))
        p = (standard_normal_cdf((y_star + eps - m.mu1) / m.sigma1)
             - standard_normal_cdf((y_star - eps - m.mu1) / m.sigma1))
        assert abs(est.band_kept - samples * p) <= 5.0 * math.sqrt(samples * p * (1.0 - p))

    @pytest.mark.parametrize("n", [3, 10])
    def test_same_distribution_as_full_block_draw(self, n):
        from scipy.stats import ks_2samp
        m, xi, y_star, eps = band_setup(200 + n, n)
        reference = full_block_band(m, xi, y_star, eps, 1, 1_000_000)
        new = _band_returns(m, xi, float(xi @ m.mu), y_star, eps, np.random.Philox(2),
                            1_000_000)
        k1, k2 = reference.shape[0], new.shape[0]
        critical = math.sqrt(-0.5 * math.log(1e-3 / 2.0)) * math.sqrt((k1 + k2) / (k1 * k2))
        assert ks_2samp(reference, new).statistic < critical

    def test_reproducible_across_partial_chunk(self, example3):
        m, _ = example3
        x = np.array([0.2, 0.5, 0.3])
        cfg = McConfig(samples=int(2.5 * _BAND_CHUNK), seed=9)
        assert mc_covar(m, x, cfg) == mc_covar(m, x, cfg)
        # each chunk is a fixed function of (seed, chunk): dropping the
        # partial third chunk leaves the first two unchanged
        xi, y_star, eps = m.to_internal(x), m.mu1 - m.risk.a * m.sigma1, 0.05 * m.sigma1
        mu_x = float(xi @ m.mu)
        full = _band_returns(m, xi, mu_x, y_star, eps, np.random.Philox(9),
                             int(2.5 * _BAND_CHUNK))
        head = _band_returns(m, xi, mu_x, y_star, eps, np.random.Philox(9), 2 * _BAND_CHUNK)
        assert np.array_equal(full[:head.shape[0]], head)

    def test_exact_stage_reads_the_base_stream(self):
        m, xi, y_star, _ = band_setup(5, 5)
        seed, samples = 17, 100_000
        est = mc_covar(m, m.to_original(xi), McConfig(samples=samples, seed=seed))
        sigma_x = math.sqrt(float(xi @ m.sigma @ xi))
        rho = float(xi @ m.sigma[:, 0]) / (sigma_x * m.sigma1)
        mean = float(xi @ m.mu) + rho * sigma_x / m.sigma1 * (y_star - m.mu1)
        sd = math.sqrt(sigma_x * sigma_x * (1.0 - rho * rho))
        rng = np.random.Generator(np.random.Philox(seed))
        draws = np.sort(mean + sd * rng.standard_normal(samples))
        rank = math.ceil(m.risk.beta_level * samples)
        u = rng.beta(rank, samples - rank + 1, size=256)
        boot = draws[np.ceil(samples * u).astype(np.int64) - 1]
        assert est.estimate == -draws[rank - 1]
        assert est.std_error == np.std(boot, ddof=1)


class TestGridMinimize:
    def test_example1_slice_boundary_minimum(self, example1):
        m, r = example1
        x, value = grid_minimize(m, r, SimplexSlice(E=2.0), 1e-3)
        assert x[0] == pytest.approx(2 / 3, abs=2e-3)
        assert value == pytest.approx((-82 + 7 * math.sqrt(5)) / 45, abs=1e-9)

    def test_example2_hyperplane_box(self, example2):
        m, r = example2
        x, value = grid_minimize(m, r, Hyperplane(bound=2.0), 1e-3)
        assert value == pytest.approx(-1.0, abs=1e-9)
        assert np.max(np.abs(x - np.array([1.0, 0.0, 0.0]))) < 2e-3

    def test_coarse_grid_returns_best_vertex(self, example2):
        m, r = example2
        x, value = grid_minimize(m, r, Simplex(), 1.0)
        vertices = np.eye(3)
        vertex_values = [covar_portfolio(m, r, v).covar for v in vertices]
        assert value == pytest.approx(min(vertex_values), abs=1e-12)
        assert np.allclose(x, vertices[int(np.argmin(vertex_values))])

    def test_dimension_guard(self):
        rng = np.random.default_rng(2)
        m, r = random_model(rng, n=5)
        with pytest.raises(DimensionTooLarge):
            grid_minimize(m, r, Simplex(), 0.1)

    def test_deterministic(self, example3):
        m, r = example3
        first = grid_minimize(m, r, SimplexSlice(E=2.0), 1e-3)
        second = grid_minimize(m, r, SimplexSlice(E=2.0), 1e-3)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_hyperplane_slice_matches_line_search(self, example2):
        m, r = example2
        from helpers import covar_value_raw, slice_segment, golden_section
        x, value = grid_minimize(m, r, HyperplaneSlice(E=2.5, bound=3.0), 2e-4)
        x0, d, _, _ = slice_segment(m, 2.5)
        fun = lambda t: covar_value_raw(m, r, x0 + t * d)
        _, ref = golden_section(fun, -3.0, 3.0)
        assert value == pytest.approx(ref, abs=1e-6)
