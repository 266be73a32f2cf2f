import math
import warnings

import numpy as np
import pytest

from covarsel import (DimensionTooLarge, DomainError, MarketModel, McConfig, RiskParams,
                      TooFewBandSamples, covar_portfolio, grid_minimize, mc_covar,
                      reduce_model, validate_model)
from covarsel import oracle
from covarsel.oracle import _DRAW_BLOCK, _pair_law, _window_pass
from covarsel.riskmeasures import _stress_law
from helpers import full_array_mc_covar, random_model


def outcome(estimator, m, x, cfg):
    """The two fields of an estimate, or the type of the error it raised."""
    try:
        est = estimator(m, x, cfg)
    except TooFewBandSamples:
        return TooFewBandSamples
    return (est.estimate, est.std_error)


def market_setup(seed, n):
    """A random market and random long-only weights in internal order."""
    rng = np.random.default_rng(seed)
    m, _ = random_model(rng, n=n)
    return m, m.to_internal(rng.dirichlet(np.ones(n)))


class TestMcConfig:
    def test_minimum_sample_count(self):
        with pytest.raises(DomainError):
            McConfig(samples=100)

    @pytest.mark.parametrize("samples,ok", [(9_999, False), (10_000, True),
                                            (10 ** 8, True), (10 ** 8 + 1, False)])
    def test_sample_count_bounds(self, samples, ok):
        """Both ends of [10**4, 10**8] are allowed, one past either is not."""
        if ok:
            assert McConfig(samples=samples).samples == samples
        else:
            with pytest.raises(DomainError, match="samples"):
                McConfig(samples=samples)

    @pytest.mark.parametrize("field,value", [
        ("samples", 1e6), ("samples", True), ("samples", "100000"), ("samples", np.float64(1e5)),
        ("seed", 1.5), ("seed", 2.0), ("seed", False), ("seed", None)])
    def test_integer_samples_and_seed(self, field, value):
        with pytest.raises(DomainError, match=field):
            McConfig(**{field: value})


class TestMcCovar:
    def test_deterministic_given_seed(self, example3):
        m, r = example3
        x = np.array([0.2, 0.5, 0.3])
        cfg = McConfig(samples=50_000, seed=123)
        e1 = mc_covar(m, x, cfg)
        e2 = mc_covar(m, x, cfg)
        assert e1.estimate == e2.estimate
        assert e1.std_error == e2.std_error

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

    @pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]])
    def test_weights_off_the_budget(self, example2, x):
        """Weights that do not sum to 1 are refused as ``covar_portfolio``
        refuses them, before any draw and without a warning."""
        m, _ = example2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sum to"):
                mc_covar(m, np.array(x), McConfig(samples=10_000, seed=0))

    def test_quantile_beyond_the_sample(self, example2):
        # b = 8 puts the beta-quantile at Phi(-8) ~ 6e-16: no draw of 1e6 is
        # beyond it, so the order statistic would be meaningless.
        m, _ = example2
        m8 = validate_model(MarketModel(mu=m.to_original(m.mu),
                                        sigma=m.sigma[np.ix_(m.inv_perm, m.inv_perm)],
                                        conditioning_asset=1, risk=RiskParams(a=1.0, b=8.0)))
        with pytest.raises(TooFewBandSamples):
            mc_covar(m8, np.array([0.2, 0.5, 0.3]), McConfig(samples=1_000_000))

    @pytest.mark.parametrize("beta,tail_draws", [(0.00985, 99), (0.00995, 100)])
    def test_one_hundred_tail_draws(self, example2, beta, tail_draws):
        """10**4 samples read a beta-quantile with 100 draws at or below it,
        and refuse one with 99."""
        m, _ = example2
        mb = validate_model(MarketModel(mu=m.to_original(m.mu),
                                        sigma=m.sigma[np.ix_(m.inv_perm, m.inv_perm)],
                                        conditioning_asset=1,
                                        risk=RiskParams.from_levels(0.1, beta)))
        assert math.ceil(mb.risk.beta_level * 10_000) == tail_draws
        x, cfg = np.array([0.2, 0.5, 0.3]), McConfig(samples=10_000, seed=0)
        if tail_draws < 100:
            with pytest.raises(TooFewBandSamples, match=f"leaves {tail_draws} of"):
                mc_covar(mb, x, cfg)
        else:
            assert math.isfinite(mc_covar(mb, x, cfg).estimate)


class TestStreamedDraw:
    """The estimate reads its law off the Cholesky pair and a window of one
    stream of normals."""

    def test_pair_law_matches_the_law_from_sigma(self):
        """The pair law at z0 = -a and ``riskmeasures._stress_law`` agree
        within 1e-13 sigma_X on random markets and long-only portfolios."""
        rng = np.random.default_rng(38)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 51))
            m, _ = random_model(rng, n=n)
            xi = rng.dirichlet(np.ones(n))
            cond_mean, scale = _pair_law(m, xi)
            _, sigma_x, _, law_mean, law_var = (
                float(v[0]) for v in _stress_law(m, np.ones((1, 1)), xi[None, :]))
            worst = max(worst, abs(cond_mean - law_mean) / sigma_x,
                        abs(scale - math.sqrt(law_var)) / sigma_x)
        assert worst <= 1e-13, worst

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_conditioning_asset_alone_is_certain(self, n):
        """Holding only the conditioning asset leaves no spread on the pair:
        the estimate is -y* exactly, with no draw and no error."""
        m, _ = market_setup(300 + n, n)
        xi = np.zeros(n)
        xi[0] = 1.0
        assert _pair_law(m, xi)[1] == 0.0
        est = mc_covar(m, m.to_original(xi), McConfig(samples=10_000, seed=n))
        assert est.estimate == pytest.approx(-(m.mu1 - m.risk.a * m.sigma1),
                                             rel=1e-12, abs=1e-12 * m.sigma1)
        assert est.std_error == 0.0

    def test_reproducible_across_partial_chunk(self, example3):
        m, _ = example3
        x = np.array([0.2, 0.5, 0.3])
        samples = 20 * _DRAW_BLOCK + _DRAW_BLOCK // 2
        cfg = McConfig(samples=samples, seed=9)
        assert mc_covar(m, x, cfg) == mc_covar(m, x, cfg)
        # the stream is read block by block: dropping the partial last block
        # leaves the window draws of the whole blocks before it unchanged
        _, full = _window_pass(np.random.Generator(np.random.Philox(9)), samples, -1.0, 1.0)
        _, head = _window_pass(np.random.Generator(np.random.Philox(9)), 20 * _DRAW_BLOCK,
                               -1.0, 1.0)
        assert head.shape[0] > 0
        assert np.array_equal(full[:head.shape[0]], head)

    def test_exact_stage_reads_the_base_stream(self):
        """The streamed estimator equals the one that holds, sorts and
        bootstraps every draw, bit for bit, across market sizes, sample
        counts that end in a partial block, and seeds."""
        sizes = [10_000, 123_457, 1_000_000, 3 * _DRAW_BLOCK + 1]
        for n in (2, 3, 10, 50):
            for samples in sizes:
                for seed in (n, 1000 + n):
                    m, xi = market_setup(seed, n)
                    x, cfg = m.to_original(xi), McConfig(samples=samples, seed=seed)
                    assert outcome(mc_covar, m, x, cfg) == \
                        outcome(full_array_mc_covar, m, x, cfg), (n, samples, seed)

    def test_window_miss_repeats_the_pass(self, monkeypatch):
        """With no window margin every first pass misses: the repeat passes
        give the same bits."""
        cases = [(market_setup(seed, n), samples) for seed, n, samples in
                 [(1, 3, 200_000), (2, 10, 123_457), (3, 50, 300_000), (4, 2, 50_000)]]
        before = [outcome(mc_covar, m, m.to_original(xi), McConfig(samples=s, seed=7))
                  for (m, xi), s in cases]
        passes = []
        window_pass = oracle._window_pass
        monkeypatch.setattr(oracle, "_WINDOW_SDS", 0.0)
        monkeypatch.setattr(oracle, "_window_pass",
                            lambda *args: passes.append(1) or window_pass(*args))
        for ((m, xi), samples), ref in zip(cases, before):
            cfg = McConfig(samples=samples, seed=7)
            passes.clear()
            assert outcome(mc_covar, m, m.to_original(xi), cfg) == ref
            assert ref == outcome(full_array_mc_covar, m, m.to_original(xi), cfg)
            assert len(passes) > 1

    @pytest.mark.parametrize("samples", [200_000, 2_000_000, 10_000_000])
    def test_memory_budget(self, samples):
        """One estimate on an n = 50 market holds at most 3 MB, whatever the
        sample count."""
        import tracemalloc
        m, xi = market_setup(50, 50)
        mc_covar(m, m.to_original(xi), McConfig(samples=10_000, seed=3))
        tracemalloc.start()
        try:
            mc_covar(m, m.to_original(xi), McConfig(samples=samples, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000, peak


class TestGridMinimize:
    def test_example1_slice_boundary_minimum(self, example1):
        m, r = example1
        x, value = grid_minimize(m, r, 1e-3, E=2.0)
        assert x[0] == pytest.approx(2 / 3, abs=2e-3)
        assert value == pytest.approx((-82 + 7 * math.sqrt(5)) / 45, abs=1e-9)

    def test_example2_hyperplane_box(self, example2):
        m, r = example2
        x, value = grid_minimize(m, r, 1e-3, bound=2.0)
        assert value == pytest.approx(-1.0, abs=1e-9)
        assert np.max(np.abs(x - np.array([1.0, 0.0, 0.0]))) < 2e-3

    def test_coarse_grid_returns_best_vertex(self, example2):
        m, r = example2
        x, value = grid_minimize(m, r, 1.0)
        vertices = np.eye(3)
        vertex_values = [covar_portfolio(m, r, v).covar for v in vertices]
        assert value == pytest.approx(min(vertex_values), abs=1e-12)
        assert np.allclose(x, vertices[int(np.argmin(vertex_values))])

    def test_dimension_guard(self):
        rng = np.random.default_rng(2)
        m, r = random_model(rng, n=5)
        with pytest.raises(DimensionTooLarge):
            grid_minimize(m, r, 0.1)

    def test_deterministic(self, example3):
        m, r = example3
        first = grid_minimize(m, r, 1e-3, E=2.0)
        second = grid_minimize(m, r, 1e-3, E=2.0)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_hyperplane_slice_matches_line_search(self, example2):
        m, r = example2
        from helpers import covar_value_raw, slice_segment, golden_section
        x, value = grid_minimize(m, r, 2e-4, E=2.5, bound=3.0)
        x0, d, _, _ = slice_segment(m, 2.5)
        fun = lambda t: covar_value_raw(m, r, x0 + t * d)
        _, ref = golden_section(fun, -3.0, 3.0)
        assert value == pytest.approx(ref, abs=1e-6)
