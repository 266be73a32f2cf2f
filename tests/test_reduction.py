import numpy as np
import pytest

from covarsel import (MarketModel, NumericalBreakdown, RiskParams, SolveStatus,
                      ValidatedModel, gramian_scalars,
                      reduce_model, solve_critical, validate_model)
from helpers import random_model


def inverse_2x2(mat):
    """Adjugate inverse, the independent route for the Gramian fixtures."""
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]]) / det


def scalars_via_inverse(qhat, mu_hat, q_hat):
    inv = inverse_2x2(qhat)
    a_c = mu_hat @ inv @ mu_hat
    b_c = mu_hat @ inv @ q_hat
    g_c = q_hat @ inv @ q_hat
    return a_c, b_c, g_c, a_c * g_c - b_c * b_c


class TestExampleFixtures:
    def test_example1_qhat(self, example1):
        _, r = example1
        expected = np.array([[20 / 9, -1 / 9], [-1 / 9, 5 / 9]])
        assert np.allclose(r.Qhat, expected, rtol=1e-12, atol=1e-14)

    def test_example3_qhat_exact(self, example3):
        _, r = example3
        assert np.array_equal(r.Qhat, np.array([[8.0, -2.0], [-2.0, 12.0]]))

    def test_example1_gramian(self, example1):
        _, r = example1
        assert r.alpha_C == pytest.approx(137 / 11, rel=1e-12)
        assert r.beta_C == pytest.approx(-54 / 11, rel=1e-12)
        assert r.gamma_C == pytest.approx(31 / 11, rel=1e-12)
        assert r.detG == pytest.approx(11.0, rel=1e-12)
        ind = scalars_via_inverse(np.asarray(r.Qhat), np.asarray(r.mu_hat),
                                  np.asarray(r.q_hat))
        assert r.alpha_C == pytest.approx(ind[0], rel=1e-12)
        assert r.detG == pytest.approx(ind[3], rel=1e-10)

    def test_example2_gramian(self, example2):
        _, r = example2
        assert r.alpha_C == pytest.approx(214 / 191, rel=1e-12)
        assert r.beta_C == pytest.approx(-156 / 191, rel=1e-12)
        assert r.gamma_C == pytest.approx(128 / 191, rel=1e-12)
        assert r.detG == pytest.approx(3056 / 36481, rel=1e-10)

    def test_example3_gramian(self, example3):
        _, r = example3
        assert r.alpha_C == pytest.approx(13 / 23, rel=1e-12)
        assert r.beta_C == pytest.approx(9 / 46, rel=1e-12)
        assert r.gamma_C == pytest.approx(2 / 23, rel=1e-12)
        assert r.detG == pytest.approx(1 / 92, rel=1e-10)

    def test_gramian_scalars_standalone(self, example2):
        _, r = example2
        a_c, b_c, g_c, det_g = gramian_scalars(r.Qhat, r.mu_hat, r.q_hat)
        assert (a_c, b_c, g_c) == (r.alpha_C, r.beta_C, r.gamma_C)
        assert det_g == pytest.approx(r.detG, rel=1e-12)


def test_dependent_mu_hat_q_hat_gives_singular_gramian():
    # First covariance column chosen so q_hat equals mu_hat exactly.
    mu = np.array([1.0, 1.2, 1.4])
    sigma = np.array([[1.0, 1.2, 1.4],
                      [1.2, 4.0, 0.5],
                      [1.4, 0.5, 4.0]])
    m = validate_model(MarketModel(mu=mu, sigma=sigma, conditioning_asset=1,
                                   risk=RiskParams(a=1, b=1)))
    r = reduce_model(m)
    assert np.allclose(r.q_hat, r.mu_hat, atol=1e-15)
    assert abs(r.detG) < 1e-12 * max(1.0, r.alpha_C * r.gamma_C)
    assert not r.independent


class TestIndependence:
    def test_example3_independent_by_hand_determinant(self, example3):
        m, r = example3
        ones, mu, q = np.ones(3), np.array([1.0, 2, 3]), np.array([1.0, 1, 2])
        det = np.linalg.det(np.vstack([ones, mu, q]))
        assert abs(det) > 0.5
        assert r.independent

    def test_constructed_linear_combination(self):
        # q = 0.5*mu + 0.5*ones forced through the first covariance column.
        mu = np.array([1.0, 2.0, 4.0])
        sigma1 = 0.5 * mu[0] + 0.5
        col = sigma1 * (0.5 * mu + 0.5)
        sigma = np.array([[col[0] * 1.0, col[1], col[2]],
                          [col[1], 9.0, 0.0],
                          [col[2], 0.0, 16.0]])
        m = validate_model(MarketModel(mu=mu, sigma=sigma, conditioning_asset=1,
                                       risk=RiskParams(a=1, b=1)))
        r = reduce_model(m)
        assert not r.independent
        sol = solve_critical(m, r, 2.0)
        assert sol.status is SolveStatus.MARKOWITZ_FALLBACK

    def test_two_assets_never_independent(self):
        m = validate_model(MarketModel(mu=[1.0, 2.0], sigma=[[1.0, 0.1], [0.1, 2.0]],
                                       conditioning_asset=1, risk=RiskParams(a=1, b=1)))
        assert not reduce_model(m).independent


class TestStructuralInvariants:
    N_MODELS = 1000

    def test_projected_covariance_structure(self):
        rng = np.random.default_rng(7)
        for _ in range(self.N_MODELS):
            m, r = random_model(rng)
            scale = float(np.max(np.abs(m.sigma)))
            assert float(np.max(np.abs(r.Q[0, :]))) <= 1e-12 * max(1.0, scale)
            assert float(np.max(np.abs(r.Q[:, 0]))) <= 1e-12 * max(1.0, scale)
            # Qhat positive definite: its Cholesky already ran inside reduce;
            # spot-check with the smallest eigenvalue sign.
            x = rng.normal(size=m.n)
            sigma2 = float(x @ m.sigma @ x)
            xq = float(x @ r.q)
            rho2 = xq * xq / sigma2
            expected = sigma2 * (1.0 - rho2)
            got = float(x @ r.Q @ x)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)
            if r.independent:
                assert r.detG > 0
            assert r.detG == pytest.approx(
                r.alpha_C * r.gamma_C - r.beta_C ** 2, rel=1e-10, abs=1e-12)
            assert r.Delta == r.b ** 2 * r.alpha_C - r.a ** 2 * r.detG

    def test_full_correlation_only_at_conditioning_vertex(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m, r = random_model(rng)
            e1 = np.zeros(m.n)
            e1[0] = 1.0
            quad = float(e1 @ r.Q @ e1)
            assert quad == 0.0
            x = rng.dirichlet(np.ones(m.n))
            if abs(x[0] - 1.0) < 1e-3:
                continue
            assert float(x @ r.Q @ x) > 1e-12


def test_breakdown_on_nearly_singular_covariance():
    # Constructed directly (bypassing validation) with a 1e-15 eigenvalue.
    basis = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
    sigma = basis @ np.diag([2.0, 1.0, 1e-15]) @ basis.T
    sigma = 0.5 * (sigma + sigma.T)
    m = ValidatedModel(mu=np.array([1.0, 2.0, 3.0]), sigma=sigma,
                       risk=RiskParams(a=1, b=1),
                       perm=np.arange(3), inv_perm=np.arange(3))
    with pytest.raises(NumericalBreakdown):
        reduce_model(m)
