import sys
import tracemalloc

import numpy as np
import pytest

from covarsel import (ConstrainedProblem, MarketModel, McConfig, NumericalBreakdown,
                      RiskParams, SolveStatus, ValidatedModel, frontier, linalg, mc_covar,
                      markowitz_frontier, minimize_constrained, reduce_model, solve_critical,
                      solvability_status, validate_model)
from helpers import near_dependent_model, random_model


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

    def test_dependence_tolerance_splits_near_dependent_markets(self):
        """A normalized Gramian determinant detG / (alpha_C gamma_C) in
        (1e-9, 1e-7) is independent, and one in (1e-13, 1e-11) is not: the
        dependence tolerance lies between them."""
        rng = np.random.default_rng(43)
        seen = {SolveStatus.UNIQUE: 0, SolveStatus.MARKOWITZ_FALLBACK: 0}
        for eps in (1e-4, 1e-6):
            for _ in range(60):
                _, r, _, _ = near_dependent_model(rng, 4, eps)
                ratio = r.detG / (r.alpha_C * r.gamma_C)
                expected = SolveStatus.UNIQUE if 1e-9 < ratio < 1e-7 else \
                    SolveStatus.MARKOWITZ_FALLBACK if 1e-13 < ratio < 1e-11 else None
                if expected is not None:
                    assert solvability_status(r) is expected, ratio
                    seen[expected] += 1
        assert min(seen.values()) >= 10, seen

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


def test_projected_covariance_bit_for_bit():
    """Q is sigma - q q' with its first row and column zeroed, to the bit."""
    rng = np.random.default_rng(9)
    for n in (2, 3, 10, 50):
        m, r = random_model(rng, n=n)
        q = m.sigma[:, 0] / m.sigma1
        expected = m.sigma - np.outer(q, q)
        expected[0, :] = 0.0
        expected[:, 0] = 0.0
        assert r.q.tobytes() == q.tobytes()
        assert r.Q.tobytes() == expected.tobytes()


# Traced peak of each stage at n = 300 above its start, in doubles of n^2:
# one n x n buffer beside the Cholesky factor, and Q alone.
ALLOCATION_BUDGET = {"validate_model": 2.25, "reduce_model": 1.25}


@pytest.mark.parametrize("stage", sorted(ALLOCATION_BUDGET))
def test_allocation_budget_at_300(stage):
    n = 300
    rng = np.random.default_rng(300)
    mat = rng.normal(size=(n, n))
    market = MarketModel(mu=rng.normal(size=n), sigma=mat @ mat.T + n * np.eye(n),
                         conditioning_asset=7, risk=RiskParams(a=1.0, b=2.0))
    vm = validate_model(market)
    run = {"validate_model": lambda: validate_model(market),
           "reduce_model": lambda: reduce_model(vm)}[stage]
    run()
    outer = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not outer:
            tracemalloc.stop()
    assert peak <= ALLOCATION_BUDGET[stage] * n * n * 8, peak / (n * n * 8)


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


def reduction_by_inverse(mu, sigma, cond):
    """Qhat, mu_hat, q_hat from the caller's raw inputs, and the two
    Qhat-inverse products through an explicit inverse: a route that shares
    no factor and no solve with ``reduce_model``."""
    rest = np.delete(np.arange(mu.shape[0]), cond)
    q = sigma[:, cond] / np.sqrt(sigma[cond, cond])
    qhat = sigma[np.ix_(rest, rest)] - np.outer(sigma[rest, cond], sigma[cond, rest]) \
        / sigma[cond, cond]
    inv = np.linalg.inv(qhat)
    mu_hat = mu[rest] - mu[cond]
    q_hat = q[rest] - q[cond]
    return qhat, inv @ mu_hat, inv @ q_hat, mu_hat, q_hat


@pytest.mark.parametrize("n", [3, 10, 50, 300])
def test_shared_factor_against_explicit_inverse(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(5 if n < 300 else 2):
        m, r = random_model(rng, n=n)
        sigma = m.sigma[np.ix_(m.inv_perm, m.inv_perm)]
        mu = m.to_original(m.mu)
        cond = int(m.perm[0])

        low = m.chol[1:, 1:]
        scale = float(np.max(np.abs(r.Qhat)))
        assert np.max(np.abs(low @ low.T - r.Qhat)) <= 1e-12 * scale

        qhat, u, v, mu_hat, q_hat = reduction_by_inverse(mu, sigma, cond)
        assert np.max(np.abs(qhat - r.Qhat)) <= 1e-12 * scale
        assert np.allclose(r.qinv_mu, u, rtol=1e-9, atol=1e-9 * np.max(np.abs(u)))
        assert np.allclose(r.qinv_qh, v, rtol=1e-9, atol=1e-9 * np.max(np.abs(v)))
        a_c, b_c, g_c = mu_hat @ u, mu_hat @ v, q_hat @ v
        assert r.alpha_C == pytest.approx(a_c, rel=1e-9)
        assert r.beta_C == pytest.approx(b_c, rel=1e-9, abs=1e-9 * np.sqrt(a_c * g_c))
        assert r.gamma_C == pytest.approx(g_c, rel=1e-9)
        assert r.detG == pytest.approx(a_c * g_c - b_c * b_c, abs=1e-9 * a_c * g_c)


def test_one_factorization_from_validation_to_oracle(monkeypatch):
    """validate -> reduce -> frontier -> mc_covar -> constrained solves on the
    simplex and on a slice -> Markowitz frontier factors sigma once: nothing
    after validation factors a matrix, and the reduction is the one
    substitution on that factor."""
    calls = {"cholesky_spd": 0, "solve_cholesky": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and mod_name.startswith("covarsel"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)

    m = validate_model(MarketModel(mu=[2, 3, 1], sigma=[[1, 0.2, 1], [0.2, 1, 0], [1, 0, 9]],
                                   conditioning_asset=1, risk=RiskParams(a=1.0, b=2.0)))
    r = reduce_model(m)
    points = frontier(m, r, 1.0, 3.0, 11)
    mc_covar(m, points[5].weights, McConfig(samples=100_000, seed=3))
    minimize_constrained(ConstrainedProblem(model=m, reduced=r))
    minimize_constrained(ConstrainedProblem(model=m, reduced=r, E=2.5))
    assert calls == {"cholesky_spd": 1, "solve_cholesky": 1}
    markowitz_frontier(m, r, [1.5, 2.5])
    assert calls == {"cholesky_spd": 1, "solve_cholesky": 1}
