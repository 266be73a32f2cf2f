import dataclasses
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covarsel import (EfficiencyClass, LemmaParams, NumericalBreakdown,
                      PreconditionViolated, ReducedModel, RiskParams, SolveStatus,
                      covar_portfolio, covar_raw, classify_efficiency, frontier,
                      lemma_minimize, markowitz_frontier,
                      point_is_efficient,
                      solve_critical, validate_model, MarketModel)
from covarsel.closedform import (CONSTRAINT_TOL, Frontier, FrontierPoint, _closed_form,
                                 _recheck)
from covarsel.riskmeasures import _covar_rows, _gram_rows, _raw_rows
from helpers import (covar_value_raw, golden_section, near_dependent_model, random_model,
                     random_model_delta)


def lemma_f(s, p, q):
    """F(t), elementwise when t is an array."""
    return lambda t: s * t + np.sqrt((t - p) ** 2 + q)


def dense_min(fun, lo=-1e3, hi=1e3):
    ts = np.linspace(lo, hi, 10_001)
    vals = fun(ts)
    k = int(np.argmin(vals))
    t0, t1 = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    return golden_section(fun, t0, t1, iters=120)


class TestLemma:
    def test_pure_distance_term(self):
        out = lemma_minimize(LemmaParams(s=0.0, p=3.0, q_lem=4.0))
        assert out.kind == "min"
        assert out.value == pytest.approx(2.0)
        assert out.argmin == pytest.approx(3.0)

    def test_unit_slope_infimum(self):
        out = lemma_minimize(LemmaParams(s=1.0, p=5.0, q_lem=1.0))
        assert out.kind == "infimum"
        assert out.value == 5.0
        assert out.argmin is None

    def test_half_slope_closed_form(self):
        out = lemma_minimize(LemmaParams(s=0.5, p=2.0, q_lem=4.0))
        assert out.value == pytest.approx(1.0 + math.sqrt(3.0), rel=1e-12)
        assert out.argmin == pytest.approx(2.0 - math.sqrt(4.0 / 3.0), rel=1e-12)
        t_num, v_num = dense_min(lemma_f(0.5, 2.0, 4.0))
        assert out.value == pytest.approx(v_num, abs=1e-10)
        assert out.argmin == pytest.approx(t_num, abs=1e-7)

    def test_thousand_random_against_dense_search(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            s = float(rng.uniform(0.0, 0.95))
            p = float(rng.uniform(-10.0, 10.0))
            q = float(rng.uniform(0.01, 100.0))
            out = lemma_minimize(LemmaParams(s=s, p=p, q_lem=q))
            fun = lemma_f(s, p, q)
            _, v_num = dense_min(fun)
            assert out.value == pytest.approx(v_num, abs=1e-8)
            assert fun(out.argmin) == pytest.approx(out.value, abs=1e-12)

    def test_boundary_regimes_by_evaluation(self):
        taus = [-(10.0 ** k) for k in range(1, 7)]
        f1 = lemma_f(1.0, -2.5, 3.0)
        vals1 = [f1(t) for t in taus]
        assert all(v > -2.5 for v in vals1)
        assert all(np.diff(vals1) < 0)
        assert vals1[-1] == pytest.approx(-2.5, abs=1e-5)
        f2 = lemma_f(1.7, 0.5, 2.0)
        vals2 = [f2(t) for t in taus]
        assert all(np.diff(vals2) < 0)
        assert vals2[-1] < -6e5

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(min_value=0.0, max_value=0.99),
           p=st.floats(min_value=-20, max_value=20),
           q=st.floats(min_value=1e-3, max_value=1e3),
           t=st.floats(min_value=-1e4, max_value=1e4))
    def test_minimum_dominates_every_point(self, s, p, q, t):
        out = lemma_minimize(LemmaParams(s=s, p=p, q_lem=q))
        assert lemma_f(s, p, q)(t) >= out.value - 1e-9 * max(1.0, abs(out.value))


class TestSolveCritical:
    def test_example1_unbounded_with_witness(self, example1):
        m, r = example1
        assert r.Delta == pytest.approx(-1031 / 1100, abs=1e-12)
        sol = solve_critical(m, r, 2.0)
        assert sol.status is SolveStatus.UNBOUNDED_BELOW
        assert sol.x is None and sol.value == -math.inf
        mu_orig = m.to_original(m.mu)
        vals = []
        for tau in (0.0, 50.0, 2e5):
            x = sol.ray_base + tau * sol.ray_direction
            assert x.sum() == pytest.approx(1.0, abs=1e-9)
            assert x @ mu_orig == pytest.approx(2.0, abs=1e-6)
            vals.append(covar_raw(m, r, x))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -1e3

    def test_example2_target_two(self, example2):
        m, r = example2
        sol = solve_critical(m, r, 2.0)
        assert sol.status is SolveStatus.UNIQUE
        assert np.allclose(sol.x, [1.0, 0.0, 0.0], atol=1e-12)
        assert sol.value == pytest.approx(-1.0, abs=1e-12)
        assert sol.efficiency_class is EfficiencyClass.NON_NEGATIVE_E_HAT

    def test_zero_excess_return_is_conditioning_vertex(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m, r = random_model_delta(rng, +1)
            sol = solve_critical(m, r, m.mu1)
            expected = np.zeros(m.n)
            expected[int(m.perm[0])] = 1.0
            assert np.array_equal(sol.x, expected)
            assert sol.value == pytest.approx(-m.mu1 + m.risk.a * m.sigma1, rel=1e-12)

    def test_constraints_hold_on_random_models(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            m, r = random_model_delta(rng, +1)
            e_hat = float(rng.normal() * 2.0)
            sol = solve_critical(m, r, m.mu1 + e_hat)
            xi = m.to_internal(sol.x)
            assert abs(float(xi.sum()) - 1.0) <= 1e-10
            assert float(xi[1:] @ r.mu_hat) == pytest.approx(e_hat, abs=1e-10 * max(1, abs(e_hat)))

    def test_a_equals_b_minimizer_invariance(self):
        rng = np.random.default_rng(33)
        count = 0
        while count < 50:
            m, r = random_model(rng, a=0.3, b=0.3)
            if not r.independent or r.Delta <= 0:
                continue
            count += 1
            mu_orig = m.to_original(m.mu)
            sigma_orig = m.sigma[np.ix_(m.inv_perm, m.inv_perm)]
            m2 = validate_model(MarketModel(mu=mu_orig, sigma=sigma_orig,
                                            conditioning_asset=int(m.perm[0]) + 1,
                                            risk=RiskParams(a=1.7, b=1.7)))
            from covarsel import reduce_model
            r2 = reduce_model(m2)
            e = float(rng.uniform(mu_orig.min(), mu_orig.max()))
            x1 = solve_critical(m, r, e).x
            x2 = solve_critical(m2, r2, e).x
            assert np.max(np.abs(x1 - x2)) < 1e-10

    def test_two_ray_structure(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            m, r = random_model_delta(rng, +1)
            a = m.risk.a
            root = math.sqrt(r.Delta)
            slope_right = (a * r.beta_C / r.alpha_C - 1.0) + root / r.alpha_C
            slope_left = (a * r.beta_C / r.alpha_C - 1.0) - root / r.alpha_C
            vals = {}
            for e_hat in (-2.0, -1.0, 1.0, 2.0):
                vals[e_hat] = solve_critical(m, r, m.mu1 + e_hat).value
            v0 = solve_critical(m, r, m.mu1).value
            assert vals[2.0] - vals[1.0] == pytest.approx(slope_right, rel=1e-9, abs=1e-9)
            assert vals[1.0] - v0 == pytest.approx(slope_right, rel=1e-9, abs=1e-9)
            assert vals[-1.0] - vals[-2.0] == pytest.approx(slope_left, rel=1e-9, abs=1e-9)
            # one kink exactly at zero excess return
            assert slope_right > slope_left

    def test_small_a_limit_is_linear(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            base, _ = random_model(rng, b=1.0)
            mu_orig = base.to_original(base.mu)
            sigma_orig = base.sigma[np.ix_(base.inv_perm, base.inv_perm)]
            defects = []
            for a in (1e-2, 1e-4, 1e-6):
                from covarsel import reduce_model
                m = validate_model(MarketModel(mu=mu_orig, sigma=sigma_orig,
                                               conditioning_asset=int(base.perm[0]) + 1,
                                               risk=RiskParams(a=a, b=1.0)))
                r = reduce_model(m)
                if not r.independent or r.Delta <= 0:
                    break
                x_minus = m.to_internal(solve_critical(m, r, m.mu1 - 1.0).x)[1:]
                x_plus = m.to_internal(solve_critical(m, r, m.mu1 + 1.0).x)[1:]
                scale = np.linalg.norm(x_minus) + np.linalg.norm(x_plus)
                defects.append(float(np.linalg.norm(x_minus + x_plus)) / scale)
            else:
                assert defects[1] < 0.02 * defects[0]
                assert defects[2] < 0.02 * defects[1]

    def test_unbounded_witness_on_random_models(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            m, r = random_model_delta(rng, -1)
            sol = solve_critical(m, r, float(np.mean(m.mu)))
            assert sol.status is SolveStatus.UNBOUNDED_BELOW
            vals = [covar_raw(m, r, sol.ray_base + tau * sol.ray_direction)
                    for tau in (0.0, 10.0, 1e4)]
            assert vals[0] > vals[1] > vals[2]

    def test_delta_zero_reports_infimum(self):
        rng = np.random.default_rng(37)
        m0, r0 = random_model(rng, n=4, b=1.0)
        while not r0.independent:
            m0, r0 = random_model(rng, n=4, b=1.0)
        b_knife = m0.risk.a * math.sqrt(r0.detG / r0.alpha_C)
        m = validate_model(MarketModel(mu=m0.to_original(m0.mu),
                                       sigma=m0.sigma[np.ix_(m0.inv_perm, m0.inv_perm)],
                                       conditioning_asset=int(m0.perm[0]) + 1,
                                       risk=RiskParams(a=m0.risk.a, b=b_knife)))
        from covarsel import reduce_model
        r = reduce_model(m)
        sol = solve_critical(m, r, m.mu1 + 0.7)
        assert sol.status is SolveStatus.INFIMUM_NOT_ATTAINED
        expected = -m.mu1 + m.risk.a * m.sigma1 + 0.7 * (m.risk.a * r.beta_C / r.alpha_C - 1.0)
        assert sol.value == pytest.approx(expected, rel=1e-9)
        # witness sequence approaches the infimum from above
        vals = [covar_raw(m, r, sol.ray_base + tau * sol.ray_direction)
                for tau in (1.0, 1e2, 1e4, 1e6)]
        assert all(v > sol.value for v in vals)
        assert abs(vals[-1] - sol.value) < abs(vals[0] - sol.value)
        assert vals[-1] == pytest.approx(sol.value, abs=1e-3)


def _reduced_stub(a, b, alpha_c, beta_c, gamma_c):
    det_g = alpha_c * gamma_c - beta_c ** 2
    filler = np.zeros((1, 1))
    return ReducedModel(q=np.zeros(2), Q=np.zeros((2, 2)), Qhat=filler,
                        mu_hat=np.zeros(1), q_hat=np.zeros(1),
                        alpha_C=alpha_c, beta_C=beta_c, gamma_C=gamma_c,
                        detG=det_g, Delta=b * b * alpha_c - a * a * det_g,
                        independent=True, a=a, b=b,
                        qinv_mu=np.zeros(1), qinv_qh=np.zeros(1))


class TestClassifyEfficiency:
    def test_example2_case(self, example2):
        _, r = example2
        t = r.a * r.beta_C - r.alpha_C
        root = math.sqrt(r.Delta)
        assert t == pytest.approx(-370 / 191, rel=1e-12)
        assert root == pytest.approx(math.sqrt(160440 / 36481), rel=1e-12)
        assert -root < t <= root
        assert classify_efficiency(r) is EfficiencyClass.NON_NEGATIVE_E_HAT

    @pytest.mark.parametrize("a,b,expected", [
        (1.0, 0.3, EfficiencyClass.NONE_EFFICIENT),
        (2.0, 0.35, EfficiencyClass.NONE_EFFICIENT),
        (1.0, 1.0, EfficiencyClass.NON_NEGATIVE_E_HAT),
        (0.1, 1.0, EfficiencyClass.NON_NEGATIVE_E_HAT),
        (5.0, 0.8, EfficiencyClass.ALL_EFFICIENT),
    ])
    def test_example3_regions(self, a, b, expected):
        from conftest import example3_at
        m, r = example3_at(a, b)
        # region membership re-derived from the exact constants 13/23, 9/46, 1/92
        delta = b * b * 13 / 23 - a * a / 92
        t = a * 9 / 46 - 13 / 23
        assert delta > 0
        root = math.sqrt(delta)
        region = (EfficiencyClass.NONE_EFFICIENT if t <= -root
                  else EfficiencyClass.NON_NEGATIVE_E_HAT if t <= root
                  else EfficiencyClass.ALL_EFFICIENT)
        assert region is expected
        assert classify_efficiency(r) is expected

    def test_boundary_tie_belongs_to_middle_case(self):
        # t = a*beta_C - alpha_C = 2 and sqrt(Delta) = 2 exactly
        r = _reduced_stub(a=1.0, b=2.1, alpha_c=1.0, beta_c=3.0, gamma_c=9.41)
        assert r.Delta == pytest.approx(4.0, abs=1e-12)
        assert classify_efficiency(r) is EfficiencyClass.NON_NEGATIVE_E_HAT

    def test_requires_positive_delta(self, example1):
        _, r = example1
        with pytest.raises(PreconditionViolated):
            classify_efficiency(r)


class TestMarkowitz:
    def test_global_minimum_variance_portfolio(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m, _ = random_model(rng)
            sigma_inv_one = np.linalg.solve(m.sigma, np.ones(m.n))
            gamma_m = float(np.ones(m.n) @ sigma_inv_one)
            beta_m = float(m.mu @ sigma_inv_one)
            x = markowitz_frontier(m, [beta_m / gamma_m])[0][0]
            assert np.allclose(m.to_internal(x), sigma_inv_one / gamma_m, atol=1e-10)

    def test_example3_against_kkt_system(self, example3):
        m, _ = example3
        target = 2.0
        x = markowitz_frontier(m, [target])[0][0]
        # independent route: bordered KKT system of the equality QP
        n = m.n
        kkt = np.zeros((n + 2, n + 2))
        kkt[:n, :n] = m.sigma
        kkt[:n, n] = np.ones(n)
        kkt[:n, n + 1] = m.mu
        kkt[n, :n] = np.ones(n)
        kkt[n + 1, :n] = m.mu
        rhs = np.zeros(n + 2)
        rhs[n] = 1.0
        rhs[n + 1] = target
        sol = np.linalg.solve(kkt, rhs)[:n]
        assert np.max(np.abs(m.to_internal(x) - sol)) < 1e-10

    def test_two_asset_line(self):
        m = validate_model(MarketModel(mu=[1.0, 2.0], sigma=np.eye(2),
                                       conditioning_asset=1, risk=RiskParams(a=1, b=1)))
        for e in (1.0, 1.3, 2.0, 2.5):
            x = markowitz_frontier(m, [e])[0][0]
            assert np.allclose(x, [2.0 - e, e - 1.0], atol=1e-12)


class TestFrontier:
    def test_example2_v_shape(self, example2):
        m, r = example2
        points = frontier(m, r, 1.0, 3.0, 81)
        values = np.array([p.value for p in points])
        es = np.array([p.E for p in points])
        k = int(np.argmin(values))
        assert es[k] == pytest.approx(2.0)
        assert values[k] == pytest.approx(-1.0, abs=1e-12)
        second = np.diff(values, 2)
        h = es[1] - es[0]
        interior_kinks = np.nonzero(np.abs(second) > 1e-8 * h)[0]
        assert len(interior_kinks) == 1
        assert es[interior_kinks[0] + 1] == pytest.approx(2.0)

    def test_single_point_grid(self, example2):
        m, r = example2
        pts = frontier(m, r, 2.0, 2.0, 1)
        assert len(pts) == 1
        assert pts[0].value == solve_critical(m, r, 2.0).value

    def test_point_is_immutable_with_named_fields(self, example2):
        m, r = example2
        p = frontier(m, r, 1.0, 3.0, 3)[1]
        assert (p.E, p.value, p.status) == (2.0, solve_critical(m, r, 2.0).value, "Unique")
        assert isinstance(p.efficient, bool)
        assert np.array_equal(p.weights, solve_critical(m, r, 2.0).x)
        for name in ("E", "value", "weights", "efficient", "status"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)
        assert p == FrontierPoint(E=p.E, value=p.value, weights=p.weights,
                                  efficient=p.efficient, status=p.status)

    def test_efficiency_flags_follow_class(self, example3):
        m, r = example3
        assert classify_efficiency(r) is EfficiencyClass.NON_NEGATIVE_E_HAT
        pts = frontier(m, r, 0.0, 2.0, 41)
        for p in pts:
            assert p.efficient == (p.E >= m.mu1 - 1e-12)

    def test_flags_across_the_five_stress_pairs(self):
        from conftest import example3_at
        for a, b in [(1.0, 0.3), (2.0, 0.35), (1.0, 1.0), (0.1, 1.0), (5.0, 0.8)]:
            m, r = example3_at(a, b)
            eff = classify_efficiency(r)
            pts = frontier(m, r, 0.0, 2.0, 21)
            for p in pts:
                if eff is EfficiencyClass.NONE_EFFICIENT:
                    assert not p.efficient
                elif eff is EfficiencyClass.ALL_EFFICIENT:
                    assert p.efficient
                else:
                    assert p.efficient == (p.E >= m.mu1 - 1e-12)

    def test_value_not_above_grid_oracle(self):
        from covarsel import HyperplaneSlice, grid_minimize
        rng = np.random.default_rng(44)
        for _ in range(10):
            m, r = random_model_delta(rng, +1, n=3)
            target = float(rng.uniform(m.mu.min(), m.mu.max()))
            sol = solve_critical(m, r, target)
            _, grid_val = grid_minimize(m, r, HyperplaneSlice(E=target, bound=4.0), 1e-3)
            assert sol.value <= grid_val + 1e-6

    def test_higher_dimension_against_smooth_minimizer(self):
        """Independent cross-check for n > 3 where the grid oracle cannot go:
        quasi-Newton minimization over the constraint nullspace."""
        from scipy.optimize import minimize as scipy_minimize

        rng = np.random.default_rng(45)
        for _ in range(25):
            m, r = random_model_delta(rng, +1, n=int(rng.integers(4, 7)))
            e_hat = float(rng.uniform(0.2, 1.5)) * (1 if rng.random() < 0.5 else -1)
            target = m.mu1 + e_hat
            sol = solve_critical(m, r, target)
            n = m.n
            rows = np.vstack([np.ones(n), m.mu])
            x0, *_ = np.linalg.lstsq(rows, np.array([1.0, target]), rcond=None)
            _, _, vt = np.linalg.svd(rows)
            null = vt[2:].T
            c = m.risk.a * r.q - m.mu

            def fun(w):
                x = x0 + null @ w
                return float(c @ x) + m.risk.b * math.sqrt(max(float(x @ r.Q @ x), 1e-30))

            def jac(w):
                x = x0 + null @ w
                quad = max(float(x @ r.Q @ x), 1e-30)
                return null.T @ (c + m.risk.b * (r.Q @ x) / math.sqrt(quad))

            res = scipy_minimize(fun, np.zeros(null.shape[1]), jac=jac, method="BFGS",
                                 options={"gtol": 1e-11, "maxiter": 600})
            assert res.fun == pytest.approx(sol.value, rel=1e-7, abs=1e-7)
            x_num = x0 + null @ res.x
            assert np.max(np.abs(x_num - m.to_internal(sol.x))) < 1e-5

    def test_fallback_minimizes_the_objective_too(self):
        """With dependent vectors the minimum-variance portfolio must also be
        the risk-measure minimizer on every slice (verified by golden section)."""
        from helpers import slice_min_oracle

        rng = np.random.default_rng(46)
        built = 0
        while built < 10:
            base = rng.normal(size=(3, 3))
            sigma = base @ base.T + np.trace(base @ base.T) * np.eye(3) / 3
            mu = rng.normal(size=3) * 1.5
            if np.ptp(mu) < 0.3:
                continue
            xi1, xi2 = rng.uniform(0.2, 1.0), rng.uniform(0.5, 1.5)
            sigma1 = xi1 * mu[0] + xi2
            if sigma1 <= 0.2:
                continue
            col = sigma1 * (xi1 * mu + xi2)
            sigma[:, 0] = col
            sigma[0, :] = col
            sigma[0, 0] = sigma1 ** 2
            try:
                m = validate_model(MarketModel(mu=mu, sigma=sigma, conditioning_asset=1,
                                               risk=RiskParams(a=rng.uniform(0.4, 1.5),
                                                               b=rng.uniform(0.4, 1.5))))
            except Exception:
                continue
            from covarsel import reduce_model
            r = reduce_model(m)
            if r.independent:
                continue
            built += 1
            target = float(rng.uniform(mu.min() + 0.05, mu.max() - 0.05))
            sol = solve_critical(m, r, target)
            assert sol.status is SolveStatus.MARKOWITZ_FALLBACK
            # golden section over the whole slice line (not just the simplex part)
            x0, d, _, _ = __import__("helpers").slice_segment(m, target)
            from helpers import covar_value_raw, golden_section
            fun = lambda t: covar_value_raw(m, r, x0 + t * d)
            _, ref = golden_section(fun, -20.0, 20.0, iters=200)
            assert sol.value == pytest.approx(ref, abs=1e-7)

    @pytest.mark.parametrize("n", [3, 10, 30, 100, 300])
    def test_points_equal_single_solves(self, n):
        """The batched frontier is the per-target solve bit for bit, on both
        sides of E = mu_Y and at E = mu_Y itself, where x = e_Y."""
        rng = np.random.default_rng(100 + n)
        for _ in range(2):
            m, r = random_model_delta(rng, +1, n=n)
            span = float(np.ptp(m.mu))
            for lo, hi in ((m.mu1 - span, m.mu1), (m.mu1, m.mu1 + span)):
                pts = frontier(m, r, lo, hi, 101)
                assert m.mu1 in (pts[0].E, pts[-1].E)
                for p in pts:
                    sol = solve_critical(m, r, p.E)
                    assert np.array_equal(p.weights, sol.x)
                    assert p.value == sol.value
                    assert p.efficient is point_is_efficient(sol.efficiency_class, sol.E_hat)
            e_y = np.zeros(n)
            e_y[int(m.perm[0])] = 1.0
            assert np.array_equal(frontier(m, r, m.mu1, m.mu1 + span, 101)[0].weights, e_y)

    def test_delta_negative_raises(self, example1):
        m, r = example1
        with pytest.raises(PreconditionViolated):
            frontier(m, r, 1.0, 3.0, 11)

    def test_fallback_frontier_when_dependent(self):
        mu = np.array([1.0, 2.0, 4.0])
        sigma1 = 0.5 * mu[0] + 0.5
        col = sigma1 * (0.5 * mu + 0.5)
        sigma = np.array([[1.0, col[1], col[2]],
                          [col[1], 9.0, 0.0],
                          [col[2], 0.0, 16.0]])
        m = validate_model(MarketModel(mu=mu, sigma=sigma, conditioning_asset=1,
                                       risk=RiskParams(a=1, b=1)))
        from covarsel import reduce_model
        r = reduce_model(m)
        pts = frontier(m, r, 1.5, 3.0, 7)
        assert all(p.status == SolveStatus.MARKOWITZ_FALLBACK.value for p in pts)
        for p in pts:
            sol = solve_critical(m, r, p.E)
            assert np.array_equal(p.weights, sol.x)
            assert p.value == pytest.approx(sol.value, rel=1e-12, abs=1e-12)
            assert p.efficient is point_is_efficient(sol.efficiency_class, sol.E_hat)


class TestDependentMarkets:
    """Markets with q = c0 + c1 mu + eps * noise: dependent (1, mu, q) at
    eps = 0, near-dependent for small eps.  One closed form serves them all;
    the MarkowitzFallback status is a label only."""

    FEAS_TOL = 1e-12

    @staticmethod
    def _slsqp(m, q, big_q, target, starts, feas_tol):
        """Best SLSQP value on the slice over the starts, counting only
        results that meet both constraints to ``feas_tol``; None if none do."""
        from scipy.optimize import minimize

        a, b = m.risk.a, m.risk.b

        def f(x):
            return -(x @ m.mu) + a * (x @ q) + b * math.sqrt(max(float(x @ big_q @ x), 0.0))

        def grad(x):
            qx = big_q @ x
            root = math.sqrt(max(float(x @ qx), 0.0))
            # At e_Y the root has no gradient; 0 is a subgradient there.
            return -m.mu + a * q + (b * qx / root if root > 0.0 else 0.0)

        cons = [{"type": "eq", "fun": lambda x: x.sum() - 1.0},
                {"type": "eq", "fun": lambda x: x @ m.mu - target}]
        best = None
        for x0 in starts:
            x = minimize(f, x0, jac=grad, method="SLSQP", constraints=cons,
                         options={"ftol": 1e-15, "maxiter": 500}).x
            if max(abs(x.sum() - 1.0), abs(x @ m.mu - target)) > feas_tol:
                continue
            best = f(x) if best is None else min(best, f(x))
        return best

    @pytest.mark.parametrize("eps", [1e-8, 1e-6])
    def test_never_above_slsqp_near_dependence(self, eps):
        rng = np.random.default_rng(70)
        checked = 0
        for _ in range(40):
            m, r, q, big_q = near_dependent_model(rng, int(rng.integers(3, 8)), eps)
            target = float(m.mu.max())
            sol = solve_critical(m, r, target)
            ref = self._slsqp(m, q, big_q, target, [np.full(m.n, 1.0 / m.n), sol.x],
                              self.FEAS_TOL * max(1.0, abs(target)))
            if ref is None:
                continue
            checked += 1
            assert sol.value <= ref + 1e-9 * max(1.0, abs(ref))
        assert checked >= 30

    def test_efficiency_flags_are_covar_dominance(self):
        """On exactly dependent markets a frontier point is flagged efficient
        iff no higher-return grid point has a value at most its own.  The
        grid holds the kink at E = mu_Y, so it sees every dominating point."""
        rng = np.random.default_rng(71)
        classes = set()
        for _ in range(50):
            m, r, _, _ = near_dependent_model(rng, int(rng.integers(3, 8)), 0.0,
                                              c0=0.5, c1=float(rng.uniform(-3.0, 3.0)))
            span = float(np.ptp(m.mu))
            pts = frontier(m, r, m.mu1 - span, m.mu1 + span, 41)
            assert all(p.status == SolveStatus.MARKOWITZ_FALLBACK.value for p in pts)
            values = np.array([p.value for p in pts])
            for k, p in enumerate(pts[:-1]):
                assert p.efficient is not bool(np.any(values[k + 1:] <= p.value))
            classes.add(classify_efficiency(r))
        assert classes == set(EfficiencyClass)

    def test_closed_form_is_markowitz_at_exact_dependence(self):
        """At eps = 0 the closed form is the minimum-variance portfolio, the
        status stays MarkowitzFallback and the efficiency class is set."""
        rng = np.random.default_rng(72)
        for _ in range(50):
            m, r, _, _ = near_dependent_model(rng, int(rng.integers(3, 8)), 0.0)
            assert not r.independent
            span = float(np.ptp(m.mu))
            pts = frontier(m, r, m.mu1 - span, m.mu1 + span, 41)
            ref, _ = markowitz_frontier(m, [p.E for p in pts])
            assert np.max(np.abs(np.array([p.weights for p in pts]) - ref)) <= 1e-12
            assert all(p.status == SolveStatus.MARKOWITZ_FALLBACK.value for p in pts)
            sol = solve_critical(m, r, pts[7].E)
            assert sol.status is SolveStatus.MARKOWITZ_FALLBACK
            assert sol.efficiency_class is classify_efficiency(r)


class TestBatchedRecheck:
    """Every row of a batch is checked, and a NaN fails the check."""

    @pytest.mark.parametrize("field", ["Q", "qinv_mu"])
    def test_corrupted_reduced_model(self, field):
        # A scaled Q moves the re-evaluated values off the closed form; a
        # scaled Qhat^-1 mu_hat moves the rows off the return constraint.
        m, r = random_model_delta(np.random.default_rng(51), +1, n=10)
        bad = dataclasses.replace(r, **{field: getattr(r, field) * 1.001})
        with pytest.raises(NumericalBreakdown):
            frontier(m, bad, m.mu1 - 1.0, m.mu1 + 1.0, 101)
        with pytest.raises(NumericalBreakdown):
            solve_critical(m, bad, m.mu1 + 1.0)

    @pytest.mark.parametrize("where", ["value", "coeff", "basis"])
    def test_nan_row_fails(self, where):
        m, r = random_model_delta(np.random.default_rng(52), +1, n=10)
        e_hat = np.linspace(-1.0, 1.0, 101)
        coeffs, basis, values = (a.copy() for a in _closed_form(m, r, e_hat))
        _recheck(m, r, e_hat, coeffs, basis, values)
        if where == "value":
            values[37] = math.nan
        elif where == "coeff":
            coeffs[37, 2] = math.nan
        else:
            basis[2, 2] = math.nan
        with pytest.raises(NumericalBreakdown):
            _recheck(m, r, e_hat, coeffs, basis, values)

    @pytest.mark.parametrize("n", [3, 30, 300])
    def test_basis_values_equal_direct_rows(self, n):
        """Read off the 3 x 3 Gram matrices, the recheck gives the values of
        ``_raw_rows`` on the emitted weights."""
        rng = np.random.default_rng(53 + n)
        for _ in range(3):
            m, r = random_model_delta(rng, +1, n=n)
            span = float(np.ptp(m.mu))
            e_hat = np.linspace(-span, span, 101)
            coeffs, basis, values = _closed_form(m, r, e_hat)
            via_basis = _covar_rows(m, r, coeffs, basis)[3]
            direct = _raw_rows(m, r, _recheck(m, r, e_hat, coeffs, basis, values))
            assert np.all(np.abs(via_basis - direct) <= 1e-12 * np.maximum(1.0, np.abs(direct)))

    def test_e_y_row_has_zero_quadratic(self):
        m, r = random_model_delta(np.random.default_rng(54), +1, n=30)
        e_hat = np.linspace(-1.0, 1.0, 101)
        assert e_hat[50] == 0.0
        coeffs, basis, values = _closed_form(m, r, e_hat)
        assert coeffs[50].tolist() == [1.0, 0.0, 0.0]
        assert _gram_rows(coeffs, basis, r.Q)[50] == 0.0
        x = _recheck(m, r, e_hat, coeffs, basis, values)
        assert x[50].tolist() == basis[0].tolist()
        assert not np.any(np.signbit(x) & (x == 0.0))
        row = frontier(m, r, m.mu1, m.mu1, 1)[0].weights
        assert row.tolist() == m.to_original(basis[0]).tolist()
        assert not np.any(np.signbit(row))

    @pytest.mark.parametrize("n", [3, 30, 300])
    def test_ray_vectors_meet_constraints(self, n):
        """The ray's base is feasible at the target, and its direction has
        zero budget and zero return, to rounding of the direction's size."""
        rng = np.random.default_rng(55 + n)
        for _ in range(3):
            m, r = random_model_delta(rng, -1, n=n)
            mu = m.to_original(m.mu)
            target = float(np.mean(mu)) + float(np.ptp(mu))
            sol = solve_critical(m, r, target)
            assert sol.status is SolveStatus.UNBOUNDED_BELOW
            base, d = sol.ray_base, sol.ray_direction
            assert abs(base.sum() - 1.0) <= CONSTRAINT_TOL
            assert abs(base @ mu - target) <= CONSTRAINT_TOL * max(1.0, abs(target))
            scale = float(np.max(np.abs(d)))
            assert abs(d.sum()) <= 1e-12 * scale
            assert abs(d @ mu) <= 1e-12 * scale


class TestFrontierRecord:
    """``frontier`` returns one columnar record; rows are built on demand."""

    def test_columns_types_shapes_and_read_only(self, example2):
        m, r = example2
        fr = frontier(m, r, 1.0, 3.0, 11)
        assert isinstance(fr, Frontier) and fr.status == "Unique"
        for name, dtype, shape in (("E", np.float64, (11,)), ("value", np.float64, (11,)),
                                   ("weights", np.float64, (11, 3)),
                                   ("efficient", np.bool_, (11,))):
            arr = getattr(fr, name)
            assert arr.dtype == dtype and arr.shape == shape
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        for name in ("E", "value", "weights", "efficient", "status"):
            with pytest.raises(AttributeError):
                setattr(fr, name, None)
        assert fr.E.tolist() == np.linspace(1.0, 3.0, 11).tolist()

    def test_len_indexing_and_repeated_iteration(self, example2):
        m, r = example2
        fr = frontier(m, r, 1.0, 3.0, 11)
        assert len(fr) == 11
        first, second = list(fr), list(fr)
        assert len(first) == len(second) == 11
        for k, (p, q) in enumerate(zip(first, second)):
            assert isinstance(p, FrontierPoint)
            row = fr[k]
            assert (p.E, p.value, p.efficient, p.status) == (q.E, q.value, q.efficient, q.status) \
                == (row.E, row.value, row.efficient, row.status)
            assert np.array_equal(p.weights, q.weights) and np.array_equal(p.weights, row.weights)
            assert type(p.E) is float and type(p.value) is float
            sol = solve_critical(m, r, p.E)
            assert p.value == sol.value and np.array_equal(p.weights, sol.x)
        assert fr[-1].E == fr[10].E == 3.0
        with pytest.raises(IndexError):
            fr[11]
        tail = fr[8:]
        assert isinstance(tail, Frontier) and [p.E for p in tail] == [p.E for p in first[8:]]

    def test_efficient_is_a_python_bool_per_row(self, example3):
        m, r = example3
        fr = frontier(m, r, 0.0, 2.0, 21)
        flags = [p.efficient for p in fr]
        assert all(type(f) is bool for f in flags)
        assert all(type(fr[k].efficient) is bool for k in range(len(fr)))
        assert True in flags and False in flags

    def test_one_row_from_scalars_and_mismatched_columns(self):
        fr = Frontier(2.0, 0.5, [0.2, 0.8], True, "Constrained")
        assert len(fr) == 1 and fr.weights.shape == (1, 2)
        row = fr[0]
        assert (row.E, row.value, row.efficient, row.status) == (2.0, 0.5, True, "Constrained")
        assert row.weights.tolist() == [0.2, 0.8]
        from covarsel import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            Frontier([1.0, 2.0], [0.5], [[0.2, 0.8], [0.1, 0.9]], [True, False], "Unique")

    def test_record_leaves_the_callers_arrays_writable(self):
        grid = np.linspace(0.0, 1.0, 3)
        fr = Frontier(grid, grid, np.ones((3, 2)) / 2, np.zeros(3, bool), "Unique")
        grid[0] = -1.0
        assert not fr.E.flags.writeable and fr.E[0] == -1.0

    def test_memory_budget(self, example2):
        """A 101-point n = 3 frontier keeps at most 8 KB (the columns are
        about 3.5 KB) and at most 10 objects the garbage collector tracks;
        101 tuples with a view each kept about 29 KB and 100 objects."""
        m, r = example2
        frontier(m, r, 1.0, 3.0, 101)
        gc.collect()
        tracked = len(gc.get_objects())
        kept = [frontier(m, r, 1.0, 3.0, 101) for _ in range(10)]
        gc.collect()
        assert (len(gc.get_objects()) - tracked) / len(kept) <= 10
        del kept
        gc.collect()
        tracemalloc.start()
        try:
            kept = frontier(m, r, 1.0, 3.0, 101)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(kept) == 101 and retained <= 8 * 1024


class TestOverflow:
    """Targets whose closed form or risk overflows end in one
    NumericalBreakdown that names the non-finite quantity, and no numpy
    warning escapes."""

    @pytest.mark.parametrize("target,name", [(1e200, "risk value"),
                                             (-1e308, "closed-form value")])
    def test_solve(self, example2, target, name):
        m, r = example2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdown, match=f"^{name} .* is not finite$"):
                solve_critical(m, r, target)

    def test_frontier(self, example2):
        m, r = example2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdown, match="^closed-form value .* is not finite$"):
                frontier(m, r, 0.0, 1e308, 3)

    def test_portfolio(self, example2):
        m, r = example2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdown,
                               match="^risk value inf or portfolio variance inf is not finite$"):
                covar_portfolio(m, r, [1e200, -1e200, 1.0])
