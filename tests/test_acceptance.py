"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from covarsel import (ConstrainedProblem, EfficiencyClass, MarketModel, McConfig,
                      RiskParams, SolveStatus, classify_efficiency, covar_portfolio,
                      grid_minimize, markowitz_frontier, mc_covar,
                      minimize_constrained, reduce_model, solve_critical,
                      validate_model)
from conftest import example3_at
from helpers import covar_at, random_model, random_model_delta

EX3_ALPHA, EX3_BETA, EX3_DETG = 13 / 23, 9 / 46, 1 / 92


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS  {text}")


def test_criterion_1_example1_unbounded_regime(example1):
    start = time.perf_counter()
    m, r = example1
    assert r.Delta < 0
    sol = solve_critical(m, r, 2.0)
    assert sol.status is SolveStatus.UNBOUNDED_BELOW
    values = [covar_at(m, r, sol.ray_base + tau * sol.ray_direction)
              for tau in (0.0, 1e3, 3e5)]
    assert values[0] > values[1] > values[2]
    assert values[2] < -1e3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"Delta={r.Delta:.6f} < 0, witness reaches {values[2]:.1f} "
               f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_example1_constrained(example1):
    start = time.perf_counter()
    m, r = example1
    sol = minimize_constrained(ConstrainedProblem(model=m, reduced=r, E=2.0))
    target_x = np.array([2 / 3, 1 / 3, 0.0])
    target_v = (-82 + 7 * math.sqrt(5)) / 45
    assert np.max(np.abs(sol.x - target_x)) < 1e-6
    assert abs(sol.value - target_v) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"x=(2/3, 1/3, 0) value={sol.value:.9f} ({elapsed * 1e3:.0f} ms)")


def test_criterion_3_example2_both_solvers(example2):
    m, r = example2
    sol = solve_critical(m, r, 2.0)
    assert np.max(np.abs(sol.x - np.array([1.0, 0.0, 0.0]))) < 1e-9
    assert abs(sol.value - (-1.0)) < 1e-9
    con = minimize_constrained(ConstrainedProblem(model=m, reduced=r, E=None))
    assert np.max(np.abs(con.x - np.array([1.0, 0.0, 0.0]))) < 1e-9
    assert abs(con.value - (-1.0)) < 1e-9
    assert classify_efficiency(r) is EfficiencyClass.NON_NEGATIVE_E_HAT
    t = r.a * r.beta_C - r.alpha_C
    root = math.sqrt(r.Delta)
    assert t == pytest.approx(-370 / 191, rel=1e-12)          # ~ -1.937
    assert root == pytest.approx(math.sqrt(160440 / 36481), rel=1e-12)  # ~ 2.097
    _report(3, f"both solvers at (1,0,0), value -1; t={t:.3f}, "
               f"sqrt(Delta)={root:.3f}")


def test_criterion_4_example3_description_and_cases(example3, scenario_dir):
    import io
    import json
    from contextlib import redirect_stdout

    from covarsel.cli import main as cli_main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["describe", "--scenario",
                         str(scenario_dir / "example3.json"), "--format", "json"])
    assert code == 0
    described = json.loads(buf.getvalue())
    assert described["Qhat"] == [[8.0, -2.0], [-2.0, 12.0]]

    _, r = example3
    assert np.array_equal(r.Qhat, np.array([[8.0, -2.0], [-2.0, 12.0]]))
    # independent 2x2 inverse route for the Gramian scalars
    qhat = np.array([[8.0, -2.0], [-2.0, 12.0]])
    det = qhat[0, 0] * qhat[1, 1] - qhat[0, 1] * qhat[1, 0]
    inv = np.array([[qhat[1, 1], -qhat[0, 1]], [-qhat[1, 0], qhat[0, 0]]]) / det
    mu_hat, q_hat = np.array([1.0, 2.0]), np.array([0.0, 1.0])
    a_c = mu_hat @ inv @ mu_hat
    b_c = mu_hat @ inv @ q_hat
    g_c = q_hat @ inv @ q_hat
    assert abs(r.alpha_C - a_c) < 1e-12 and abs(a_c - EX3_ALPHA) < 1e-12
    assert abs(r.beta_C - b_c) < 1e-12 and abs(b_c - EX3_BETA) < 1e-12
    assert abs(r.gamma_C - g_c) < 1e-12 and abs(g_c - 2 / 23) < 1e-12
    assert abs(r.detG - EX3_DETG) < 1e-12

    # five stress pairs: regions verified from the exact constants before
    # asking the library, covering case 1 twice, case 2 twice, case 3 once
    pairs = [(1.0, 0.3), (2.0, 0.35), (1.0, 1.0), (0.1, 1.0), (5.0, 0.8)]
    expected = [EfficiencyClass.NONE_EFFICIENT, EfficiencyClass.NONE_EFFICIENT,
                EfficiencyClass.NON_NEGATIVE_E_HAT, EfficiencyClass.NON_NEGATIVE_E_HAT,
                EfficiencyClass.ALL_EFFICIENT]
    for (a, b), want in zip(pairs, expected):
        delta = b * b * EX3_ALPHA - a * a * EX3_DETG
        t = a * EX3_BETA - EX3_ALPHA
        assert delta > 0
        root = math.sqrt(delta)
        analytic = (EfficiencyClass.NONE_EFFICIENT if t <= -root
                    else EfficiencyClass.NON_NEGATIVE_E_HAT if t <= root
                    else EfficiencyClass.ALL_EFFICIENT)
        assert analytic is want
        _, r_ab = example3_at(a, b)
        assert classify_efficiency(r_ab) is want
    counts = {c: expected.count(c) for c in set(expected)}
    assert counts[EfficiencyClass.NONE_EFFICIENT] == 2
    assert counts[EfficiencyClass.NON_NEGATIVE_E_HAT] == 2
    assert counts[EfficiencyClass.ALL_EFFICIENT] == 1
    _report(4, "Qhat exact, Gramian scalars at 1e-12, five pairs cover 1/1/2/2/3")


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    worst_gap = 0.0
    for _ in range(100):
        m, r = random_model_delta(rng, +1, n=3)
        target = float(rng.uniform(m.mu.min(), m.mu.max()))
        sol = solve_critical(m, r, target)
        w_star = m.to_internal(sol.x)
        rows = np.vstack([np.ones(3), m.mu])
        _, _, vt = np.linalg.svd(rows)
        x0, *_ = np.linalg.lstsq(rows, np.array([1.0, target]), rcond=None)
        coord = float(vt[-1] @ (w_star - x0))
        bound = max(2.0, 1.5 * abs(coord))
        assert abs(coord) < bound
        e_hat = target - m.mu1
        resolution = min(2e-4, max(1e-6, 5e-5 * abs(e_hat)))
        _, grid_val = grid_minimize(m, r, resolution, E=target, bound=bound)
        assert grid_val >= sol.value - 1e-9
        gap = abs(grid_val - sol.value)
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-5
    grid_done = time.perf_counter()

    hits = 0
    for _ in range(100):
        m, r = random_model(rng, n=int(rng.integers(3, 6)))
        x = rng.dirichlet(np.ones(m.n))
        closed = covar_portfolio(m, r, x)
        est = mc_covar(m, x, McConfig(samples=1_000_000,
                                      seed=int(rng.integers(2 ** 32))))
        if est.std_error == 0.0:
            hits += int(abs(est.estimate - closed.covar) < 1e-9)
        else:
            hits += int(abs(est.estimate - closed.covar) <= 3.0 * est.std_error)
    elapsed = time.perf_counter() - start
    assert hits >= 95
    assert elapsed < 60.0
    _report(5, f"grid gap max {worst_gap:.2e} (<1e-5); MC within 3SE {hits}/100; "
               f"{elapsed:.1f} s (grid {grid_done - start:.1f} s)")


def test_criterion_6_invariant_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    n_inst = 200

    for _ in range(n_inst):  # homogeneity and midpoint convexity
        m, r = random_model(rng)
        x = rng.normal(size=m.n)
        y = rng.normal(size=m.n)
        lam_h = rng.uniform(0.01, 10.0)
        assert covar_at(m, r, lam_h * x) == pytest.approx(
            lam_h * covar_at(m, r, x), rel=1e-10, abs=1e-10)
        lam_c = rng.uniform(0.0, 1.0)
        assert covar_at(m, r, lam_c * x + (1 - lam_c) * y) <= \
            lam_c * covar_at(m, r, x) + (1 - lam_c) * covar_at(m, r, y) + 1e-10

    for _ in range(n_inst):  # route agreement (raises internally on drift)
        m, r = random_model(rng)
        x = rng.dirichlet(np.ones(m.n))
        covar_portfolio(m, r, x)

    for _ in range(n_inst):  # Qhat PD and the projected-quadratic identity
        m, r = random_model(rng)
        x = rng.normal(size=m.n)
        sigma2 = float(x @ m.sigma @ x)
        xq = float(x @ r.q)
        assert float(x @ r.Q @ x) == pytest.approx(
            sigma2 * (1.0 - xq * xq / sigma2), rel=1e-10, abs=1e-10)

    done = 0  # minimizer invariance for a = b
    while done < n_inst:
        m, r = random_model(rng, a=0.3, b=0.3)
        if not r.independent or r.Delta <= 0:
            continue
        m2 = validate_model(MarketModel(
            mu=m.to_original(m.mu), sigma=m.sigma[np.ix_(m.inv_perm, m.inv_perm)],
            conditioning_asset=int(m.perm[0]) + 1, risk=RiskParams(a=1.7, b=1.7)))
        r2 = reduce_model(m2)
        e = float(rng.uniform(m.mu.min(), m.mu.max()))
        assert np.max(np.abs(solve_critical(m, r, e).x
                             - solve_critical(m2, r2, e).x)) < 1e-10
        done += 1

    for _ in range(n_inst):  # two-ray kink structure
        m, r = random_model_delta(rng, +1)
        root = math.sqrt(r.Delta)
        base = m.risk.a * r.beta_C / r.alpha_C - 1.0
        v = {e: solve_critical(m, r, m.mu1 + e).value for e in (-2.0, -1.0, 0.0, 1.0, 2.0)}
        assert v[2.0] - v[1.0] == pytest.approx(base + root / r.alpha_C, rel=1e-9, abs=1e-9)
        assert v[1.0] - v[0.0] == pytest.approx(base + root / r.alpha_C, rel=1e-9, abs=1e-9)
        assert v[-1.0] - v[-2.0] == pytest.approx(base - root / r.alpha_C, rel=1e-9, abs=1e-9)
        assert v[0.0] - v[-1.0] == pytest.approx(base - root / r.alpha_C, rel=1e-9, abs=1e-9)

    from scipy.optimize import minimize as scipy_minimize
    for _ in range(n_inst):  # plain-VaR argmin equals the volatility argmin
        m, r = random_model(rng, n=int(rng.integers(3, 6)))
        target = float(rng.uniform(m.mu.min(), m.mu.max()))
        x_sigma = m.to_internal(markowitz_frontier(m, r, [target])[0][0])
        rows = np.vstack([np.ones(m.n), m.mu])
        x0, *_ = np.linalg.lstsq(rows, np.array([1.0, target]), rcond=None)
        _, _, vt = np.linalg.svd(rows)
        null = vt[2:].T

        def var_of(w):
            x = x0 + null @ w
            return float(-(x @ m.mu) + m.risk.a * math.sqrt(x @ m.sigma @ x))

        def var_jac(w):
            x = x0 + null @ w
            sig = math.sqrt(float(x @ m.sigma @ x))
            return null.T @ (-m.mu + m.risk.a * (m.sigma @ x) / sig)

        res = scipy_minimize(var_of, np.zeros(null.shape[1]), jac=var_jac,
                             method="BFGS", options={"gtol": 1e-12, "maxiter": 400})
        x_var = x0 + null @ res.x
        assert np.max(np.abs(x_var - x_sigma)) < 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(6, f"7 invariant suites x {n_inst} instances ({elapsed:.1f} s)")


def test_criterion_7_lemma_against_dense_search():
    from covarsel import LemmaParams, lemma_minimize
    rng = np.random.default_rng(707)
    ts = np.linspace(-1e3, 1e3, 200_001)
    for _ in range(1000):
        s = float(rng.uniform(0.0, 0.95))
        p = float(rng.uniform(-10.0, 10.0))
        q = float(rng.uniform(0.01, 100.0))
        vals = s * ts + np.sqrt((ts - p) ** 2 + q)
        k = int(np.argmin(vals))
        lo, hi = ts[k - 1], ts[k + 1]
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a_, b_ = lo, hi
        fun = lambda t: s * t + math.sqrt((t - p) ** 2 + q)
        for _ in range(90):
            c_ = b_ - inv_phi * (b_ - a_)
            d_ = a_ + inv_phi * (b_ - a_)
            if fun(c_) < fun(d_):
                b_ = d_
            else:
                a_ = c_
        dense_val = fun(0.5 * (a_ + b_))
        out = lemma_minimize(LemmaParams(s=s, p=p, q_lem=q))
        assert out.value == pytest.approx(dense_val, abs=1e-8)

    for s, p, q in [(1.0, -3.0, 2.0), (1.0, 4.0, 0.5), (1.3, 0.0, 1.0), (2.5, -1.0, 9.0)]:
        vals = [s * t + math.sqrt((t - p) ** 2 + q) for t in (-(10.0 ** k) for k in range(1, 7))]
        assert all(np.diff(vals) < 0)
        if s == 1.0:
            assert all(v > p for v in vals)
            assert vals[-1] == pytest.approx(p, abs=1e-4)
        else:
            assert vals[-1] < -1e5
    _report(7, "1000 random minima at 1e-8 vs dense search; boundary regimes verified")
