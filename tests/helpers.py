"""Random model generation and small numeric oracles shared by the tests."""

import math

import numpy as np

from covarsel import (MarketModel, McEstimate, RiskParams, TooFewBandSamples, reduce_model,
                      validate_model)
from covarsel.oracle import BOOTSTRAP_REPS, MIN_TAIL_DRAWS, _quantile_rank


def random_model(rng, n=None, a=None, b=None, conditioning_asset=None):
    """A well-conditioned random market: sigma = AA' + ridge, generic mu."""
    n = int(n if n is not None else rng.integers(3, 9))
    mat = rng.normal(size=(n, n))
    sigma = mat @ mat.T + 0.5 * np.trace(mat @ mat.T) / n * np.eye(n)
    mu = rng.normal(size=n) * 2.0
    while np.ptp(mu) < 1e-6:
        mu = rng.normal(size=n) * 2.0
    a = float(a if a is not None else rng.uniform(0.3, 2.5))
    b = float(b if b is not None else rng.uniform(0.3, 2.5))
    cond = int(conditioning_asset if conditioning_asset is not None
               else rng.integers(1, n + 1))
    m = validate_model(MarketModel(mu=mu, sigma=sigma, conditioning_asset=cond,
                                   risk=RiskParams(a=a, b=b)))
    return m, reduce_model(m)


def random_model_delta(rng, sign, n=None, factor=1.4):
    """Random market with the discriminant forced to the requested sign.

    With b = factor * a * sqrt(detG / alpha_C), Delta has the sign of
    factor - 1, so factor 1.4 gives Delta > 0 and 1/1.4 gives Delta < 0.
    """
    while True:
        m, r = random_model(rng, n=n, b=1.0)
        if not r.independent or r.detG <= 0:
            continue
        ratio = m.risk.a * np.sqrt(r.detG / r.alpha_C)
        b = ratio * (factor if sign > 0 else 1.0 / factor)
        m2 = validate_model(MarketModel(
            mu=m.to_original(m.mu), sigma=m.sigma[np.ix_(m.inv_perm, m.inv_perm)],
            conditioning_asset=int(m.perm[0]) + 1,
            risk=RiskParams(a=m.risk.a, b=float(b))))
        r2 = reduce_model(m2)
        if r2.independent and np.sign(r2.Delta) == sign:
            return m2, r2


def ill_conditioned_model(seed, index):
    """Market ``index`` (0-based) of a seeded sweep of ill-conditioned markets,
    drawn in this order per market: n in 3-8, k in 1-n, A (n x k) normal,
    ``sigma = AA'/k + 10^U(-8, 0) I``, mu normal, a ~ U(0.3, 2.5), the
    conditioning asset and u ~ U(1.2, 3); then ``b = a sqrt(detG / alpha_C) u``,
    so Delta > 0."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n + 1))
        mat = rng.normal(size=(n, k))
        sigma = mat @ mat.T / k + 10 ** rng.uniform(-8, 0) * np.eye(n)
        mu = rng.normal(size=n)
        a = float(rng.uniform(0.3, 2.5))
        cond = int(rng.integers(1, n + 1))
        u = float(rng.uniform(1.2, 3.0))
    r = reduce_model(validate_model(MarketModel(mu=mu, sigma=sigma, conditioning_asset=cond,
                                                risk=RiskParams(a=a, b=1.0))))
    m = validate_model(MarketModel(mu=mu, sigma=sigma, conditioning_asset=cond,
                                   risk=RiskParams(a=a, b=a * math.sqrt(r.detG / r.alpha_C) * u)))
    return m, reduce_model(m)


def near_dependent_model(rng, n, eps, c0=0.5, c1=0.2):
    """Market with ``q = c0 + c1 mu + eps * noise``, rescaled so that
    q_Y = sigma_Y; eps = 0 makes (1, mu, q) exactly dependent.

    The conditioning asset is the first, so internal and caller order agree.
    ``Sigma = [[s^2, s q_r'], [s q_r, Qhat + q_r q_r']]`` is positive definite
    for a positive definite Qhat, and ``Q = Sigma - q q' = diag(0, Qhat)``,
    which is returned with the pair as an oracle independent of
    ``reduce_model``.
    """
    while True:
        mu = rng.normal(size=n)
        q = c0 + c1 * mu + eps * rng.normal(size=n)
        if abs(q[0]) > 0.1 and np.ptp(mu) > 1e-3:
            break
    s = float(rng.uniform(0.5, 2.0))
    q = q * (s / q[0])
    mat = rng.normal(size=(n - 1, n - 1))
    qhat = mat @ mat.T + 0.5 * np.eye(n - 1)
    sigma = np.empty((n, n))
    sigma[0, 0] = s * s
    sigma[0, 1:] = sigma[1:, 0] = s * q[1:]
    sigma[1:, 1:] = qhat + np.outer(q[1:], q[1:])
    big_q = np.zeros((n, n))
    big_q[1:, 1:] = qhat
    m = validate_model(MarketModel(mu=mu, sigma=sigma, conditioning_asset=1,
                                   risk=RiskParams(a=float(rng.uniform(0.3, 2.5)),
                                                   b=float(rng.uniform(0.3, 2.5)))))
    return m, reduce_model(m), q, big_q


def _stress_law(m, coeffs, basis):
    """Law of X = x'R given Y = y* for each row x of ``coeffs @ basis`` (internal
    order) from ``mu`` and ``sigma`` alone: arrays ``(expected, sigma_X, rho,
    cond_mean, cond_var)``, ``rho = x'sigma e_Y / (sigma_X sigma_Y)`` clamped.
    The reference that ``riskmeasures._pair_law`` is held to."""
    mu_y, sigma_y = m.mu1, m.sigma1
    expected = coeffs @ (basis @ m.mu)
    sigma_x = np.sqrt(np.maximum(0.0, np.einsum("ij,ij->i", coeffs @ (basis @ m.sigma @ basis.T),
                                                coeffs)))
    cov_xy = coeffs @ (basis @ m.sigma[:, 0])
    rho = np.minimum(1.0, np.maximum(-1.0, cov_xy / (sigma_x * sigma_y)))
    y_star = mu_y - m.risk.a * sigma_y
    cond_mean = expected + rho * sigma_x / sigma_y * (y_star - mu_y)
    cond_var = np.maximum(0.0, sigma_x * sigma_x * (1.0 - rho * rho))
    return expected, sigma_x, rho, cond_mean, cond_var


def covar_value_raw(m, r, x_internal):
    """Objective value in internal coordinates, no route cross-check."""
    quad = max(float(x_internal @ r.Q @ x_internal), 0.0)
    return float(-(x_internal @ m.mu) + m.risk.a * (x_internal @ r.q)
                 + m.risk.b * np.sqrt(quad))


def covar_at(m, r, x):
    """``covar_value_raw`` at weights x in the caller's asset order; the
    objective on all of R^n, no budget constraint."""
    return covar_value_raw(m, r, m.to_internal(x))


def slice_segment(m, target):
    """Parametrize {sum = 1, mu'x = E} for n = 3 as x0 + t*d with the feasible
    t-interval for x >= 0; returns (x0, d, lo, hi) in internal coordinates."""
    rows = np.vstack([np.ones(3), m.mu])
    rhs = np.array([1.0, target])
    x0, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    _, _, vt = np.linalg.svd(rows)
    d = vt[-1]
    lo, hi = -np.inf, np.inf
    for i in range(3):
        if d[i] > 1e-14:
            lo = max(lo, -x0[i] / d[i])
        elif d[i] < -1e-14:
            hi = min(hi, -x0[i] / d[i])
    return x0, d, lo, hi


def golden_section(fun, lo, hi, iters=140):
    """Golden-section minimization of a scalar unimodal function."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = float(lo), float(hi)
    for _ in range(iters):
        c_ = b_ - inv_phi * (b_ - a_)
        d_ = a_ + inv_phi * (b_ - a_)
        if fun(c_) < fun(d_):
            b_ = d_
        else:
            a_ = c_
    t = 0.5 * (a_ + b_)
    return t, fun(t)


def slice_min_oracle(m, r, target):
    """Constrained-slice minimum for n = 3 by golden section plus endpoints."""
    x0, d, lo, hi = slice_segment(m, target)
    if lo > hi:
        return None
    fun = lambda t: covar_value_raw(m, r, x0 + t * d)
    _, val = golden_section(fun, lo, hi)
    return min(val, fun(lo), fun(hi))


def slice_vertices(mu, target):
    """Vertices of {x >= 0, sum = 1, mu'x = E}: the two-asset mixes that hit
    E, and the single assets that return E exactly."""
    n = mu.shape[0]
    verts = []
    for i in range(n):
        if mu[i] == target:
            verts.append(np.eye(n)[i])
        for j in range(n):
            if mu[i] < target < mu[j]:
                t = (target - mu[i]) / (mu[j] - mu[i])
                v = np.zeros(n)
                v[i], v[j] = 1.0 - t, t
                verts.append(v)
    return np.array(verts)


def sample_slice(rng, mu, target, size):
    """Random points of the slice polytope: Dirichlet mixtures of its vertices."""
    verts = slice_vertices(mu, target)
    return rng.dirichlet(np.ones(verts.shape[0]), size=size) @ verts


def _bootstrap_se(sorted_sample, rank, rng):
    """Bootstrap standard error of the rank-th order statistic of a sorted
    sample, one Beta(rank, N - rank + 1) draw per replicate."""
    n = sorted_sample.shape[0]
    u = rng.beta(rank, n - rank + 1, size=BOOTSTRAP_REPS)
    idx = np.clip(np.ceil(n * u).astype(np.int64) - 1, 0, n - 1)
    return float(np.std(sorted_sample[idx], ddof=1))


def full_array_mc_covar(m, x, cfg):
    """Reference Monte-Carlo estimator that holds every draw: it forms all
    ``samples`` draws from the Cholesky pair's law given z0 = -a, sorts them
    and bootstraps the sorted array.  ``mc_covar`` must match it bit for
    bit."""
    xi = m.to_internal(x)
    beta_level = m.risk.beta_level
    if math.ceil(beta_level * cfg.samples) < MIN_TAIL_DRAWS:
        raise TooFewBandSamples("too few draws below the quantile")
    load = m.chol.T @ xi
    cond_mean = float(xi @ m.mu) - m.risk.a * float(load[0])
    scale = math.sqrt(float(load[1:] @ load[1:]))
    if scale * scale <= 1e-24 * max(1.0, float(xi @ m.sigma @ xi)):
        return McEstimate(estimate=-cond_mean, std_error=0.0)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    rank = _quantile_rank(beta_level, cfg.samples)
    draws = cond_mean + scale * rng.standard_normal(cfg.samples)
    draws.sort()
    return McEstimate(estimate=-float(draws[rank - 1]),
                      std_error=_bootstrap_se(draws, rank, rng))
