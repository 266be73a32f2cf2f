"""Independent verification: Monte-Carlo estimation and brute-force grids.

The Monte-Carlo estimator never touches the analytic risk formulas beyond the
definition itself: it simulates returns, conditions on the stress level of the
conditioning asset and reads off an empirical quantile.  Two estimators are
produced per call:

* exact-conditional: draw from the univariate conditional distribution of the
  portfolio return given the stress event (a probability-zero event, so
  conditioning is done analytically) and negate the empirical beta-quantile;
* band: draw joint returns with the covariance Cholesky factor, retain draws
  with the conditioning asset inside a band around the stress level, and take
  the same empirical quantile.  The conditioning asset sits first and the
  factor is lower triangular, so its return depends on the first standard
  normal coordinate alone: that coordinate is drawn for every sample, and the
  other n - 1 only for the samples the band keeps.  Kept for diagnostics
  since it carries discretization bias.

Randomness comes from a counter-based Philox generator, so results are
bit-reproducible from the seed alone and independent of chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, DomainError, TooFewBandSamples
from .linalg import cholesky_spd
from .model import ValidatedModel, _as_weights
from .reduction import ReducedModel
from .riskmeasures import _raw_rows

BOOTSTRAP_REPS = 256
MIN_BAND_KEPT = 100
_BAND_CHUNK = 1 << 18


@dataclass(frozen=True)
class McConfig:
    """samples >= 10**4 so quantiles are estimable; band_epsilon defaults to
    0.05 sigma_Y, balancing band bias against retention."""

    samples: int = 1_000_000
    seed: int = 0
    band_epsilon: float | None = None
    rng: str = "philox"

    def __post_init__(self):
        if self.samples < 10_000:
            raise DomainError(f"need at least 1e4 samples, got {self.samples}")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        if self.band_epsilon is not None and not self.band_epsilon > 0.0:
            raise DomainError("band_epsilon must be positive")
        if self.rng != "philox":
            raise DomainError(f"unknown rng identifier {self.rng!r}")


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    band_estimate: float | None
    band_kept: int


def _quantile_rank(level: float, n: int) -> int:
    """Order-statistic rank (1-based) of the lower empirical level-quantile."""
    return max(1, min(n, int(math.ceil(level * n))))


def _bootstrap_se(sorted_sample: np.ndarray, rank: int, rng) -> float:
    """Bootstrap standard error of the rank-th order statistic.

    The bootstrap beta-quantile of an iid resample equals the value at index
    ceil(N*U) - 1 of the sorted original sample, where U ~ Beta(rank, N-rank+1)
    (the regularized-incomplete-beta identity for binomial tails), so the full
    bootstrap distribution can be sampled with one Beta draw per replicate.
    """
    n = sorted_sample.shape[0]
    u = rng.beta(rank, n - rank + 1, size=BOOTSTRAP_REPS)
    idx = np.clip(np.ceil(n * u).astype(np.int64) - 1, 0, n - 1)
    return float(np.std(sorted_sample[idx], ddof=1))


def _band_returns(m: ValidatedModel, xi: np.ndarray, mu_x: float, y_star: float,
                  eps: float, base: np.random.Philox, n_samp: int) -> np.ndarray:
    """Portfolio returns of the draws whose conditioning-asset return lies
    within ``eps`` of ``y_star``, in draw order.

    With ``L`` the lower-triangular factor of sigma, returns are
    ``mu + L z`` and the conditioning asset's is ``mu_Y + L00 z0``.  Each
    chunk draws ``z0`` for all its samples, masks the band on it, and then
    draws the other n - 1 coordinates for the kept rows only; the portfolio
    return of a row is ``mu_x + z'(L'x)`` with ``mu_x = mu'x``.
    """
    low = cholesky_spd(m.sigma)
    load = low.T @ xi
    kept = []
    # Chunk i reads its own jumped counter stream, z0 first and then the kept
    # rows' other coordinates, so it is a fixed function of (seed, i): the work
    # could be fanned out across the chunks without changing a single draw.
    for chunk, start in enumerate(range(0, n_samp, _BAND_CHUNK)):
        chunk_rng = np.random.Generator(base.jumped(chunk + 1))
        z0 = chunk_rng.standard_normal(min(_BAND_CHUNK, n_samp - start))
        z0 = z0[np.abs(m.mu[0] + low[0, 0] * z0 - y_star) < eps]
        rest = chunk_rng.standard_normal((z0.shape[0], m.n - 1))
        kept.append(mu_x + z0 * load[0] + rest @ load[1:])
    return np.concatenate(kept)


def mc_covar(m: ValidatedModel, x, cfg: McConfig) -> McEstimate:
    """Monte-Carlo estimate of the conditional value-at-risk of portfolio x.

    Returns the exact-conditional estimate with its bootstrap standard error,
    plus the band estimate for diagnostics.  Raises TooFewBandSamples when
    fewer than MIN_BAND_KEPT of the draws lie at or below the beta-quantile,
    or when the band retains fewer than MIN_BAND_KEPT draws.
    """
    w = _as_weights(m, x)
    xi = m.to_internal(w)
    a, b = m.risk.a, m.risk.b
    beta_level = m.risk.beta_level
    tail_draws = math.ceil(beta_level * cfg.samples)
    if tail_draws < MIN_BAND_KEPT:
        raise TooFewBandSamples(
            f"beta = {beta_level:.3e} leaves {tail_draws} of {cfg.samples} draws at or "
            f"below the quantile (< {MIN_BAND_KEPT}); use more samples or a smaller b")

    mu_x = float(xi @ m.mu)
    sigma_x = math.sqrt(max(0.0, float(xi @ m.sigma @ xi)))
    mu_y = m.mu1
    sigma_y = m.sigma1
    cov_xy = float(xi @ m.sigma[:, 0])
    rho = min(1.0, max(-1.0, cov_xy / (sigma_x * sigma_y)))

    y_star = mu_y - a * sigma_y
    cond_mean = mu_x + rho * sigma_x / sigma_y * (y_star - mu_y)
    cond_var = max(0.0, sigma_x * sigma_x * (1.0 - rho * rho))

    base = np.random.Philox(cfg.seed)
    rng = np.random.Generator(base)
    n_samp = cfg.samples
    rank = _quantile_rank(beta_level, n_samp)

    if cond_var <= 1e-24 * max(1.0, sigma_x * sigma_x):
        estimate = -cond_mean
        std_error = 0.0
    else:
        draws = cond_mean + math.sqrt(cond_var) * rng.standard_normal(n_samp)
        draws.sort()
        estimate = -float(draws[rank - 1])
        std_error = _bootstrap_se(draws, rank, rng)

    eps = cfg.band_epsilon if cfg.band_epsilon is not None else 0.05 * sigma_y
    kept = _band_returns(m, xi, mu_x, y_star, eps, base, n_samp)
    if kept.shape[0] < MIN_BAND_KEPT:
        raise TooFewBandSamples(
            f"band of half-width {eps!r} retained {kept.shape[0]} draws (< {MIN_BAND_KEPT})")
    kept.sort()
    band_rank = _quantile_rank(beta_level, kept.shape[0])
    band_estimate = -float(kept[band_rank - 1])
    return McEstimate(estimate=estimate, std_error=std_error,
                      band_estimate=band_estimate, band_kept=int(kept.shape[0]))


@dataclass(frozen=True)
class Hyperplane:
    """Budget hyperplane with the trailing coordinates boxed in [-bound, bound]
    (short selling allowed)."""

    bound: float = 2.0


@dataclass(frozen=True)
class HyperplaneSlice:
    """Budget-and-return affine set, nullspace parameters boxed in
    [-bound, bound]."""

    E: float
    bound: float = 2.0


def _axis(resolution: float, lo: float, hi: float) -> np.ndarray:
    steps = max(1, int(round((hi - lo) / resolution)))
    return np.linspace(lo, hi, steps + 1)


def _batched_argmin(make_points, values_fn):
    best_val = math.inf
    best_x = None
    for pts in make_points:
        vals = values_fn(pts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_x = pts[i]
    return best_x, best_val


def grid_minimize(m: ValidatedModel, r: ReducedModel, feasible, resolution: float):
    """Deterministic brute-force minimum over a uniform grid of the feasible set.

    Accepts the constrained-module descriptors (Simplex, SimplexSlice) and the
    short-selling boxes above.  Guarded to n <= 4; grids include the exact
    boundary points of the parametrization.  Returns (weights, value) in the
    caller's asset order.
    """
    from .constrained import Simplex, SimplexSlice

    if m.n > 4:
        raise DimensionTooLarge(f"grid oracle restricted to n <= 4, got {m.n}")
    if not resolution > 0.0:
        raise DomainError("resolution must be positive")
    n = m.n

    def chunks_from(points):
        for start in range(0, points.shape[0], 1_000_000):
            yield points[start:start + 1_000_000]

    if isinstance(feasible, Simplex):
        axes = [_axis(resolution, 0.0, 1.0)] * (n - 1)
        mesh = np.meshgrid(*axes, indexing="ij")
        tail = np.stack([g.ravel() for g in mesh], axis=1)
        lead = 1.0 - tail.sum(axis=1)
        keep = lead >= -1e-12
        points = np.column_stack([lead[keep], tail[keep]])
    elif isinstance(feasible, SimplexSlice):
        points = _slice_grid(m, float(feasible.E), resolution, nonneg=True)
    elif isinstance(feasible, Hyperplane):
        axes = [_axis(resolution, -feasible.bound, feasible.bound)] * (n - 1)
        mesh = np.meshgrid(*axes, indexing="ij")
        tail = np.stack([g.ravel() for g in mesh], axis=1)
        points = np.column_stack([1.0 - tail.sum(axis=1), tail])
    elif isinstance(feasible, HyperplaneSlice):
        points = _slice_grid(m, float(feasible.E), resolution, nonneg=False,
                             bound=feasible.bound)
    else:
        raise DomainError(f"unknown feasible set {feasible!r}")

    if points.shape[0] == 0:
        raise DomainError("feasible grid is empty")
    best_x, best_val = _batched_argmin(chunks_from(points),
                                       lambda pts: _raw_rows(m, r, pts)[0])
    return m.to_original(best_x), best_val


def _slice_grid(m: ValidatedModel, target: float, resolution: float,
                nonneg: bool, bound: float = 2.0) -> np.ndarray:
    """Uniform grid on {sum = 1, mu'x = E}, optionally cut to the orthant.

    Nullspace directions are scaled to unit max-abs component so the grid step
    bounds the per-coordinate step; parameter intervals include their exact
    endpoints, which is where slice minima often sit.
    """
    n = m.n
    rows = np.vstack([np.ones(n), m.mu])
    rhs = np.array([1.0, target])
    x0, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    _, svals, vt = np.linalg.svd(rows)
    rank = int(np.sum(svals > 1e-12 * svals.max()))
    null = vt[rank:]
    if null.shape[0] == 0:
        return x0[None, :]
    dirs = [d / np.abs(d).max() for d in null]

    if nonneg and len(dirs) == 1:
        d = dirs[0]
        lo, hi = -math.inf, math.inf
        for i in range(n):
            if d[i] > 1e-14:
                lo = max(lo, -x0[i] / d[i])
            elif d[i] < -1e-14:
                hi = min(hi, -x0[i] / d[i])
        if not lo <= hi:
            return np.empty((0, n))
        ts = _axis(resolution, lo, hi)
        return x0[None, :] + ts[:, None] * d[None, :]

    span = math.sqrt(n) + 1.0 if nonneg else bound
    axes = [_axis(resolution, -span, span)] * len(dirs)
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=1)
    points = x0[None, :] + coords @ np.stack(dirs)
    if nonneg:
        points = points[(points >= -1e-12).all(axis=1)]
    return points
