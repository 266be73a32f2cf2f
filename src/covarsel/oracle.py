"""Independent verification: Monte-Carlo estimation and brute-force grids.

The Monte-Carlo estimator never touches the analytic risk formulas beyond the
definition itself: it simulates returns, conditions on the stress level of the
conditioning asset and reads off an empirical quantile.  Two estimators are
produced per call:

* exact-conditional: draw from the portfolio return's law given the stress
  event, a probability-zero event conditioned on analytically by the risk
  check's ``_stress_law``, and negate the empirical beta-quantile.
  The draws are ``cond_mean + scale * z``, monotone in the standard normal z,
  so the order statistics of the draws are the mapped order statistics of z.
  The normals are streamed in fixed blocks: the pass counts the draws below a
  window around the quantile and keeps the few inside it, and the estimate
  and its bootstrap standard error are read from the sorted window;
* band: draw the conditioning asset's and the portfolio's returns jointly
  from the covariance Cholesky factor, retain draws with the conditioning
  asset inside a band around the stress level, and take the same empirical
  quantile.  A draw takes one normal, two if kept, whatever n (see
  ``_band_returns``).  Kept for diagnostics since it carries discretization
  bias.

Memory does not grow with the sample count beyond the window (at most
``_WINDOW_SDS * sqrt(samples)`` normals) and the band's kept returns (one
double per kept draw): every other buffer is a fixed block.

Randomness comes from a counter-based Philox generator, so results are
bit-reproducible from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, DomainError, TooFewBandSamples
from .model import ValidatedModel, normal_quantile, standard_normal_cdf
from .reduction import ReducedModel
from .riskmeasures import _budget_weights, _raw_rows, _stress_law

BOOTSTRAP_REPS = 256
MIN_BAND_KEPT = 100
# Most draws of one estimate.  Memory grows with it only through the window
# and the band's kept returns (see the module docstring), so the cap bounds
# run time: a 10**8-sample estimate took 3.3 s at n = 3 and at n = 50 on a
# 2-CPU machine (numpy 2.4.6, one BLAS thread).
_MAX_SAMPLES = 10 ** 8
# Normals drawn per numpy call, 256 KB: the size of every streamed buffer.
# A block's draws take about 0.5 ms, against a few microseconds of per-call
# overhead for the handful of numpy calls made on it.
_DRAW_BLOCK = 1 << 15
# Half-width of the order-statistic window, in binomial standard deviations
# sd = sqrt(N p (1 - p)).  The ranks read are the quantile's and the
# BOOTSTRAP_REPS bootstrap ranks ceil(N u), u ~ Beta(rank, N - rank + 1), whose
# spread about the quantile rank is sd; the count of draws below a window
# edge placed W sd from that rank is Binomial with spread at most sd.  A rank
# escapes only if the two independent deviations add up to W sd, about
# Phi(-W / sqrt 2) per rank and edge: at most 514 Phi(-7.07) < 4e-10 per
# estimate for W = 10.  A miss costs one more pass, never a wrong result.  The
# same W sizes the band's kept-return buffer above its Binomial mean.
_WINDOW_SDS = 10.0


@dataclass(frozen=True)
class McConfig:
    """samples >= 10**4 so quantiles are estimable, and <= 10**8 to bound the
    time one estimate takes; band_epsilon defaults to 0.05 sigma_Y,
    balancing band bias against retention."""

    samples: int = 1_000_000
    seed: int = 0
    band_epsilon: float | None = None

    def __post_init__(self):
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.samples < 10_000:
            raise DomainError(f"need at least 1e4 samples, got {self.samples}")
        if self.samples > _MAX_SAMPLES:
            raise DomainError(f"need at most {_MAX_SAMPLES} samples, got {self.samples}")
        if self.seed < 0:
            raise DomainError(f"seed must be non-negative, got {self.seed}")
        eps = self.band_epsilon
        if eps is not None and not (isinstance(eps, (int, float)) and not isinstance(eps, bool)
                                    and math.isfinite(eps) and eps > 0.0):
            raise DomainError(f"band_epsilon must be positive and finite, got {eps!r}")


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    band_estimate: float | None
    band_kept: int


def _quantile_rank(level: float, n: int) -> int:
    """Order-statistic rank (1-based) of the lower empirical level-quantile."""
    return max(1, min(n, int(math.ceil(level * n))))


def _bootstrap_ranks(n: int, rank: int, rng) -> np.ndarray:
    """Sorted-sample indices of the bootstrap replicates of the rank-th order
    statistic.

    The bootstrap beta-quantile of an iid resample equals the value at index
    ceil(N*U) - 1 of the sorted original sample, where U ~ Beta(rank, N-rank+1)
    (the regularized-incomplete-beta identity for binomial tails), so the full
    bootstrap distribution can be sampled with one Beta draw per replicate.
    """
    u = rng.beta(rank, n - rank + 1, size=BOOTSTRAP_REPS)
    return np.clip(np.ceil(n * u).astype(np.int64) - 1, 0, n - 1)


def _normal_at_rank(rank: float, n: int) -> float:
    """The standard normal quantile at level rank / n, infinite off (0, 1)."""
    if rank <= 0.0:
        return -math.inf
    if rank >= n:
        return math.inf
    return normal_quantile(rank / n)


def _window_pass(rng, n: int, lo: float, hi: float) -> tuple[int, np.ndarray]:
    """Draw n standard normals from rng in blocks; return how many fall below
    lo and, in draw order, those in [lo, hi)."""
    z = np.empty(_DRAW_BLOCK)
    below_lo = np.empty(_DRAW_BLOCK, dtype=bool)
    inside = np.empty(_DRAW_BLOCK, dtype=bool)
    below = 0
    kept = []
    for start in range(0, n, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, n - start)
        zb, lo_b, in_b = z[:size], below_lo[:size], inside[:size]
        rng.standard_normal(out=zb)
        np.less(zb, lo, out=lo_b)
        np.less(zb, hi, out=in_b)
        below += int(np.count_nonzero(lo_b))
        in_b ^= lo_b
        kept.append(zb[in_b])
    return below, np.concatenate(kept)


def _normal_order_stats(base: np.random.Philox, n: int, rank: int,
                        level: float) -> tuple[float, np.ndarray]:
    """The rank-th smallest of n standard normals drawn from ``base``, and the
    order statistics at its BOOTSTRAP_REPS bootstrap ranks.

    Reads the same draws, and leaves ``base`` in the same state, as drawing
    all n normals at once, sorting them and then drawing the bootstrap Beta
    variates.  A rank outside the window restores the state from before the
    pass and repeats it with a wider window.
    """
    rng = np.random.Generator(base)
    start_state = base.state
    sd = math.sqrt(n * level * (1.0 - level))
    half = _WINDOW_SDS * sd
    while True:
        below, window = _window_pass(rng, n, _normal_at_rank(rank - half, n),
                                     _normal_at_rank(rank + half, n))
        pos = np.append(_bootstrap_ranks(n, rank, rng), rank - 1) - below
        if pos.min() >= 0 and pos.max() < window.shape[0]:
            window.sort()
            return window[pos[-1]], window[pos[:-1]]
        base.state = start_state
        half = 2.0 * half + sd


def _band_returns(m: ValidatedModel, xi: np.ndarray, mu_x: float, y_star: float,
                  eps: float, base: np.random.Philox, n_samp: int) -> np.ndarray:
    """Portfolio returns of the draws whose conditioning-asset return lies
    within ``eps`` of ``y_star``, in draw order.

    With ``L = m.chol`` the lower-triangular factor of sigma and ``l = L'x``,
    the conditioning asset's return is ``mu_Y + L00 z0`` and the portfolio's
    is ``mu_x + l0 z0 + l[1:]'z[1:]``, with ``mu_x = mu'x``.  The last term is
    exactly ``|l[1:]| z1`` in law for one standard normal z1, so the pair
    (Y, X) is drawn from two normals at any n.  One stream, ``base.jumped()``,
    is read in blocks: each block draws z0 for its samples and masks the band
    on it, then draws one z1 per kept draw, in draw order.
    """
    load = m.chol.T @ xi
    spread = math.sqrt(float(load[1:] @ load[1:]))
    p = max(0.0, standard_normal_cdf((y_star + eps - m.mu1) / m.sigma1)
            - standard_normal_cdf((y_star - eps - m.mu1) / m.sigma1))
    out = np.empty(min(n_samp, math.ceil(
        n_samp * p + _WINDOW_SDS * math.sqrt(n_samp * p * (1.0 - p)))))
    n_kept = 0
    rng = np.random.Generator(base.jumped())
    z0 = np.empty(_DRAW_BLOCK)
    dev = np.empty(_DRAW_BLOCK)
    inside = np.empty(_DRAW_BLOCK, dtype=bool)
    for start in range(0, n_samp, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, n_samp - start)
        zb, d, in_b = z0[:size], dev[:size], inside[:size]
        rng.standard_normal(out=zb)
        np.multiply(zb, m.chol[0, 0], out=d)
        np.add(d, m.mu[0], out=d)
        np.subtract(d, y_star, out=d)
        np.abs(d, out=d)
        np.less(d, eps, out=in_b)
        k = int(np.count_nonzero(in_b))
        if n_kept + k > out.shape[0]:
            grown = np.empty(max(n_kept + k, 2 * out.shape[0]))
            grown[:n_kept] = out[:n_kept]
            out = grown
        ret, z1 = out[n_kept:n_kept + k], dev[:k]
        np.compress(in_b, zb, out=ret)
        rng.standard_normal(out=z1)
        ret *= load[0]
        ret += mu_x
        z1 *= spread
        ret += z1
        n_kept += k
    return out[:n_kept]


def mc_covar(m: ValidatedModel, x, cfg: McConfig) -> McEstimate:
    """Monte-Carlo estimate of the conditional value-at-risk of portfolio x.

    Returns the exact-conditional estimate with its bootstrap standard error,
    plus the band estimate for diagnostics.  Raises DomainError when x does
    not sum to 1, as ``covar_portfolio`` does, and TooFewBandSamples when
    fewer than MIN_BAND_KEPT of the draws lie at or below the beta-quantile,
    or when the band retains fewer than MIN_BAND_KEPT draws.
    """
    xi = _budget_weights(m, x)
    beta_level = m.risk.beta_level
    tail_draws = math.ceil(beta_level * cfg.samples)
    if tail_draws < MIN_BAND_KEPT:
        raise TooFewBandSamples(
            f"beta = {beta_level:.3e} leaves {tail_draws} of {cfg.samples} draws at or "
            f"below the quantile (< {MIN_BAND_KEPT}); use more samples or a smaller b")

    mu_x, sigma_x, _, cond_mean, cond_var = (
        float(v[0]) for v in _stress_law(m, np.ones((1, 1)), xi[None, :]))
    y_star = m.mu1 - m.risk.a * m.sigma1

    base = np.random.Philox(cfg.seed)
    n_samp = cfg.samples
    rank = _quantile_rank(beta_level, n_samp)

    if cond_var <= 1e-24 * max(1.0, sigma_x * sigma_x):
        estimate = -cond_mean
        std_error = 0.0
    else:
        z_rank, z_boot = _normal_order_stats(base, n_samp, rank, beta_level)
        scale = math.sqrt(cond_var)
        estimate = -float(cond_mean + scale * z_rank)
        std_error = float(np.std(cond_mean + scale * z_boot, ddof=1))

    eps = cfg.band_epsilon if cfg.band_epsilon is not None else 0.05 * m.sigma1
    kept = _band_returns(m, xi, mu_x, y_star, eps, base, n_samp)
    if kept.shape[0] < MIN_BAND_KEPT:
        raise TooFewBandSamples(
            f"band of half-width {eps!r} retained {kept.shape[0]} draws (< {MIN_BAND_KEPT})")
    band_rank = _quantile_rank(beta_level, kept.shape[0])
    kept.partition(band_rank - 1)
    band_estimate = -float(kept[band_rank - 1])
    return McEstimate(estimate=estimate, std_error=std_error,
                      band_estimate=band_estimate, band_kept=int(kept.shape[0]))


def _axis(resolution: float, lo: float, hi: float) -> np.ndarray:
    steps = max(1, int(round((hi - lo) / resolution)))
    return np.linspace(lo, hi, steps + 1)


def _mesh(resolution: float, lo: float, hi: float, dims: int) -> np.ndarray:
    """Every point of the uniform grid on [lo, hi]^dims, one per row."""
    mesh = np.meshgrid(*[_axis(resolution, lo, hi)] * dims, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def grid_minimize(m: ValidatedModel, r: ReducedModel, resolution: float, *,
                  E: float | None = None, bound: float | None = None):
    """Deterministic brute-force minimum over a uniform grid of a feasible set.

    The set is the budget hyperplane or, given ``E``, its slice ``mu'x = E``,
    as for ``constrained.ConstrainedProblem``.  ``bound=None`` cuts it to the
    orthant; a number boxes the trailing coordinates (on a slice, the
    nullspace parameters) in [-bound, bound].  Guarded to n <= 4; grids
    include the exact boundary points of the parametrization.  Returns
    (weights, value) in the caller's asset order.
    """
    if m.n > 4:
        raise DimensionTooLarge(f"grid oracle restricted to n <= 4, got {m.n}")
    if not resolution > 0.0:
        raise DomainError("resolution must be positive")
    if E is not None:
        points = _slice_grid(m, float(E), resolution, bound)
    else:
        tail = _mesh(resolution, *((0.0, 1.0) if bound is None else (-bound, bound)), m.n - 1)
        points = np.column_stack([1.0 - tail.sum(axis=1), tail])
        if bound is None:
            points = points[points[:, 0] >= -1e-12]
    if points.shape[0] == 0:
        raise DomainError("feasible grid is empty")
    best_x, best_val = None, math.inf
    for start in range(0, points.shape[0], 1_000_000):
        pts = points[start:start + 1_000_000]
        vals = _raw_rows(m, r, pts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_x, best_val = pts[i], float(vals[i])
    return m.to_original(best_x), best_val


def _slice_grid(m: ValidatedModel, target: float, resolution: float,
                bound: float | None) -> np.ndarray:
    """Uniform grid on {sum = 1, mu'x = E}: cut to the orthant when ``bound``
    is None, else with its nullspace parameters in [-bound, bound].

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

    if bound is None and len(dirs) == 1:
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

    span = math.sqrt(n) + 1.0 if bound is None else bound
    points = x0[None, :] + _mesh(resolution, -span, span, len(dirs)) @ np.stack(dirs)
    if bound is None:
        points = points[(points >= -1e-12).all(axis=1)]
    return points
