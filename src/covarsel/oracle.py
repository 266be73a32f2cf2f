"""Independent verification: Monte-Carlo estimation and brute-force grids.

The Monte-Carlo estimator never touches the analytic risk formulas beyond the
definition itself: it samples the portfolio return given the stress level of
the conditioning asset and reads off an empirical quantile.  With ``L`` the
lower Cholesky factor of sigma and ``l = L'x``, the pair (Y, X) is
``(mu_Y + L00 z0, mu'x + l0 z0 + |l[1:]| z1)`` in law for two independent
standard normals, and the stress event Y = y* is exactly z0 = -a.  So the
draws are ``cond_mean + scale * z1`` with ``cond_mean = mu'x - a l0`` and
``scale = |l[1:]|`` (``_pair_law``), monotone in z1, and the order
statistics of the draws are the mapped order statistics of z1.  The normals
are streamed in fixed blocks: the pass counts the draws below a window
around the quantile and keeps the few inside it, and the estimate and its
bootstrap standard error are read from the sorted window.

Memory does not grow with the sample count beyond the window (at most
``_WINDOW_SDS * sqrt(samples)`` normals): every other buffer is a fixed block.

Randomness comes from a counter-based Philox generator, so results are
bit-reproducible from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, DomainError, TooFewBandSamples
from .model import ValidatedModel, normal_quantile
from .reduction import ReducedModel
from .riskmeasures import _budget_weights, _raw_rows

BOOTSTRAP_REPS = 256
MIN_TAIL_DRAWS = 100
# Most draws of one estimate.  Memory grows with it only through the window
# (see the module docstring), so the cap bounds run time: a 10**8-sample
# estimate took 2.0 s at n = 3 and at n = 50 on a 2-CPU machine (numpy 2.4.6,
# one BLAS thread).
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
# estimate for W = 10.  A miss costs one more pass, never a wrong result.
_WINDOW_SDS = 10.0


@dataclass(frozen=True)
class McConfig:
    """samples >= 10**4 so quantiles are estimable, and <= 10**8 to bound the
    time one estimate takes."""

    samples: int = 1_000_000
    seed: int = 0

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


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float


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


def _pair_law(m: ValidatedModel, xi: np.ndarray) -> tuple[float, float]:
    """``(cond_mean, scale)`` of X = x'R given Y = y*, read off the Cholesky
    pair: with ``l = L'x``, X given z0 = -a is ``mu'x - a l0 + |l[1:]| z1``."""
    load = m.chol.T @ xi
    return (float(xi @ m.mu) - m.risk.a * float(load[0]),
            math.sqrt(float(load[1:] @ load[1:])))


def mc_covar(m: ValidatedModel, x, cfg: McConfig) -> McEstimate:
    """Monte-Carlo estimate of the conditional value-at-risk of portfolio x.

    Returns the negated empirical beta-quantile of ``cfg.samples`` draws from
    the pair law with its bootstrap standard error.  Raises DomainError when
    x does not sum to 1, as ``covar_portfolio`` does, and TooFewBandSamples
    when fewer than MIN_TAIL_DRAWS of the draws lie at or below the
    beta-quantile.
    """
    xi = _budget_weights(m, x)
    beta_level = m.risk.beta_level
    tail_draws = math.ceil(beta_level * cfg.samples)
    if tail_draws < MIN_TAIL_DRAWS:
        raise TooFewBandSamples(
            f"beta = {beta_level:.3e} leaves {tail_draws} of {cfg.samples} draws at or "
            f"below the quantile (< {MIN_TAIL_DRAWS}); use more samples or a smaller b")

    cond_mean, scale = _pair_law(m, xi)
    if scale * scale <= 1e-24 * max(1.0, float(xi @ m.sigma @ xi)):
        return McEstimate(estimate=-cond_mean, std_error=0.0)
    rank = _quantile_rank(beta_level, cfg.samples)
    z_rank, z_boot = _normal_order_stats(np.random.Philox(cfg.seed), cfg.samples, rank,
                                         beta_level)
    return McEstimate(estimate=-float(cond_mean + scale * z_rank),
                      std_error=float(np.std(cond_mean + scale * z_boot, ddof=1)))


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
