"""Closed-form critical set, solvability diagnosis and efficiency classes.

For a target return E write ``E_hat = E - mu1``.  The equality-constrained
minimization of the conditional risk measure reduces to a one-dimensional
convex problem of the form ``F(t) = s t + sqrt((t - p)^2 + q)`` (see
``lemma_minimize``), and the sign of ``Delta = b^2 alpha_C - a^2 detG``
separates three regimes:

* ``Delta > 0``   unique minimizer per target return,
      x_hat(E_hat) = E_hat/alpha_C Qhat^-1 mu_hat
                   + |E_hat| a/(alpha_C sqrt(Delta)) Qhat^-1 (beta_C mu_hat - alpha_C q_hat)
  with optimal value
      -mu1 + a sigma1 + E_hat (a beta_C/alpha_C - 1) + |E_hat|/alpha_C sqrt(Delta);
* ``Delta = 0``   a finite infimum that is approached but never attained;
* ``Delta < 0``   the objective is unbounded below on the feasible affine set.

The minimizer is affine in (E_hat, |E_hat|) with two vectors fixed per model,
and ``reduce_model`` keeps the two solves behind them, so a solve costs no
factorization: ``frontier`` evaluates its whole grid as one rank-2 product
and rechecks every row in one batched call, and ``solve_critical`` is the
one-row case of the same kernel.

In the degenerate regimes the solver returns an explicit feasible ray along
which the objective decreases (to the infimum, or without bound), so the
diagnosis can be verified by direct evaluation.

When the ones vector, mu and q are linearly dependent, ``q_hat`` is parallel
to ``mu_hat`` in the ``Qhat^-1`` inner product, so ``beta_C mu_hat - alpha_C
q_hat = 0`` and ``Delta = b^2 alpha_C > 0``.  The same formula then gives the
classical minimum-variance portfolio, and the solve only changes its status
label to ``MarkowitzFallback``.  ``markowitz_frontier`` (Merton's formula)
remains for the volatility and value-at-risk frontiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, NumericalBreakdown, PreconditionViolated
from .linalg import cholesky_spd, solve_cholesky
from .model import ValidatedModel
from .reduction import ReducedModel
from .riskmeasures import _covar_rows, _first

DELTA_RTOL = 1e-12
CHECK_RTOL = 1e-9
CONSTRAINT_TOL = 1e-10


class SolveStatus(str, Enum):
    UNIQUE = "Unique"
    UNBOUNDED_BELOW = "UnboundedBelow"
    INFIMUM_NOT_ATTAINED = "InfimumNotAttained"
    MARKOWITZ_FALLBACK = "MarkowitzFallback"


class EfficiencyClass(str, Enum):
    NONE_EFFICIENT = "NoneEfficient"
    NON_NEGATIVE_E_HAT = "NonNegativeEHalf"
    ALL_EFFICIENT = "AllEfficient"


@dataclass(frozen=True)
class LemmaParams:
    """Parameters of ``F(t) = s*t + sqrt((t - p)^2 + q_lem)``, q_lem > 0."""

    s: float
    p: float
    q_lem: float

    def __post_init__(self):
        if self.s < 0.0:
            raise DomainError(f"slope s must be non-negative, got {self.s!r}")
        if not self.q_lem > 0.0:
            raise DomainError(f"q_lem must be positive, got {self.q_lem!r}")


@dataclass(frozen=True)
class LemmaOutcome:
    """kind is 'min' (value attained at argmin), 'infimum' (limit value, never
    attained) or 'unbounded' (value is -inf)."""

    kind: str
    value: float
    argmin: float | None = None


def lemma_minimize(params: LemmaParams) -> LemmaOutcome:
    """Global minimization of the convex scalar function F.

    s < 1: minimum ``p s + sqrt(q (1 - s^2))`` at ``t = p - s sqrt(q/(1-s^2))``.
    s = 1: no minimum, F decreases to the limit p as t -> -inf.
    s > 1: unbounded below.
    """
    s, p, q = params.s, params.p, params.q_lem
    if s < 1.0:
        one_ms2 = 1.0 - s * s
        return LemmaOutcome(kind="min",
                            value=p * s + math.sqrt(q * one_ms2),
                            argmin=p - s * math.sqrt(q / one_ms2))
    if s == 1.0:
        return LemmaOutcome(kind="infimum", value=p)
    return LemmaOutcome(kind="unbounded", value=-math.inf)


@dataclass(frozen=True)
class CriticalSolution:
    """Outcome of one equality-constrained solve at target return E.

    ``x`` is in the caller's asset order and present only when a minimizer
    exists.  In the degenerate regimes ``ray_base + tau * ray_direction`` is
    feasible for every tau >= 0 and the objective decreases along it; the pair
    is also populated for the infimum regime as a witness sequence.
    ``t_hat, lambda1, lambda2`` are solver internals kept for diagnostics.
    """

    E_hat: float
    x: np.ndarray | None
    value: float
    status: SolveStatus
    efficiency_class: EfficiencyClass | None
    ray_base: np.ndarray | None = None
    ray_direction: np.ndarray | None = None
    t_hat: float | None = field(default=None, repr=False)
    lambda1: float | None = field(default=None, repr=False)
    lambda2: float | None = field(default=None, repr=False)


def _delta_regime(r: ReducedModel) -> int:
    """+1 unique, 0 infimum, -1 unbounded, judged at relative tolerance."""
    scale = max(r.b * r.b * r.alpha_C, r.a * r.a * abs(r.detG), 1e-300)
    if r.Delta > DELTA_RTOL * scale:
        return 1
    if r.Delta < -DELTA_RTOL * scale:
        return -1
    return 0


def solvability_status(r: ReducedModel) -> SolveStatus:
    """Regime a per-target solve of this model will report.  A Delta > 0
    model with dependent (1, mu, q) is labelled MarkowitzFallback."""
    regime = _delta_regime(r)
    if regime == 1:
        return SolveStatus.UNIQUE if r.independent else SolveStatus.MARKOWITZ_FALLBACK
    if regime == 0:
        return SolveStatus.INFIMUM_NOT_ATTAINED
    return SolveStatus.UNBOUNDED_BELOW


def classify_efficiency(r: ReducedModel) -> EfficiencyClass:
    """Efficiency regime for Delta > 0, decided by a*beta_C - alpha_C vs ±sqrt(Delta).

    Boundary ties resolve exactly as stated: the lower boundary belongs to the
    no-efficient-portfolio class, the upper one to the E_hat >= 0 class.
    """
    if _delta_regime(r) != 1:
        raise PreconditionViolated(
            f"efficiency classes are defined only for Delta > 0, got {r.Delta!r}")
    t = r.a * r.beta_C - r.alpha_C
    root = math.sqrt(r.Delta)
    if t <= -root:
        return EfficiencyClass.NONE_EFFICIENT
    if t <= root:
        return EfficiencyClass.NON_NEGATIVE_E_HAT
    return EfficiencyClass.ALL_EFFICIENT


def minimum_variance_efficient(E, gmv: float):
    """Classical efficiency rule: a minimum-variance portfolio is efficient at
    or above the global minimum-variance return ``gmv = beta_m / gamma_m``.
    Elementwise over an array of returns E."""
    return np.asarray(E) >= gmv - 1e-12


def markowitz_frontier(m: ValidatedModel, targets) -> tuple[np.ndarray, float]:
    """Minimum-variance portfolios at every target return (Merton's closed form).

    Returns one row of weights per target, in the caller's asset order, and
    the global minimum-variance return.  Sigma is factored once for all rows.
    The stationarity condition puts ``sigma @ x`` in span{mu, ones}; both
    equality constraints are verified row by row to CONSTRAINT_TOL.
    """
    targets = np.asarray(targets, dtype=float)
    low = cholesky_spd(m.sigma)
    ones = np.ones(m.n)
    si_mu = solve_cholesky(low, m.mu)
    si_one = solve_cholesky(low, ones)
    alpha_m, beta_m, gamma_m = float(m.mu @ si_mu), float(m.mu @ si_one), float(ones @ si_one)
    denom = alpha_m * gamma_m - beta_m * beta_m
    if denom <= 0.0:
        raise NumericalBreakdown("minimum-variance scalars lost strict positivity")
    x = (np.outer(targets * gamma_m - beta_m, si_mu)
         + np.outer(alpha_m - targets * beta_m, si_one)) / denom
    scale = np.maximum(1.0, np.abs(targets))
    if not (np.all(np.abs(x @ m.mu - targets) <= CONSTRAINT_TOL * scale)
            and np.all(np.abs(x.sum(axis=1) - 1.0) <= CONSTRAINT_TOL)):
        raise NumericalBreakdown("minimum-variance solve violated its constraints")
    return m.to_original(x), beta_m / gamma_m


def markowitz_critical(m: ValidatedModel, E: float) -> np.ndarray:
    """Minimum-variance portfolio at target return E, in the caller's asset
    order; the one-target case of ``markowitz_frontier``."""
    return markowitz_frontier(m, [E])[0][0]


def _embed(x_hat: np.ndarray) -> np.ndarray:
    """Lift rows of reduced coordinates to full internal weight vectors."""
    return np.column_stack((1.0 - x_hat.sum(axis=1), x_hat))


def _unique_critical(m: ValidatedModel, r: ReducedModel, e_hat: np.ndarray):
    """Minimizers and optimal values at every excess return in ``e_hat``
    (Delta > 0), checked by ``_recheck``.

    Each minimizer is ``E_hat u + |E_hat| w`` with ``u = Qhat^-1 mu_hat / alpha_C``
    and ``w`` fixed per model, so the rows are one rank-2 product.  Returns
    internal weights (one row per target) and the values.
    """
    a = m.risk.a
    root = math.sqrt(r.Delta)
    coef = np.abs(e_hat) * a / (r.alpha_C * root)
    x_hat = np.outer(e_hat / r.alpha_C, r.qinv_mu) \
        + np.outer(coef, r.beta_C * r.qinv_mu - r.alpha_C * r.qinv_qh)
    x_hat[e_hat == 0.0] = 0.0
    values = -m.mu1 + a * m.sigma1 \
        + e_hat * (a * r.beta_C / r.alpha_C - 1.0) + np.abs(e_hat) / r.alpha_C * root
    return _recheck(m, r, e_hat, x_hat, values), values


def _recheck(m: ValidatedModel, r: ReducedModel, e_hat: np.ndarray,
             x_hat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Check closed-form rows and return them as internal weights.

    Every row of reduced weights must meet its return constraint to
    CONSTRAINT_TOL, and its closed-form value must match re-evaluation
    through both risk routes to CHECK_RTOL; each test fails on NaN.  Raises
    NumericalBreakdown otherwise.
    """
    if not np.all(np.abs(x_hat @ r.mu_hat - e_hat)
                  <= CONSTRAINT_TOL * np.maximum(1.0, np.abs(e_hat))):
        raise NumericalBreakdown("critical solve violated the return constraint")
    x_int = _embed(x_hat)
    recheck = _covar_rows(m, r, x_int)[3]
    i = _first(~(np.abs(recheck - values) <= CHECK_RTOL * np.maximum(1.0, np.abs(values))))
    if i is not None:
        raise NumericalBreakdown(
            f"closed-form value {float(values[i])!r} disagrees with "
            f"re-evaluation {float(recheck[i])!r}")
    return x_int


def _ray(m: ValidatedModel, r: ReducedModel, e_hat: float):
    """Feasible ray along which the objective decreases in degenerate regimes.

    Base point: the constrained minimizer of the quadratic part alone.  The
    direction keeps both constraints invariant and drives the auxiliary
    parameter of the scalar reduction to -inf at unit rate.
    """
    base_hat = (e_hat / r.alpha_C) * r.qinv_mu
    dir_hat = (r.beta_C * r.qinv_mu - r.alpha_C * r.qinv_qh) / r.detG
    base = _embed(base_hat[None, :])[0]
    direction = np.concatenate(([-float(dir_hat.sum())], dir_hat))
    return m.to_original(base), m.to_original(direction)


def solve_critical(m: ValidatedModel, r: ReducedModel, E: float) -> CriticalSolution:
    """Solve the equality-constrained problem at target return E.

    Dispatches on the sign of Delta; a Delta <= 0 outcome is a reported
    regime, not an error.  Every Delta > 0 model, dependent or not, takes the
    closed form, cross-checked by re-evaluating the risk measure at the
    returned weights; the status is ``solvability_status``.
    """
    e_hat = float(E) - m.mu1
    a = m.risk.a

    regime = _delta_regime(r)
    if regime == 1:
        x_int, values = _unique_critical(m, r, np.array([e_hat]))
        if e_hat == 0.0:
            t_hat = lam1 = lam2 = 0.0
        else:
            root = math.sqrt(r.Delta)
            t_hat = r.beta_C / r.alpha_C * e_hat - abs(e_hat) * a * r.detG / (r.alpha_C * root)
            lam1 = e_hat / r.alpha_C + abs(e_hat) * a * r.beta_C / (r.alpha_C * root)
            lam2 = -abs(e_hat) * a / root
        return CriticalSolution(E_hat=e_hat, x=m.to_original(x_int[0]),
                                value=float(values[0]), status=solvability_status(r),
                                efficiency_class=classify_efficiency(r),
                                t_hat=t_hat, lambda1=lam1, lambda2=lam2)

    base, direction = _ray(m, r, e_hat)
    if regime == 0:
        infimum = -m.mu1 + a * m.sigma1 + e_hat * (a * r.beta_C / r.alpha_C - 1.0)
        return CriticalSolution(E_hat=e_hat, x=None, value=infimum,
                                status=SolveStatus.INFIMUM_NOT_ATTAINED,
                                efficiency_class=None,
                                ray_base=base, ray_direction=direction)
    return CriticalSolution(E_hat=e_hat, x=None, value=-math.inf,
                            status=SolveStatus.UNBOUNDED_BELOW,
                            efficiency_class=None,
                            ray_base=base, ray_direction=direction)


@dataclass(frozen=True)
class FrontierPoint:
    """One sampled point of a frontier, ready for plotting or CSV emission."""

    E: float
    value: float
    weights: np.ndarray
    efficient: bool
    status: str


def point_is_efficient(eff: EfficiencyClass, e_hat):
    """Whether the critical portfolio at excess return e_hat is efficient.

    Given an array, the E_hat >= 0 class answers elementwise; the other two
    classes answer with one bool for every point."""
    if eff is EfficiencyClass.NONE_EFFICIENT:
        return False
    if eff is EfficiencyClass.ALL_EFFICIENT:
        return True
    return e_hat >= -1e-12


def target_grid(e_min: float, e_max: float, steps: int) -> np.ndarray:
    """Uniform return grid from e_min up to e_max, in return order."""
    if not e_min <= e_max:
        raise DomainError(f"frontier needs E_min <= E_max, got {e_min!r} and {e_max!r}")
    if steps < 1 or (steps == 1 and e_min != e_max):
        raise DomainError("frontier needs steps >= 2, or steps == 1 with E_min == E_max")
    return np.linspace(e_min, e_max, steps)


def frontier(m: ValidatedModel, r: ReducedModel, e_min: float, e_max: float,
             steps: int) -> list[FrontierPoint]:
    """Sample the optimal value across a uniform target-return grid.

    Requires Delta > 0, dependent (1, mu, q) included; points are flagged
    efficient by ``classify_efficiency`` and labelled by
    ``solvability_status``.  The whole grid is solved as one batch and
    rechecked in one call, with the same per-point checks as
    ``solve_critical``; each point equals ``solve_critical`` at its target.
    Output is ordered by E.
    """
    grid = target_grid(e_min, e_max, steps)
    if _delta_regime(r) != 1:
        raise PreconditionViolated(
            f"frontier is defined only for Delta > 0, got Delta={r.Delta!r}")
    e_hat = grid - m.mu1
    x_int, values = _unique_critical(m, r, e_hat)
    weights = m.to_original(x_int)
    flags = np.broadcast_to(point_is_efficient(classify_efficiency(r), e_hat), grid.shape)
    label = solvability_status(r).value
    return [FrontierPoint(E=e, value=v, weights=w, efficient=f, status=label)
            for e, v, w, f in zip(grid.tolist(), values.tolist(), weights, flags.tolist())]
