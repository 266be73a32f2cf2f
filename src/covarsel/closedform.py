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

``reduce_model`` keeps the two solves behind the minimizer, so a solve costs
no factorization.  Every closed-form portfolio and ray is a combination of one
basis of three internal vectors, ``e_Y`` and the two directions lifted to sum
to zero (``_basis``): ``frontier`` forms its grid from it, ``solve_critical``
is its one-row case, and the recheck reads all rows off the basis' 3 x 3 Gram
matrices in O(n^2).

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
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericalBreakdown, PreconditionViolated
from .linalg import solve_cholesky
from .model import ValidatedModel
from .reduction import ReducedModel
from .riskmeasures import _covar_rows, _first

DELTA_RTOL = 1e-12
CHECK_RTOL = 1e-9
CONSTRAINT_TOL = 1e-10
TARGET_SLACK = 1e-12  # a return this far below a threshold still meets it
# Least tolerance scale for Delta; it acts only when b^2 alpha_C and
# a^2 |detG| both fall below it.
DELTA_SCALE_FLOOR = 1e-300


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
    """

    E_hat: float
    x: np.ndarray | None
    value: float
    status: SolveStatus
    efficiency_class: EfficiencyClass | None
    ray_base: np.ndarray | None = None
    ray_direction: np.ndarray | None = None


def _delta_regime(r: ReducedModel) -> int:
    """+1 unique, 0 infimum, -1 unbounded, judged at relative tolerance."""
    scale = max(r.b * r.b * r.alpha_C, r.a * r.a * abs(r.detG), DELTA_SCALE_FLOOR)
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
    return np.asarray(E) >= gmv - TARGET_SLACK


def markowitz_frontier(m: ValidatedModel, targets) -> tuple[np.ndarray, float]:
    """Minimum-variance portfolios at every target return (Merton's closed form).

    Returns one row of weights per target, in the caller's asset order, and
    the global minimum-variance return.  ``sigma^-1 [mu, 1]`` is one
    substitution on the validated factor ``m.chol`` for all rows.
    The stationarity condition puts ``sigma @ x`` in span{mu, ones}; both
    equality constraints are verified row by row to CONSTRAINT_TOL.
    """
    targets = np.asarray(targets, dtype=float)
    ones = np.ones(m.n)
    si_mu, si_one = solve_cholesky(m.chol, np.column_stack((m.mu, ones))).T
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


def _basis(m: ValidatedModel, r: ReducedModel) -> np.ndarray:
    """Internal rows ``e_Y``, ``ubar = (-1'u, u)``, ``wbar = (-1'w, w)``, with
    ``u = Qhat^-1 mu_hat`` and ``w = beta_C u - alpha_C Qhat^-1 q_hat``."""
    basis = np.zeros((3, m.n))
    basis[0, 0] = 1.0
    basis[1:, 1:] = (r.qinv_mu, r.beta_C * r.qinv_mu - r.alpha_C * r.qinv_qh)
    basis[1:, 0] = -basis[1:, 1:].sum(axis=1)
    return basis


def _rows(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``coeffs @ basis`` term by term from ``e_Y``: no row's bits depend on the
    other rows, and a row with zero direction coefficients is exactly ``e_Y``."""
    x = basis[0] * coeffs[:, :1]
    term = np.multiply(basis[1], coeffs[:, 1:2])
    x += term
    x += np.multiply(basis[2], coeffs[:, 2:], out=term)
    return x


def _closed_form(m: ValidatedModel, r: ReducedModel, e_hat: np.ndarray):
    """Unchecked minimizers and optimal values at every excess return in
    ``e_hat`` (Delta > 0): each minimizer is ``e_Y + E_hat/alpha_C ubar +
    c(E_hat) wbar`` with ``c = |E_hat| a / (alpha_C sqrt(Delta))``.  Returns
    the coefficients (one row per target), ``_basis`` and the values."""
    a = m.risk.a
    root = math.sqrt(r.Delta)
    slope = e_hat / r.alpha_C
    coef = np.abs(e_hat) * a / (r.alpha_C * root)
    coeffs = np.array((np.ones_like(slope), slope, coef)).T
    values = -m.mu1 + a * m.sigma1 \
        + e_hat * (a * r.beta_C / r.alpha_C - 1.0) + np.abs(e_hat) / r.alpha_C * root
    return coeffs, _basis(m, r), values


def _unique_critical(m: ValidatedModel, r: ReducedModel, e_hat: np.ndarray):
    """``_closed_form`` checked by ``_recheck``: internal weights and values."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
        coeffs, basis, values = _closed_form(m, r, e_hat)
        return _recheck(m, r, e_hat, coeffs, basis, values), values


def _recheck(m: ValidatedModel, r: ReducedModel, e_hat: np.ndarray,
             coeffs: np.ndarray, basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Form the rows ``coeffs @ basis``, check them, return them (internal order).

    Every closed-form value must be finite, every row must meet its return
    constraint in excess space, on its trailing weights, to CONSTRAINT_TOL,
    and match re-evaluation through both risk routes to CHECK_RTOL; each
    test fails on NaN.  Raises NumericalBreakdown otherwise.
    """
    i = _first(np.isfinite(values))
    if i is not None:
        raise NumericalBreakdown(f"closed-form value {float(values[i])!r} is not finite")
    x = _rows(coeffs, basis)
    if not np.all(np.abs(x[:, 1:] @ r.mu_hat - e_hat)
                  <= CONSTRAINT_TOL * np.maximum(1.0, np.abs(e_hat))):
        raise NumericalBreakdown("critical solve violated the return constraint")
    recheck = _covar_rows(m, r, coeffs, basis)[3]
    i = _first(np.abs(recheck - values) <= CHECK_RTOL * np.maximum(1.0, np.abs(values)))
    if i is not None:
        raise NumericalBreakdown(
            f"closed-form value {float(values[i])!r} disagrees with "
            f"re-evaluation {float(recheck[i])!r}")
    return x


def _ray(m: ValidatedModel, r: ReducedModel, e_hat: float):
    """Feasible ray along which the objective decreases in degenerate regimes.

    Base point ``e_Y + E_hat/alpha_C ubar``: the constrained minimizer of the
    quadratic part alone.  The direction ``wbar / detG`` keeps both constraints
    invariant and drives the auxiliary parameter of the scalar reduction to
    -inf at unit rate.
    """
    base, direction = _rows(np.array([[1.0, e_hat / r.alpha_C, 0.0],
                                      [0.0, 0.0, 1.0 / r.detG]]), _basis(m, r))
    return m.to_original(base), m.to_original(direction)


def solve_critical(m: ValidatedModel, r: ReducedModel, E: float) -> CriticalSolution:
    """Solve the equality-constrained problem at target return E.

    Dispatches on the sign of Delta; a Delta <= 0 outcome is a reported
    regime, not an error.  Every Delta > 0 model, dependent or not, takes the
    closed form, cross-checked by re-evaluating the risk measure at the
    returned weights; the status is ``solvability_status``.
    """
    e_hat = float(E) - m.mu1
    regime = _delta_regime(r)
    if regime == 1:
        x_int, values = _unique_critical(m, r, np.array([e_hat]))
        return CriticalSolution(E_hat=e_hat, x=m.to_original(x_int[0]),
                                value=float(values[0]), status=solvability_status(r),
                                efficiency_class=classify_efficiency(r))

    base, direction = _ray(m, r, e_hat)
    a = m.risk.a
    # The infimum when Delta = 0; the objective is unbounded below otherwise.
    value = (-m.mu1 + a * m.sigma1 + e_hat * (a * r.beta_C / r.alpha_C - 1.0)
             if regime == 0 else -math.inf)
    return CriticalSolution(E_hat=e_hat, x=None, value=value, status=solvability_status(r),
                            efficiency_class=None, ray_base=base, ray_direction=direction)


class FrontierPoint(NamedTuple):
    """One sampled point of a frontier: a row of ``Frontier``, built when read."""

    E: float
    value: float
    weights: np.ndarray
    efficient: bool
    status: str


@dataclass(frozen=True, eq=False, slots=True)
class Frontier:
    """A sampled frontier as read-only columns: ``E``, ``value``, ``efficient``
    (k each), ``weights`` (k x n, caller's asset order) and one ``status``.
    Iteration and indexing yield ``FrontierPoint`` rows with Python floats and
    bools; a slice yields a ``Frontier``, and scalars make a one-row record."""

    E: np.ndarray
    value: np.ndarray
    weights: np.ndarray
    efficient: np.ndarray
    status: str

    def __post_init__(self):
        for name, dtype, ndim in (("E", float, 1), ("value", float, 1),
                                  ("weights", float, 2), ("efficient", bool, 1)):
            arr = np.array(getattr(self, name), dtype=dtype, copy=None, ndmin=ndim).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not self.E.shape == self.value.shape == self.efficient.shape == self.weights.shape[:1]:
            raise DimensionMismatch("frontier columns must have one entry per point")

    def __len__(self) -> int:
        return self.E.shape[0]

    def __iter__(self):
        return map(FrontierPoint._make, zip(self.E.tolist(), self.value.tolist(), self.weights,
                                            self.efficient.tolist(), [self.status] * len(self)))

    def __getitem__(self, i):
        E, value, weights, efficient = self.E[i], self.value[i], self.weights[i], self.efficient[i]
        if isinstance(i, slice):
            return Frontier(E, value, weights, efficient, self.status)
        return FrontierPoint(float(E), float(value), weights, bool(efficient), self.status)


def point_is_efficient(eff: EfficiencyClass, e_hat):
    """Whether the critical portfolio at excess return e_hat is efficient.

    Given an array, the E_hat >= 0 class answers elementwise; the other two
    classes answer with one bool for every point."""
    if eff is EfficiencyClass.NONE_EFFICIENT:
        return False
    if eff is EfficiencyClass.ALL_EFFICIENT:
        return True
    return e_hat >= -TARGET_SLACK


def target_grid(e_min: float, e_max: float, steps: int) -> np.ndarray:
    """Uniform return grid from e_min up to e_max, in return order."""
    if not e_min <= e_max:
        raise DomainError(f"frontier needs E_min <= E_max, got {e_min!r} and {e_max!r}")
    if steps < 1 or (steps == 1 and e_min != e_max):
        raise DomainError("frontier needs steps >= 2, or steps == 1 with E_min == E_max")
    return np.linspace(e_min, e_max, steps)


def frontier(m: ValidatedModel, r: ReducedModel, e_min: float, e_max: float,
             steps: int) -> Frontier:
    """Sample the optimal value across a uniform target-return grid.

    Requires Delta > 0, dependent (1, mu, q) included; points are flagged
    efficient by ``classify_efficiency`` and labelled by
    ``solvability_status``.  The whole grid is formed from the one basis and
    rechecked through it as one batch, with the same per-point checks
    as ``solve_critical``; each row equals ``solve_critical`` at its target.
    Returns one ``Frontier`` record, ordered by E.
    """
    grid = target_grid(e_min, e_max, steps)
    if _delta_regime(r) != 1:
        raise PreconditionViolated(
            f"frontier is defined only for Delta > 0, got Delta={r.Delta!r}")
    e_hat = grid - m.mu1
    x_int, values = _unique_critical(m, r, e_hat)
    flags = np.zeros(grid.shape, bool)
    flags |= point_is_efficient(classify_efficiency(r), e_hat)
    return Frontier(grid, values, m.to_original(x_int), flags, solvability_status(r).value)
