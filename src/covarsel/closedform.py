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
to zero (``_basis``).  A frontier is k x 3 coefficients on that basis: the
recheck reads every row's return and risk off the basis in O(n^2) without
forming a row, the ``Frontier`` record keeps the coefficients and the basis in
the caller's order, and its rows are formed only when read.
``solve_critical`` is the one-row case.

In the degenerate regimes the solver returns an explicit feasible ray along
which the objective decreases (to the infimum, or without bound), so the
diagnosis can be verified by direct evaluation.

When the ones vector, mu and q are linearly dependent, ``q_hat`` is parallel
to ``mu_hat`` in the ``Qhat^-1`` inner product, so ``beta_C mu_hat - alpha_C
q_hat = 0`` and ``Delta = b^2 alpha_C > 0``.  The same formula then gives the
classical minimum-variance portfolio, and the solve only changes its status
label to ``MarkowitzFallback``.  Merton's frontier takes the same basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, NumericalBreakdown, PreconditionViolated
from .model import ValidatedModel
from .reduction import ReducedModel
from .riskmeasures import _covar_rows, _first, _gram_rows

DELTA_RTOL = 1e-12
CHECK_RTOL = 1e-9
CONSTRAINT_TOL = 1e-10
TARGET_SLACK = 1e-12  # a return this far below a threshold still meets it
# Least tolerance scale for Delta; it acts only when b^2 alpha_C and
# a^2 |detG| both fall below it.
DELTA_SCALE_FLOOR = 1e-300
# Most grid points of one frontier request.  Whatever n, the request holds the
# grid, its values and flags, three coefficients a point and their k x 3
# temporaries, about 150 bytes a point (0.15 GB at 10**6 steps).  A reader of
# ``Frontier.weights``, such as the CLI, forms the k x n rows with one k x n
# temporary, 16 n bytes a point more: 0.16 GB at n = 10, 4.8 GB at n = 300.
_MAX_STEPS = 10 ** 6


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
    """+1 unique, 0 infimum, -1 unbounded, judged at relative tolerance.
    ``detG <= 0`` makes ``Delta >= b^2 alpha_C > 0``: unique, also where
    ``b^2 alpha_C`` underflows."""
    if r.detG <= 0.0:
        return 1
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


# Excess return of each class's least-risk point, its ``is_efficient`` threshold.
MIN_RISK_E_HAT = {EfficiencyClass.NONE_EFFICIENT: math.inf,
                  EfficiencyClass.NON_NEGATIVE_E_HAT: 0.0,
                  EfficiencyClass.ALL_EFFICIENT: -math.inf}


def is_efficient(E, threshold: float):
    """Whether points at returns E (elementwise) are efficient: no feasible
    portfolio has at least their return at lower risk, nor their risk at a
    higher return.  The optimal risk V(E), the perturbation function of a
    convex program, is convex in E: it falls up to its minimizers and rises
    after them, so E is efficient exactly at or above ``threshold``, the
    highest return at which V is least."""
    return np.asarray(E) >= threshold - TARGET_SLACK


def _basis(m: ValidatedModel, r: ReducedModel) -> np.ndarray:
    """Internal rows ``e_Y``, ``ubar = (-1'u, u)``, ``wbar = (-1'w, w)``, with
    ``u = Qhat^-1 mu_hat`` and ``w = beta_C u - alpha_C Qhat^-1 q_hat``.
    ``w'Qhat w = alpha_C detG``, and with two assets detG is 0, so ``wbar`` is
    taken as zero there rather than as its rounding noise."""
    basis = np.zeros((3, m.n))
    basis[0, 0] = 1.0
    basis[1, 1:] = r.qinv_mu
    if m.n > 2:
        basis[2, 1:] = r.beta_C * r.qinv_mu - r.alpha_C * r.qinv_qh
    basis[1:, 0] = -basis[1:, 1:].sum(axis=1)
    return basis


def _rows(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``coeffs @ basis`` term by term from ``e_Y``, for k x 3 ``coeffs`` or one
    row of them: no row's bits depend on the other rows, and a row with zero
    direction coefficients is exactly ``e_Y``."""
    x = basis[0] * coeffs[..., :1]
    term = np.multiply(basis[1], coeffs[..., 1:2])
    x += term
    x += np.multiply(basis[2], coeffs[..., 2:], out=term)
    return x


def _closed_form(m: ValidatedModel, r: ReducedModel, e_hat: np.ndarray):
    """Unchecked minimizers and optimal values at every excess return in
    ``e_hat`` (Delta > 0): each minimizer is ``e_Y + E_hat/alpha_C ubar +
    c(E_hat) wbar`` with ``c = |E_hat| a / (alpha_C sqrt(Delta))``.  Returns
    the coefficients (one row per target), ``_basis`` and the values."""
    a = m.risk.a
    root = math.sqrt(r.Delta)
    slope = e_hat / r.alpha_C
    coef = np.abs(e_hat) * a / (r.alpha_C * root) if m.n > 2 else np.zeros_like(slope)
    coeffs = np.array((np.ones_like(slope), slope, coef)).T
    values = -m.mu1 + a * m.sigma1 \
        + e_hat * (a * r.beta_C / r.alpha_C - 1.0) + np.abs(e_hat) / r.alpha_C * root
    return coeffs, _basis(m, r), values


def _unique_critical(m: ValidatedModel, r: ReducedModel, e_hat: np.ndarray):
    """``_closed_form`` checked by ``_recheck``: coefficients, internal basis
    and values."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
        coeffs, basis, values = _closed_form(m, r, e_hat)
        _recheck(m, r, e_hat, coeffs, basis, values)
    return coeffs, basis, values


def _check_return(r: ReducedModel, e_hat: np.ndarray, coeffs: np.ndarray,
                  basis: np.ndarray) -> None:
    """Raise NumericalBreakdown where a row of ``coeffs @ basis`` (internal
    order) misses E_hat on its trailing weights, read off the basis (NaN does)."""
    if not np.all(np.abs(coeffs @ (basis[:, 1:] @ r.mu_hat) - e_hat)
                  <= CONSTRAINT_TOL * np.maximum(1.0, np.abs(e_hat))):
        raise NumericalBreakdown("critical solve violated the return constraint")


def _recheck(m: ValidatedModel, r: ReducedModel, e_hat: np.ndarray,
             coeffs: np.ndarray, basis: np.ndarray, values: np.ndarray) -> None:
    """Check the rows ``coeffs @ basis`` through the basis, without forming them.

    Every closed-form value must be finite, every row must meet its return
    constraint in excess space, on its trailing weights, to CONSTRAINT_TOL,
    and match re-evaluation through both risk routes to CHECK_RTOL; each
    test fails on NaN.  Raises NumericalBreakdown otherwise.
    """
    i = _first(np.isfinite(values))
    if i is not None:
        raise NumericalBreakdown(f"closed-form value {float(values[i])!r} is not finite")
    _check_return(r, e_hat, coeffs, basis)
    recheck = _covar_rows(m, r, coeffs, basis)[3]
    i = _first(np.abs(recheck - values) <= CHECK_RTOL * np.maximum(1.0, np.abs(values)))
    if i is not None:
        raise NumericalBreakdown(
            f"closed-form value {float(values[i])!r} disagrees with "
            f"re-evaluation {float(recheck[i])!r}")


def markowitz_frontier(m: ValidatedModel, r: ReducedModel,
                       targets) -> tuple[np.ndarray, float, float, np.ndarray]:
    """Merton's minimum-variance portfolios on ``_basis``: weights (a row per
    target, caller's order), the global minimum-variance return, the return
    at which the Gaussian VaR ``a sigma(E) - E`` is least (inf when it falls
    everywhere) and each row's volatility.  For ``x = e_Y + (-1'y, y)``,
    ``y = s Qhat^-1 mu_hat + t Qhat^-1 q_hat`` with ``[[alpha_C, beta_C],
    [beta_C, 1 + gamma_C]] [s, t]' = [E_hat, -sigma1]``.  Both constraints
    hold to CONSTRAINT_TOL, and sigma's basis Gram matrix gives the
    closed-form variance to CHECK_RTOL."""
    det = r.alpha_C + r.detG
    if det <= 0.0:
        raise NumericalBreakdown("minimum-variance scalars lost strict positivity")
    e_hat = np.asarray(targets, dtype=float) - m.mu1
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check
        s = (e_hat * (1.0 + r.gamma_C) + m.sigma1 * r.beta_C) / det
        t = -(m.sigma1 * r.alpha_C + e_hat * r.beta_C) / det
        coeffs = np.array((np.ones_like(s), s + t * r.beta_C / r.alpha_C, -t / r.alpha_C)).T
        basis = _basis(m, r)
        _check_return(r, e_hat, coeffs, basis)
        x = _rows(coeffs, basis)
        if not np.all(np.abs(x.sum(axis=1) - 1.0) <= CONSTRAINT_TOL):
            raise NumericalBreakdown("minimum-variance solve violated its constraints")
        variance = ((m.sigma1 + s * r.beta_C + t * r.gamma_C) ** 2
                    + s * s * r.alpha_C + 2.0 * s * t * r.beta_C + t * t * r.gamma_C)
        sigma2 = _gram_rows(coeffs, basis, m.sigma)
    i = _first(np.abs(sigma2 - variance) <= CHECK_RTOL * np.maximum(1.0, variance))
    if i is not None:
        raise NumericalBreakdown(f"minimum variance {float(variance[i])!r} vs {float(sigma2[i])!r}")
    gmv = m.mu1 - m.sigma1 * r.beta_C / (1.0 + r.gamma_C)
    # sigma(E)^2 = sigma_g^2 + k (E - gmv)^2, sigma_g^2 = sigma1^2/(1 + gamma_C): a sigma(E) - E
    # is least at gmv + sigma_g/sqrt(k (a^2 k - 1)) if a^2 k > 1, and falls if not.
    k = (1.0 + r.gamma_C) / det
    rise = (1.0 + r.gamma_C) * k * (m.risk.a ** 2 * k - 1.0)
    var_least = gmv + m.sigma1 / math.sqrt(rise) if rise > 0.0 else math.inf
    return m.to_original(x), gmv, var_least, np.sqrt(sigma2)


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
        coeffs, basis, values = _unique_critical(m, r, np.array([e_hat]))
        return CriticalSolution(E_hat=e_hat, x=m.to_original(_rows(coeffs, basis)[0]),
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


@dataclass(frozen=True, eq=False)
class Frontier:
    """A sampled frontier as read-only columns: ``E``, ``value``, ``efficient``
    (k each), ``weights`` (k x n, caller's asset order) and one ``status``.
    Iteration and indexing yield ``FrontierPoint`` rows with Python floats and
    bools; a slice yields a ``Frontier``, and scalars make a one-row record.

    ``weights`` is ``coeffs @ basis`` when a ``basis`` (p x n, caller's order)
    is given, with ``coeffs`` k x p, and ``coeffs`` itself otherwise.  A
    closed-form frontier keeps its k x 3 coefficients and the three basis
    vectors, and forms ``weights`` afresh on each read: the whole column, or
    one row per point that iteration or indexing yields.
    """

    E: np.ndarray
    value: np.ndarray
    coeffs: np.ndarray
    efficient: np.ndarray
    status: str
    basis: np.ndarray | None = None

    def __post_init__(self):
        for name, dtype, ndim in (("E", float, 1), ("value", float, 1),
                                  ("coeffs", float, 2), ("efficient", bool, 1),
                                  ("basis", float, 2)):
            if getattr(self, name) is None:
                continue
            arr = np.array(getattr(self, name), dtype=dtype, copy=None, ndmin=ndim).view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not self.E.shape == self.value.shape == self.efficient.shape == self.coeffs.shape[:1] \
                or self.basis is not None and self.coeffs.shape[1:] != self.basis.shape[:1]:
            raise DimensionMismatch("frontier columns must have one entry per point")

    def _weights(self, coeffs: np.ndarray) -> np.ndarray:
        """Read-only weights for ``coeffs``, ``self.coeffs`` or one of its rows."""
        if self.basis is None:
            return coeffs
        x = _rows(coeffs, self.basis)
        x.flags.writeable = False
        return x

    @property
    def weights(self) -> np.ndarray:
        return self._weights(self.coeffs)

    def __len__(self) -> int:
        return self.E.shape[0]

    def __iter__(self):
        return map(FrontierPoint._make, zip(self.E.tolist(), self.value.tolist(),
                                            map(self._weights, self.coeffs),
                                            self.efficient.tolist(), [self.status] * len(self)))

    def __getitem__(self, i):
        E, value, coeffs, efficient = self.E[i], self.value[i], self.coeffs[i], self.efficient[i]
        if isinstance(i, slice):
            return Frontier(E, value, coeffs, efficient, self.status, self.basis)
        return FrontierPoint(float(E), float(value), self._weights(coeffs), bool(efficient),
                             self.status)


def target_grid(e_min: float, e_max: float, steps: int) -> np.ndarray:
    """Uniform return grid from e_min up to e_max, in return order."""
    if not e_min <= e_max:
        raise DomainError(f"frontier needs E_min <= E_max, got {e_min!r} and {e_max!r}")
    if steps < 1 or (steps == 1 and e_min != e_max):
        raise DomainError("frontier needs steps >= 2, or steps == 1 with E_min == E_max")
    if steps > _MAX_STEPS:
        raise DomainError(f"frontier needs steps <= {_MAX_STEPS}, got {steps}")
    return np.linspace(e_min, e_max, steps)


def frontier(m: ValidatedModel, r: ReducedModel, e_min: float, e_max: float,
             steps: int) -> Frontier:
    """Sample the optimal value across a uniform target-return grid.

    Requires Delta > 0, dependent (1, mu, q) included; points are flagged by
    ``is_efficient`` at their class's ``MIN_RISK_E_HAT`` and labelled by
    ``solvability_status``.  The whole grid is taken as coefficients on the
    one basis and rechecked through it as one batch, with the same per-point
    checks as ``solve_critical``; each row equals ``solve_critical`` at its
    target.  Returns one ``Frontier`` record, ordered by E, that keeps the
    coefficients and the basis and forms its rows only when they are read.
    """
    grid = target_grid(e_min, e_max, steps)
    if _delta_regime(r) != 1:
        raise PreconditionViolated(
            f"frontier is defined only for Delta > 0, got Delta={r.Delta!r}")
    e_hat = grid - m.mu1
    coeffs, basis, values = _unique_critical(m, r, e_hat)
    flags = is_efficient(e_hat, MIN_RISK_E_HAT[classify_efficiency(r)])
    return Frontier(grid, values, coeffs, flags, solvability_status(r).value,
                    m.to_original(basis))
