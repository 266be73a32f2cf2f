"""Risk evaluation for arbitrary portfolios.

The conditional value-at-risk has two forms:

* the bivariate form, from the distribution of (portfolio, conditioning
  asset): ``-mu_X + sigma_X * (rho * a + b * sqrt(1 - rho^2))``;
* the reduced form, directly in weight space:
  ``-x'mu + a x'q + b sqrt(x'Qx)``.

``covar_portfolio`` evaluates both and raises if they disagree.  The bivariate
form takes rho from ``x'q`` and ``1 - rho^2`` from ``x'Qx``, so the two agree
up to rounding even when ``q`` or ``Q`` is wrong: the comparison catches a
NaN, a volatility that is not positive, |rho| > 1 and ``x'Qx > x'sigma x``.
It takes its rows as combinations ``coeffs @ basis`` of a few basis vectors
and reads every quadratic off the basis' Gram matrices, so the closed-form
frontier rechecks a whole grid, whose rows span three vectors, in O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalBreakdown
from .model import WEIGHT_SUM_TOL, ValidatedModel
from .reduction import ReducedModel

ROUTE_RTOL = 1e-9
RHO_TOL = 1e-12
# Below this the quadratic term is treated as exactly zero: the square root is
# still well defined there even though its gradient is not, and the all-in-one
# conditioning-asset portfolio is a legitimate input.
QUAD_FLOOR = 1e-24


@dataclass(frozen=True)
class PortfolioReport:
    """Per-portfolio risk summary."""

    E: float
    sigma: float
    var_alpha: float
    rho: float
    covar: float


def _reduced_form(m: ValidatedModel, expected, xq, quad):
    """The reduced-route objective from ``x'mu``, ``x'q`` and ``x'Qx``."""
    root = np.sqrt(np.where(quad < QUAD_FLOOR, 0.0, quad))
    return -expected + m.risk.a * xq + m.risk.b * root


def _raw_rows(m: ValidatedModel, r: ReducedModel, xi: np.ndarray):
    """Reduced-route objective of each row of ``xi`` (internal order)."""
    return _reduced_form(m, xi @ m.mu, xi @ r.q, np.einsum("ij,ij->i", xi @ r.Q, xi))


def _raw_value(m: ValidatedModel, r: ReducedModel, x_int: np.ndarray) -> float:
    return float(_raw_rows(m, r, x_int[None, :])[0])


def _first(ok: np.ndarray) -> int | None:
    """Index of the first False of the pass mask ``ok``, or None (one reduction)."""
    return None if ok.all() else int(np.argmin(ok))


def _gram_rows(coeffs: np.ndarray, basis: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``x' mat x`` for every row x of ``coeffs @ basis``, through the basis'
    Gram matrix."""
    return np.einsum("ij,ij->i", coeffs @ (basis @ mat @ basis.T), coeffs)


def _covar_rows(m: ValidatedModel, r: ReducedModel, coeffs: np.ndarray, basis: np.ndarray):
    """Both routes for every row of ``coeffs @ basis``: budget-feasible
    portfolios in internal order, one per row of ``coeffs`` (k x p), spanned
    by the p rows of ``basis`` (p x n).

    Returns arrays ``(expected, sigma, rho, value)`` with the reduced-route
    value.  Raises NumericalBreakdown where a row's value or variance is not
    finite, its volatility is not positive or the routes differ by more than
    ROUTE_RTOL (relative), and DomainError where |rho| > 1 + RHO_TOL.  Each
    test is written to fail on NaN, and an overflow fails the first one.
    """
    a, b = m.risk.a, m.risk.b
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a check below
        expected = coeffs @ (basis @ m.mu)
        xq = coeffs @ (basis @ r.q)
        quad = _gram_rows(coeffs, basis, r.Q)
        value = _reduced_form(m, expected, xq, quad)
        sigma2 = _gram_rows(coeffs, basis, m.sigma)
    i = _first(np.isfinite(value) & np.isfinite(sigma2))
    if i is not None:
        raise NumericalBreakdown(f"risk value {float(value[i])!r} or portfolio variance "
                                 f"{float(sigma2[i])!r} is not finite")
    sigma = np.sqrt(np.maximum(0.0, sigma2))
    i = _first(sigma > 0.0)
    if i is not None:
        raise NumericalBreakdown(f"portfolio volatility {float(sigma[i])!r} is not positive")
    rho = xq / sigma
    i = _first(np.abs(rho) <= 1.0 + RHO_TOL)
    if i is not None:
        raise DomainError(f"correlation out of range: {float(rho[i])!r}")
    rho = np.minimum(np.maximum(rho, -1.0), 1.0)
    # Bivariate route, with the complement 1 - rho^2 taken from the projected
    # quadratic (quad = sigma^2 (1 - rho^2)); forming sigma^2 - (x'q)^2 instead
    # would cancel catastrophically near |rho| = 1.
    complement = np.where(quad < QUAD_FLOOR, 0.0, np.minimum(np.maximum(quad / sigma2, 0.0), 1.0))
    other = -expected + sigma * (rho * a + b * np.sqrt(complement))
    i = _first(np.abs(other - value) <= ROUTE_RTOL * np.maximum(1.0, np.abs(value)))
    if i is not None:
        raise NumericalBreakdown(
            f"risk evaluation routes disagree: {float(value[i])!r} vs {float(other[i])!r}")
    return expected, sigma, rho, value


def covar_portfolio(m: ValidatedModel, r: ReducedModel, x) -> PortfolioReport:
    """Full risk report for a budget-feasible portfolio, cross-checked.

    The reduced-route value is returned; the bivariate route is evaluated as
    well and the two must match to ROUTE_RTOL (relative).
    """
    xi = m.to_internal(x)
    total = float(xi.sum())
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL * max(1.0, abs(total)):
        raise DomainError(f"portfolio weights sum to {total!r}, expected 1")
    expected, sigma, rho, value = (float(v[0])
                                   for v in _covar_rows(m, r, np.ones((1, 1)), xi[None, :]))
    return PortfolioReport(E=expected, sigma=sigma, var_alpha=-expected + m.risk.a * sigma,
                           rho=rho, covar=value)


__all__ = ["PortfolioReport", "covar_portfolio"]
