"""Risk evaluation for arbitrary portfolios.

Under joint normality the risk of x is ``-E[X | Y = y*] + b sd[X | Y = y*]``
for X = x'R, Y the conditioning asset and ``y* = mu_Y - a sigma_Y``.  Two
routes give it: the reduced form ``-x'mu + a x'q + b sqrt(x'Qx)``, and the
conditional normal law of X given Y = y* read off the Cholesky factor L of
sigma (``_pair_law``, which the Monte-Carlo oracle samples too).
``covar_portfolio`` raises if they disagree, so a wrong ``q``, ``Q`` or ``L``
fails it.  Rows are taken as combinations ``coeffs @ basis`` of a few basis
vectors, with every quadratic read off the basis' Gram matrices, so the
closed-form frontier rechecks a whole grid, whose rows span three vectors,
in O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalBreakdown
from .model import WEIGHT_SUM_TOL, ValidatedModel
from .reduction import ReducedModel

ROUTE_RTOL = 1e-9
# The routes take the root of x'Qx from two computations, Q = sigma - qq' and
# |L[:, 1:]'x|, which differ by more than ROUTE_RTOL near e_Y and on badly
# conditioned sigma.  They may differ by b sigma_X times this on top of it.
COND_SD_SLACK = np.sqrt(64.0 * np.finfo(float).eps)
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


def _pair_law(m: ValidatedModel, coeffs: np.ndarray, basis: np.ndarray):
    """Law of X = x'R given Y = y* for each row x of ``coeffs @ basis`` (internal
    order).  With ``l = L'x``, (Y, X) is ``(mu_Y + L00 z0, mu'x + l0 z0 +
    |l[1:]| z1)`` in law for independent standard normals, and Y = y* is
    z0 = -a.  Arrays ``(expected, sigma_X, rho, cond_mean, scale)``: ``|l|``,
    ``l0 / |l|``, ``mu'x - a l0`` and ``|l[1:]|``, read off the Gram matrix of
    ``(basis @ L)[:, 1:]``."""
    load = basis @ m.chol
    tail = load[:, 1:]
    expected = coeffs @ (basis @ m.mu)
    load0 = coeffs @ load[:, 0]
    scale = np.sqrt(np.maximum(0.0, np.einsum("ij,ij->i", coeffs @ (tail @ tail.T), coeffs)))
    sigma_x = np.sqrt(load0 * load0 + scale * scale)
    return expected, sigma_x, load0 / sigma_x, expected - m.risk.a * load0, scale


def _covar_rows(m: ValidatedModel, r: ReducedModel, coeffs: np.ndarray, basis: np.ndarray):
    """Both routes for every row of ``coeffs @ basis``: budget-feasible
    portfolios in internal order, one per row of ``coeffs`` (k x p), spanned
    by the p rows of ``basis`` (p x n).

    Returns arrays ``(expected, sigma, rho, value)`` with the reduced-route
    value.  Raises NumericalBreakdown where a row's value or volatility is not
    finite, its volatility is not positive or the routes differ by more than
    ROUTE_RTOL (relative) plus COND_SD_SLACK b sigma_X.  Each test is written
    to fail on NaN, and an overflow fails the first one.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        expected, sigma, rho, cond_mean, scale = _pair_law(m, coeffs, basis)
        value = _reduced_form(m, expected, coeffs @ (basis @ r.q),
                              _gram_rows(coeffs, basis, r.Q))
        other = -cond_mean + m.risk.b * scale
    i = _first(np.isfinite(value) & np.isfinite(sigma))
    if i is not None:
        raise NumericalBreakdown(f"risk value {float(value[i])!r} or portfolio variance "
                                 f"{float(sigma[i] * sigma[i])!r} is not finite")
    i = _first(sigma > 0.0)
    if i is not None:
        raise NumericalBreakdown(f"portfolio volatility {float(sigma[i])!r} is not positive")
    i = _first(np.abs(other - value)
               <= ROUTE_RTOL * np.maximum(1.0, np.abs(value)) + COND_SD_SLACK * m.risk.b * sigma)
    if i is not None:
        raise NumericalBreakdown(
            f"risk evaluation routes disagree: {float(value[i])!r} vs {float(other[i])!r}")
    return expected, sigma, rho, value


def _budget_weights(m: ValidatedModel, x) -> np.ndarray:
    """A caller's weights in internal order, checked to sum to 1."""
    xi = m.to_internal(x)
    total = float(xi.sum())
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL * max(1.0, abs(total)):
        raise DomainError(f"portfolio weights sum to {total!r}, expected 1")
    return xi


def covar_portfolio(m: ValidatedModel, r: ReducedModel, x) -> PortfolioReport:
    """Full risk report for a budget-feasible portfolio, cross-checked.

    The reduced-route value is returned; the conditional law off the Cholesky
    factor is evaluated as well and the two must match (see ``_covar_rows``).
    """
    xi = _budget_weights(m, x)
    expected, sigma, rho, value = (float(v[0])
                                   for v in _covar_rows(m, r, np.ones((1, 1)), xi[None, :]))
    return PortfolioReport(E=expected, sigma=sigma, var_alpha=-expected + m.risk.a * sigma,
                           rho=rho, covar=value)


__all__ = ["PortfolioReport", "covar_portfolio"]
