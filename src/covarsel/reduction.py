"""Derived quantities behind the conditional risk objective.

Writing Y for the conditioning asset (internal position 0) and
``q = sigma[:, 0] / sigma1``, the covariance with the conditioning direction
projected out is ``Q = sigma - q q^T``.  Its first row and column vanish and
the trailing block ``Qhat`` is positive definite, so after eliminating the
budget constraint the objective lives on the (n-1)-dimensional reduced space
with excess means ``mu_hat`` and excess covariations ``q_hat``.

The Gramian of ``mu_hat`` and ``q_hat`` under the ``Qhat``-inverse inner
product supplies the scalars ``alpha_C, beta_C, gamma_C`` and ``detG``; the
sign of the discriminant ``Delta = b^2 alpha_C - a^2 detG`` decides whether a
minimum-risk portfolio exists for a given target return.  The two solves
behind it, ``Qhat^-1 mu_hat`` and ``Qhat^-1 q_hat``, are kept: every
closed-form portfolio of the model is a combination of them.

When the ones vector, mu and q are linearly dependent, ``q_hat`` is parallel
to ``mu_hat`` and ``detG = 0``.  ``ReducedModel.independent`` reports whether
``detG > DEPENDENCE_RTOL alpha_C gamma_C``; it is a label only, since the
closed form covers both cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown
from .linalg import PivotFailure, cholesky_spd, solve_cholesky
from .model import ValidatedModel

DEPENDENCE_RTOL = 1e-10
ZERO_BLOCK_TOL = 1e-12


@dataclass(frozen=True)
class ReducedModel:
    """Every derived quantity, plus the stress intensities they pair with.

    ``qinv_mu = Qhat^-1 mu_hat`` and ``qinv_qh = Qhat^-1 q_hat``.
    ``independent`` is False when the normalized Gramian determinant
    ``detG / (alpha_C gamma_C)`` is at most DEPENDENCE_RTOL.
    """

    q: np.ndarray
    Q: np.ndarray
    Qhat: np.ndarray
    mu_hat: np.ndarray
    q_hat: np.ndarray
    alpha_C: float
    beta_C: float
    gamma_C: float
    detG: float
    Delta: float
    independent: bool
    a: float
    b: float
    qinv_mu: np.ndarray = field(repr=False)
    qinv_qh: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("q", "Q", "Qhat", "mu_hat", "q_hat", "qinv_mu", "qinv_qh"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def gramian_scalars(qhat_matrix, mu_hat, q_hat):
    """Gramian entries of (mu_hat, q_hat) under the inverse of ``qhat_matrix``.

    One Cholesky solve per vector; returns (alpha_C, beta_C, gamma_C, detG)
    with detG = alpha_C * gamma_C - beta_C**2.
    """
    qhat_matrix = np.asarray(qhat_matrix, dtype=float)
    mu_hat = np.asarray(mu_hat, dtype=float)
    q_hat = np.asarray(q_hat, dtype=float)
    try:
        low = cholesky_spd(qhat_matrix)
    except PivotFailure as exc:
        raise NumericalBreakdown(f"reduced covariance block not PD: {exc}") from exc
    return _gramian_from_chol(low, mu_hat, q_hat)[:4]


def _gramian_from_chol(low, mu_hat, q_hat):
    """(alpha_C, beta_C, gamma_C, detG, Qhat^-1 mu_hat, Qhat^-1 q_hat)."""
    u = solve_cholesky(low, mu_hat)
    v = solve_cholesky(low, q_hat)
    alpha_c = float(mu_hat @ u)
    beta_c = float(mu_hat @ v)
    gamma_c = float(q_hat @ v)
    det_g = alpha_c * gamma_c - beta_c * beta_c
    return alpha_c, beta_c, gamma_c, det_g, u, v


def reduce_model(m: ValidatedModel) -> ReducedModel:
    """Compute q, Q, Qhat, the reduced vectors and all Gramian scalars.

    Asserts the structural invariants on the way: the first row and column of
    Q vanish, Qhat passes a tolerant Cholesky (raising NumericalBreakdown on a
    near-singular covariance), and alpha_C is positive with every scalar
    finite (raising NumericalBreakdown on overflow).
    """
    sigma1 = m.sigma1
    q = m.sigma[:, 0] / sigma1
    big_q = m.sigma - np.outer(q, q)
    edge = max(float(np.max(np.abs(big_q[0, :]))), float(np.max(np.abs(big_q[:, 0]))))
    if edge > ZERO_BLOCK_TOL * max(1.0, float(np.max(np.abs(m.sigma)))):
        raise NumericalBreakdown(
            f"projected covariance should have a zero first row/column, got {edge:.3e}")
    big_q[0, :] = 0.0
    big_q[:, 0] = 0.0
    qhat = big_q[1:, 1:]

    try:
        low = cholesky_spd(qhat)
    except PivotFailure as exc:
        raise NumericalBreakdown(
            f"reduced covariance block lost positive definiteness: {exc}") from exc

    mu_hat = m.mu[1:] - m.mu[0]
    q_hat = q[1:] - q[0]
    alpha_c, beta_c, gamma_c, det_g, u, v = _gramian_from_chol(low, mu_hat, q_hat)
    a, b = m.risk.a, m.risk.b
    delta = b * b * alpha_c - a * a * det_g
    if not (alpha_c > 0.0 and all(map(math.isfinite, (alpha_c, beta_c, gamma_c,
                                                        det_g, delta)))):
        raise NumericalBreakdown(
            "Gramian scalars must be finite with alpha_C > 0, got "
            f"alpha_C={alpha_c!r} beta_C={beta_c!r} gamma_C={gamma_c!r} "
            f"detG={det_g!r} Delta={delta!r}")
    return ReducedModel(q=q, Q=big_q, Qhat=qhat, mu_hat=mu_hat, q_hat=q_hat,
                        alpha_C=alpha_c, beta_C=beta_c, gamma_C=gamma_c,
                        detG=det_g, Delta=delta,
                        independent=det_g > DEPENDENCE_RTOL * alpha_c * gamma_c,
                        a=a, b=b, qinv_mu=u, qinv_qh=v)
