"""Derived quantities behind the conditional risk objective.

Writing Y for the conditioning asset (internal position 0) and
``q = sigma[:, 0] / sigma1``, the covariance with the conditioning direction
projected out is ``Q = sigma - q q^T``, formed in one n x n buffer as
``(-q) q^T + sigma``, the same bits.  Its first row and column vanish and
the trailing block ``Qhat`` is positive definite, so after eliminating the
budget constraint the objective lives on the (n-1)-dimensional reduced space
with excess means ``mu_hat`` and excess covariations ``q_hat``.

The Gramian of ``mu_hat`` and ``q_hat`` under the ``Qhat``-inverse inner
product supplies the scalars ``alpha_C, beta_C, gamma_C`` and ``detG``; the
sign of the discriminant ``Delta = b^2 alpha_C - a^2 detG`` decides whether a
minimum-risk portfolio exists for a given target return.  The two solves
behind it, ``Qhat^-1 mu_hat`` and ``Qhat^-1 q_hat``, are kept: every
closed-form portfolio of the model is a combination of them.

``Qhat = sigma_22 - sigma_21 sigma_12 / sigma_11`` is the Schur complement of
``sigma_11`` in sigma, so its Cholesky factor is the trailing block of the
factor ``ValidatedModel.chol`` that validation already computed.  Those
trailing pivots passed the floor ``1e-10 max diag(sigma)``, which is at least
Qhat's own, so Qhat is never factored again: both solves are one O(n^2)
substitution on that block, with the two right-hand sides stacked.

When the ones vector, mu and q are linearly dependent, ``q_hat`` is parallel
to ``mu_hat`` and ``detG = 0``.  With two assets they always are, as the
reduced space has one dimension, so ``detG`` is set to 0 there rather than
to the rounding noise its difference leaves.  ``ReducedModel.independent``
reports whether ``detG > DEPENDENCE_RTOL alpha_C gamma_C``; it is a label
only, since the closed form covers both cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown
from .linalg import PivotFailure, solve_cholesky
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


def reduce_model(m: ValidatedModel) -> ReducedModel:
    """Compute q, Q, Qhat, the reduced vectors and all Gramian scalars.

    Asserts the structural invariants on the way: the first row and column of
    Q vanish, sigma's factor ``m.chol`` passes its pivot floor (raising
    NumericalBreakdown on a near-singular covariance, for a model built
    without ``validate_model``), and alpha_C is positive with every scalar
    finite (raising NumericalBreakdown on overflow).
    """
    sigma1 = m.sigma1
    q = m.sigma[:, 0] / sigma1
    big_q = np.multiply.outer(-q, q)
    big_q += m.sigma
    edge = max(float(np.max(np.abs(big_q[0, :]))), float(np.max(np.abs(big_q[:, 0]))))
    scale = max(float(m.sigma.max()), -float(m.sigma.min()))
    if edge > ZERO_BLOCK_TOL * max(1.0, scale):
        raise NumericalBreakdown(
            f"projected covariance should have a zero first row/column, got {edge:.3e}")
    big_q[0, :] = 0.0
    big_q[:, 0] = 0.0
    qhat = big_q[1:, 1:]

    try:
        low = m.chol
    except PivotFailure as exc:
        raise NumericalBreakdown(
            f"covariance lost positive definiteness: {exc}") from exc

    mu_hat = m.mu[1:] - m.mu[0]
    q_hat = q[1:] - q[0]
    u, v = solve_cholesky(low[1:, 1:], np.column_stack((mu_hat, q_hat))).T
    alpha_c = float(mu_hat @ u)
    beta_c = float(mu_hat @ v)
    gamma_c = float(q_hat @ v)
    det_g = alpha_c * gamma_c - beta_c * beta_c if m.n > 2 else 0.0
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
