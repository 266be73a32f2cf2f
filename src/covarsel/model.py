"""Domain types, input validation and the canonical internal representation.

A market is described by asset return means ``mu``, a positive definite
covariance ``sigma`` and one distinguished *conditioning asset* whose stress
event defines the conditional risk measure.  Validation permutes the assets so
the conditioning asset always sits at internal position 0; every public result
is mapped back to the caller's ordering, so the permutation never leaks.

Stress intensities are the positive scalars ``a`` and ``b``.  They may be given
directly or derived from quantile levels ``alpha, beta`` in (0, 1/2) via
``a = -quantile(alpha)``, ``b = -quantile(beta)`` of the standard normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadQuantileLevel,
    DimensionMismatch,
    DomainError,
    MuParallelToOnes,
    NotPositiveDefinite,
)
from .linalg import PivotFailure, cholesky_spd

SYMMETRY_RTOL = 1e-12
PD_PIVOT_SCALE = 1e-10
WEIGHT_SUM_TOL = 1e-12
MU_SPAN_RTOL = 1e-12  # smallest return spread, relative to max(1, max |mu|)

_SQRT2 = math.sqrt(2.0)


def standard_normal_cdf(z: float) -> float:
    """CDF of N(0, 1), accurate in both tails through erfc."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse CDF of N(0, 1); ``statistics`` is imported here, off the import path."""
    if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 < p < 1.0):
        raise DomainError(f"quantile level must lie strictly in (0, 1), got {p!r}")
    from statistics import NormalDist

    return NormalDist().inv_cdf(float(p))


@dataclass(frozen=True)
class RiskParams:
    """Positive stress intensities, optionally tagged with origin levels."""

    a: float
    b: float
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise BadQuantileLevel(f"stress intensity a must be positive, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise BadQuantileLevel(f"stress intensity b must be positive, got {self.b!r}")

    @classmethod
    def from_levels(cls, alpha: float, beta: float) -> "RiskParams":
        for name, level in (("alpha", alpha), ("beta", beta)):
            if not (isinstance(level, (int, float)) and 0.0 < level < 0.5):
                raise BadQuantileLevel(f"{name} must lie in (0, 1/2), got {level!r}")
        return cls(a=-normal_quantile(alpha), b=-normal_quantile(beta),
                   alpha=float(alpha), beta=float(beta))

    @property
    def beta_level(self) -> float:
        """Quantile level implied by b (used by the Monte-Carlo estimator)."""
        return self.beta if self.beta is not None else standard_normal_cdf(-self.b)


@dataclass(frozen=True)
class MarketModel:
    """Raw user input before validation.  ``conditioning_asset`` is 1-based."""

    mu: np.ndarray
    sigma: np.ndarray
    conditioning_asset: int
    risk: RiskParams

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))


@dataclass(frozen=True)
class ValidatedModel:
    """Canonical model: conditioning asset permuted to internal position 0.

    ``perm`` maps internal slot i to the original asset index ``perm[i]``;
    ``to_internal`` / ``to_original`` translate weight vectors both ways.
    ``chol`` is the lower Cholesky factor of the permuted sigma, computed once
    and shared by validation, the reduction and the conditional law.
    """

    mu: np.ndarray
    sigma: np.ndarray
    risk: RiskParams
    perm: np.ndarray
    inv_perm: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("mu", "sigma", "perm", "inv_perm"):
            arr = getattr(self, name)
            arr = np.asarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def chol(self) -> np.ndarray:
        """Read-only lower factor of sigma, with the PD_PIVOT_SCALE pivot floor.

        Raises PivotFailure when sigma fails it; nothing is cached then.
        """
        low = cholesky_spd(self.sigma, PD_PIVOT_SCALE)
        low.flags.writeable = False
        return low

    @property
    def mu1(self) -> float:
        """Expected return of the conditioning asset."""
        return float(self.mu[0])

    @property
    def sigma1(self) -> float:
        """Standard deviation of the conditioning asset."""
        return float(np.sqrt(self.sigma[0, 0]))

    def to_internal(self, weights: np.ndarray) -> np.ndarray:
        """Internal order; the one entry check for a caller's weight vector."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.n,):
            raise DimensionMismatch(f"expected weight vector of length {self.n}")
        if not np.all(np.isfinite(w)):
            raise DomainError("portfolio weights must be finite")
        return w[self.perm]

    def to_original(self, weights: np.ndarray) -> np.ndarray:
        """Caller's asset order; a 2-D array is taken as one portfolio per row."""
        w = np.asarray(weights, dtype=float)
        return w[..., self.inv_perm]


def validate_model(m: MarketModel) -> ValidatedModel:
    """Check every invariant and return the canonical permuted model.

    Raises DimensionMismatch, NotPositiveDefinite, MuParallelToOnes or
    BadQuantileLevel (the latter surfaces from RiskParams construction).
    sigma is permuted first; its asymmetry is measured in one n x n buffer,
    which then takes ``0.5 (sigma + sigma')`` in place and becomes the model's.
    """
    mu = np.asarray(m.mu, dtype=float)
    sigma = np.asarray(m.sigma, dtype=float)
    if mu.ndim != 1 or mu.shape[0] < 2:
        raise DimensionMismatch("mu must be a vector of at least two assets")
    n = mu.shape[0]
    if sigma.shape != (n, n):
        raise DimensionMismatch(f"sigma must be {n}x{n}, got {sigma.shape}")
    if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(sigma)):
        raise DimensionMismatch("mu and sigma must be finite")
    if not (isinstance(m.conditioning_asset, (int, np.integer))
            and 1 <= m.conditioning_asset <= n):
        raise DimensionMismatch(
            f"conditioning_asset must be in 1..{n}, got {m.conditioning_asset!r}")

    cond = int(m.conditioning_asset) - 1
    idx = np.arange(n)  # perm = (cond, 0, .., cond - 1, cond + 1, .., n - 1)
    perm, inv_perm = idx - (idx <= cond), idx + (idx < cond)
    perm[0], inv_perm[cond] = cond, 0
    sigma = sigma.take(perm, 0).take(perm, 1)
    scale = max(float(sigma.max()), -float(sigma.min()))
    sym = np.subtract(sigma, sigma.T)
    if np.max(np.abs(sym, out=sym)) > SYMMETRY_RTOL * max(1.0, scale):
        raise NotPositiveDefinite("covariance matrix is not symmetric at tolerance")
    np.add(sigma, sigma.T, out=sym)
    sym *= 0.5
    del sigma  # freed before the factor is allocated

    mu_span = float(np.max(mu) - np.min(mu))
    if mu_span <= MU_SPAN_RTOL * max(1.0, float(np.max(np.abs(mu)))):
        raise MuParallelToOnes("every asset has the same expected return")

    vm = ValidatedModel(mu=mu[perm], sigma=sym, risk=m.risk,
                        perm=perm, inv_perm=inv_perm)
    try:
        vm.chol
    except PivotFailure as exc:
        raise NotPositiveDefinite(f"covariance matrix failed Cholesky: {exc}") from exc
    return vm
