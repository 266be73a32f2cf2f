"""Semantic exceptions shared by every module of the package."""


class CovarselError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatch(CovarselError):
    """Input shapes or index ranges are inconsistent."""


class NotPositiveDefinite(CovarselError):
    """Covariance matrix is not symmetric positive definite at tolerance."""


class MuParallelToOnes(CovarselError):
    """All assets share one expected return, so the problem degenerates."""


class BadQuantileLevel(CovarselError):
    """Quantile level outside (0, 1/2), or a non-positive stress intensity."""


class DomainError(CovarselError):
    """Scalar argument outside its mathematical domain."""


class NumericalBreakdown(CovarselError):
    """A factorization lost positive definiteness, or two evaluation routes
    disagreed beyond tolerance.  Signals near-singular inputs."""


class PreconditionViolated(CovarselError):
    """Operation invoked outside the regime where it is defined."""


class InfeasibleSlice(CovarselError):
    """Target return unreachable inside the non-negative simplex."""


class NoConvergence(CovarselError):
    """Iterative solver exhausted its budget before reaching tolerance."""


class DimensionTooLarge(CovarselError):
    """Grid oracle guard: enumeration refused at this dimension."""


class TooFewBandSamples(CovarselError):
    """Too few Monte-Carlo draws lie at or below the beta-quantile to read it."""


class ScenarioError(CovarselError):
    """Scenario file failed to parse; message carries the field path."""
