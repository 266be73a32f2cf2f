"""Portfolio selection with a stress-conditional value-at-risk objective.

The risk of a portfolio is measured by the value-at-risk of its return
conditional on one chosen asset sitting exactly at its own stress level.
Under joint normality that objective admits a closed-form critical set with a
clean solvability trichotomy; this package implements the evaluation, the
closed-form solver with full diagnosis, a numerical solver for the
no-short-selling variant, and Monte-Carlo plus brute-force oracles to verify
everything independently.
"""

from .closedform import (CriticalSolution, EfficiencyClass, Frontier, FrontierPoint,
                         LemmaOutcome, LemmaParams, SolveStatus,
                         classify_efficiency, frontier, is_efficient, lemma_minimize,
                         markowitz_frontier, solvability_status, solve_critical)
from .constrained import (ConstrainedProblem, ConstrainedSolution, constrained_frontier,
                          kkt_certificate, minimize_constrained, project_simplex)
from .errors import (BadQuantileLevel, CovarselError, DimensionMismatch,
                     DimensionTooLarge, DomainError, InfeasibleSlice,
                     MuParallelToOnes, NoConvergence, NotPositiveDefinite,
                     NumericalBreakdown, PreconditionViolated, ScenarioError,
                     TooFewBandSamples)
from .model import MarketModel, RiskParams, ValidatedModel, normal_quantile, validate_model
from .oracle import McConfig, McEstimate, grid_minimize, mc_covar
from .reduction import ReducedModel, reduce_model
from .riskmeasures import PortfolioReport, covar_portfolio

__version__ = "0.1.0"
