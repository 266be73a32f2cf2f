"""Seeded inputs for each workload, made with numpy alone (no covarsel).

Every run of a workload attempts a whole number of rounds.  A round has the
same shape on every seed (the same market sizes, regimes and kinds of
request, in the same order); the seed draws the numbers inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fixtures import FIXTURES
from reference import Market

# Expected returns are rounded to this grid so that a frontier grid centred on
# mu_Y with a power-of-two step is exact in binary and hits E = mu_Y exactly.
MU_QUANTUM = 2.0 ** -24
FRONTIER_STEPS = 101

# One frontier-sweep round: (n, sign of Delta).  Small markets are most of the
# requests, so latency_p50_ms is a small request; the n = 300 request is the
# slowest, so latency_tail_ms is one.  Four of the twenty have Delta < 0.
FRONTIER_ROUND = (
    (3, 1), (10, 1), (3, 1), (30, 1), (3, -1), (3, 1), (100, 1), (10, 1), (3, 1), (10, -1),
    (300, 1), (3, 1), (10, 1), (3, -1), (30, 1), (3, 1), (100, -1), (10, 1), (3, 1), (100, 1),
)
# Markets are drawn clearly independent: near dependence covarsel switches to
# its minimum-variance fallback (covarsel.reduction.INDEPENDENCE_RTOL = 1e-10),
# which would make the work a run does depend on the seed.  About 0.14 % of
# n = 3 draws fall below this margin and are drawn again.
INDEPENDENCE_MARGIN = 1e-6
# Delta > 0 markets take b in this multiple of the critical b, Delta < 0 ones
# in the second range: both far from the regime boundary.
B_FACTOR_UNIQUE = (1.5, 3.0)
B_FACTOR_UNBOUNDED = (0.3, 0.7)

# One constrained-solve round: every size gets a simplex solve and two slice
# solves; one more market gets an 11-point constrained frontier.
CONSTRAINED_SIZES = (3, 4, 5, 6)
SLICE_QUANTILES = (0.25, 0.75)
CONSTRAINED_GRID = 11
# b for the scenarios the CLI's Monte-Carlo check runs on: quantile levels
# between about 2 % and 30 %.
MC_B_RANGE = (0.5, 2.0)


def random_market(rng, n: int, sign: int = 0) -> Market:
    """Random PD market: sigma = AA' + ridge, normal mu, random conditioning asset.

    mu is drawn again while (1, mu, q) are within INDEPENDENCE_MARGIN of
    linear dependence.  With ``sign`` set, b is a random multiple of the
    critical b, which puts Delta clearly on that side of zero; otherwise b is
    drawn directly.
    """
    mat = rng.normal(size=(n, n))
    sigma = mat @ mat.T
    sigma = 0.5 * (sigma + sigma.T) + 0.5 * np.trace(sigma) / n * np.eye(n)
    y = int(rng.integers(n))
    a = float(rng.uniform(0.3, 2.5))
    while True:
        mu = np.round(2.0 * rng.normal(size=n) / MU_QUANTUM) * MU_QUANTUM
        if Market(mu=mu, sigma=sigma, y=y, a=a, b=1.0).independence() >= INDEPENDENCE_MARGIN:
            break
    if sign:
        lo, hi = B_FACTOR_UNIQUE if sign > 0 else B_FACTOR_UNBOUNDED
        b = Market(mu=mu, sigma=sigma, y=y, a=a, b=1.0).critical_b() * float(rng.uniform(lo, hi))
    else:
        b = float(rng.uniform(0.3, 2.5))
    return Market(mu=mu, sigma=sigma, y=y, a=a, b=b)


@dataclass(frozen=True)
class FrontierRequest:
    market: Market
    e_min: float | None = None   # set for a frontier request (Delta > 0)
    e_max: float | None = None
    E: float | None = None       # set for a single solve (Delta < 0)


def frontier_step(mu) -> float:
    """Power-of-two grid step so that 100 steps span about the range of mu."""
    return 2.0 ** np.floor(np.log2(np.ptp(mu) / (FRONTIER_STEPS - 1)))


def frontier_sweep(rng, rounds: int) -> list[FrontierRequest]:
    requests = []
    half = (FRONTIER_STEPS - 1) // 2
    for _ in range(rounds):
        for n, sign in FRONTIER_ROUND:
            m = random_market(rng, n, sign=sign)
            h = frontier_step(m.mu)
            mu_y = float(m.mu[m.y])
            if sign > 0:
                requests.append(FrontierRequest(m, e_min=mu_y - half * h, e_max=mu_y + half * h))
            else:
                requests.append(FrontierRequest(m, E=mu_y + 25 * h))
    return requests


@dataclass(frozen=True)
class ConstrainedRequest:
    market: Market
    E: float | None = None            # None: whole simplex
    grid: tuple[float, ...] = ()      # non-empty: a constrained frontier


def constrained_solve(rng, rounds: int) -> list[ConstrainedRequest]:
    requests = []
    for k in range(rounds):
        for n in CONSTRAINED_SIZES:
            m = random_market(rng, n)
            requests.append(ConstrainedRequest(m))
            requests.extend(ConstrainedRequest(m, E=float(np.quantile(m.mu, p)))
                            for p in SLICE_QUANTILES)
        m = random_market(rng, CONSTRAINED_SIZES[k % len(CONSTRAINED_SIZES)])
        grid = np.linspace(np.quantile(m.mu, 0.1), np.quantile(m.mu, 0.9), CONSTRAINED_GRID)
        requests.append(ConstrainedRequest(m, grid=tuple(float(e) for e in grid)))
    return requests


def _scenario(name, m: Market, target: float) -> dict:
    return {"name": name, "mu": [float(v) for v in m.mu],
            "sigma": [[float(v) for v in row] for row in m.sigma],
            "conditioning_asset": m.y + 1, "risk": {"a": m.a, "b": m.b},
            "constraints": {"non_negative": True}, "targets": {"E": target}}


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]        # covarsel arguments without --scenario
    scenario: str                # key into the session's scenarios
    known_fault: bool = False    # fails today because of a fault in covarsel


def cli_session(rng, seed: int) -> tuple[dict, list[CliCall]]:
    """Scenarios (name -> scenario dict) and one round of CLI calls."""
    scenarios = dict(FIXTURES)
    for name, n in (("gen10", 10), ("gen50", 50)):
        m = random_market(rng, n, sign=1)
        scenarios[name] = _scenario(name, m, float(np.median(m.mu)))
        # The Monte-Carlo oracle reads the b-quantile off 1e6 draws, so its
        # markets keep b in a range where that quantile has thousands of draws
        # below it; the b chosen from Delta above can put it beyond the sample.
        mc = Market(mu=m.mu, sigma=m.sigma, y=m.y, a=m.a, b=float(rng.uniform(*MC_B_RANGE)))
        scenarios[f"{name}-mc"] = _scenario(f"{name}-mc", mc, float(np.median(m.mu)))

    def weights(n):
        w = rng.dirichlet(np.ones(n))
        w[-1] = 1.0 - float(w[:-1].sum())
        return ",".join(repr(float(v)) for v in w)

    def bounds(name):
        mu = np.asarray(scenarios[name]["mu"])
        return ["--E-min", repr(float(np.quantile(mu, 0.1))),
                "--E-max", repr(float(np.quantile(mu, 0.9)))]

    mc_seed = str(seed % 2 ** 31)
    calls = [
        ("example1", ["describe", "--format", "json"]),
        ("gen50", ["describe", "--format", "json"]),
        ("example2", ["solve", "--E", "2", "--format", "json"]),
        ("example1", ["solve", "--format", "json"]),
        ("gen10", ["solve", "--format", "json"]),
        ("example3", ["frontier", "--E-min", "1", "--E-max", "3", "--steps", "101",
                      "--format", "csv"]),
        ("gen10", ["frontier", *bounds("gen10"), "--steps", "101", "--format", "csv"]),
        ("gen50", ["frontier", *bounds("gen50"), "--steps", "101", "--format", "json"]),
        ("example1", ["constrained", "--format", "json"]),
        ("example2", ["constrained", "--no-target", "--format", "json"]),
        ("example3", ["constrained", "--non-negative", "--E", "2", "--format", "json"]),
        ("example2", ["validate", "--weights", "0.2,0.5,0.3", "--seed", mc_seed,
                      "--samples", "1000000", "--format", "json"]),
        ("example3", ["validate", "--weights", weights(3), "--seed", mc_seed,
                      "--samples", "1000000", "--format", "json"]),
        ("gen10-mc", ["validate", "--weights", weights(10), "--seed", mc_seed,
                      "--samples", "1000000", "--format", "json"]),
        ("gen50-mc", ["validate", "--weights", weights(50), "--seed", mc_seed,
                      "--samples", "1000000", "--format", "json"]),
    ]
    round_calls = [CliCall(tuple(argv), name) for name, argv in calls]
    round_calls += [
        CliCall(("solve", "--E", "nan", "--format", "json"), "example2", known_fault=True),
        CliCall(("validate", "--seed", "-1", "--samples", "1000000", "--format", "json"),
                "example2", known_fault=True),
        CliCall(("frontier", "--E-min", "3", "--E-max", "1", "--steps", "101", "--format", "csv"),
                "example3", known_fault=True),
    ]
    return scenarios, round_calls
