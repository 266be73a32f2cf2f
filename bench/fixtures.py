"""The paper's three example markets, as scenario-file dictionaries.

Kept here (standard library only) so the benchmark's inputs do not change
when the repository's own scenario files do, and so the set-up probe can load
its warm-up market without importing numpy before covarsel.
"""

EXAMPLE1 = {
    "name": "example1",
    "mu": [1.0, 4.0, 3.0],
    "sigma": [[1.0, -4.0 / 3.0, 2.0 / 3.0], [-4.0 / 3.0, 4.0, -1.0], [2.0 / 3.0, -1.0, 1.0]],
    "conditioning_asset": 1,
    "risk": {"a": 0.8, "b": 0.7},
    "constraints": {"non_negative": True},
    "targets": {"E": 2.0},
}

EXAMPLE2 = {
    "name": "example2",
    "mu": [2.0, 3.0, 1.0],
    "sigma": [[1.0, 0.2, 1.0], [0.2, 1.0, 0.0], [1.0, 0.0, 9.0]],
    "conditioning_asset": 1,
    "risk": {"a": 1.0, "b": 2.0},
    "constraints": {"non_negative": True},
    "targets": {"E": 2.0},
}

EXAMPLE3 = {
    "name": "example3",
    "mu": [1.0, 2.0, 3.0],
    "sigma": [[1.0, 1.0, 2.0], [1.0, 9.0, 0.0], [2.0, 0.0, 16.0]],
    "conditioning_asset": 1,
    "risk": {"a": 1.0, "b": 1.0},
    "constraints": {"non_negative": False},
    "targets": {"E_min": 1.0, "E_max": 3.0, "steps": 101},
}

FIXTURES = {"example1": EXAMPLE1, "example2": EXAMPLE2, "example3": EXAMPLE3}
