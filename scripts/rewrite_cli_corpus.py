#!/usr/bin/env python3
"""Rewrite the committed CLI corpus under tests/corpus/.

Runs every corpus call through ``covarsel.cli.main`` in this process and
writes its argv, exit code, stdout and stderr to one JSON file per call.
``tests/test_cli_corpus.py`` replays each file and compares the bytes.

The calls are the fixture calls below, the calls of one cli-session round of
the benchmark for each seed in SESSION_SEEDS (read from ``bench/inputs.py``,
which this script imports but never writes), and the ``@example`` input of
``tests/test_cli.py::test_exit_code_contract_fuzz``.  The scenarios that
the session and the example generate are written under tests/corpus/ too;
the session's fixtures are the files under scenarios/.

Rewrite the corpus only when an output changes on purpose, and list every
changed file with the reason in CHANGES.md:

    python scripts/rewrite_cli_corpus.py
"""

import io
import json
import os
import pathlib
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # leave no cache files under bench/

import numpy as np

import inputs as bench_inputs
from covarsel.cli import main

CORPUS = ROOT / "tests" / "corpus"
FIXTURES = ("example1", "example2", "example3")
FORMATS = ("text", "csv", "json")
COMMANDS = (
    ("describe",),
    ("solve", "--E", "0.5"),
    ("frontier", "--steps", "11"),
    ("frontier", "--mode", "sigma", "--E-min", "0", "--E-max", "5", "--steps", "11"),
    ("frontier", "--mode", "var", "--E-min", "0", "--E-max", "5", "--steps", "11"),
    ("constrained",),
    ("constrained", "--E", "0.5"),
    ("validate", "--samples", "100000", "--seed", "3"),
)
SESSION_SEEDS = (1, 2)
# The @example case of test_exit_code_contract_fuzz, which that test writes
# to a file without a name.
FUZZ_EXAMPLE = ({"mu": [-5e39, -9.6], "sigma": [[8.65, 0.65], [0.65, 0.86]],
                 "conditioning_asset": 2, "risk": {"a": 1.0, "b": 1.0}},
                ["constrained", "--non-negative", "--E=-3e8"])


def _scenario_file(rel: str, raw: dict) -> str:
    """Write ``raw`` to tests/corpus/<rel> and return that path from the root."""
    path = CORPUS / rel
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path.relative_to(ROOT))


def calls():
    """(file stem, argv) of every corpus call, writing the scenario files it
    needs; scenario paths are relative to the repository root."""
    for fixture in FIXTURES:
        for command in COMMANDS:
            for fmt in FORMATS:
                stem = "_".join((fixture, *(a.lstrip("-") for a in command), fmt))
                yield stem, [command[0], "--scenario", f"scenarios/{fixture}.json",
                             *command[1:], "--format", fmt]
    for seed in SESSION_SEEDS:
        scenarios, session = bench_inputs.cli_session(np.random.default_rng(seed), seed)
        paths = {}
        for name, raw in scenarios.items():
            if name in FIXTURES:
                path = f"scenarios/{name}.json"
                if json.loads((ROOT / path).read_text(encoding="utf-8")) != raw:
                    raise SystemExit(f"{path} differs from the benchmark's {name}")
                paths[name] = path
            else:
                paths[name] = _scenario_file(f"session{seed}/{name}.json", raw)
        for i, call in enumerate(session):
            yield (f"session{seed}_{i:02d}_{call.scenario}_{call.argv[0]}",
                   [call.argv[0], "--scenario", paths[call.scenario], *call.argv[1:]])
    raw, argv = FUZZ_EXAMPLE
    yield "fuzz_example_constrained", [argv[0], "--scenario",
                                        _scenario_file("fuzz/example.json", raw),
                                        *argv[1:], "--format", "json"]


def run(argv):
    """Exit code, stdout and stderr of one ``main`` call, run from the root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main_rewrite():
    CORPUS.mkdir(exist_ok=True)
    for old in CORPUS.glob("*.json"):
        old.unlink()
    for old in CORPUS.iterdir():
        shutil.rmtree(old)
    for stem, argv in calls():
        (CORPUS / f"{stem}.json").write_text(json.dumps(run(argv), indent=1) + "\n",
                                             encoding="utf-8")
    print(f"wrote {len(list(CORPUS.glob('*.json')))} files to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main_rewrite()
