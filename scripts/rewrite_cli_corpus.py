#!/usr/bin/env python3
"""Rewrite the committed CLI corpus under tests/corpus/.

Runs every corpus call through ``covarsel.cli.main`` in this process and
writes its argv, exit code, stdout and stderr to one JSON file per call.
``tests/test_cli_corpus.py`` replays each file and compares the bytes.

Rewrite the corpus only when an output changes on purpose, and list every
changed file with the reason in CHANGES.md:

    python scripts/rewrite_cli_corpus.py
"""

import io
import json
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from covarsel.cli import main

CORPUS = ROOT / "tests" / "corpus"
FIXTURES = ("example1", "example2", "example3")
FORMATS = ("text", "csv", "json")
COMMANDS = (
    ("describe",),
    ("solve", "--E", "0.5"),
    ("frontier", "--steps", "11"),
    ("constrained",),
    ("constrained", "--E", "0.5"),
    ("validate", "--samples", "100000", "--seed", "3"),
)


def calls():
    """(file stem, argv) of every corpus call; scenario paths are relative to
    the repository root."""
    for fixture in FIXTURES:
        for command in COMMANDS:
            for fmt in FORMATS:
                stem = "_".join((fixture, *(a.lstrip("-") for a in command), fmt))
                yield stem, [command[0], "--scenario", f"scenarios/{fixture}.json",
                             *command[1:], "--format", fmt]


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
    for stem, argv in calls():
        (CORPUS / f"{stem}.json").write_text(json.dumps(run(argv), indent=1) + "\n",
                                             encoding="utf-8")
    print(f"wrote {len(list(CORPUS.glob('*.json')))} files to {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main_rewrite()
