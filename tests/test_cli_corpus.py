"""The committed CLI corpus: every call's exit code, stdout and stderr, byte
for byte.

Each JSON file directly under ``tests/corpus/`` holds one call's argv and
what it printed.  The calls are the three fixture scenarios in text, csv and
json, under ``describe``, ``solve --E 0.5``, ``frontier --steps 11``,
Merton's ``frontier --mode sigma`` and ``--mode var`` over ``--E-min 0
--E-max 5 --steps 11``, ``constrained``, ``constrained --E 0.5`` and
``validate --samples 100000 --seed 3`` (72 files); one round of the
benchmark's cli-session calls for seeds 1 and 2 (36 files, their generated
scenarios in ``session1/`` and ``session2/``); and the ``@example`` input of
the CLI's exit-code fuzz test.
``scripts/rewrite_cli_corpus.py`` writes them; an output that changes on
purpose is rewritten there and listed with its reason in CHANGES.md.
"""

import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from covarsel.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
CASES = sorted((ROOT / "tests" / "corpus").glob("*.json"))


def test_corpus_holds_every_fixture_call():
    assert len(CASES) == 109


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_cli_output_matches_corpus(path, monkeypatch):
    want = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(want["argv"])
    assert (code, out.getvalue(), err.getvalue()) == \
        (want["exit_code"], want["stdout"], want["stderr"])
