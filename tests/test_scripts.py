"""Smoke tests of the scripts under scripts/: each runs as its own process,
the way a user runs it, and its output has the documented shape."""

import csv
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
CLI_HEADER = ["E", "value", "efficient", "status", "w1", "w2", "w3"]


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_frontier_gallery_writes_cli_csvs(tmp_path):
    proc = run_script("frontier_gallery.py", "--steps", "11", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    files = sorted(tmp_path.glob("*.csv"))
    assert [f.name for f in files] == sorted(
        ["example1_constrained_covar.csv", "example1_constrained_sigma.csv",
         "example2_frontier.csv"]
        + [f"example3_{c}.csv" for c in ("case1a", "case1b", "case2a", "case2b", "case3")])
    for f in files:
        with open(f, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CLI_HEADER
        assert len(rows) == 12


def test_mc_validation_prints_worst_z():
    proc = run_script("mc_validation.py", "--samples", "20000", "--portfolios", "1")
    assert proc.returncode == 0, proc.stderr
    assert "worst |z| = " in proc.stdout
    assert "over 3 portfolios at 20000 samples" in proc.stdout
