import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from covarsel.cli import main


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def scenario(scenario_dir, name):
    return str(scenario_dir / f"{name}.json")


class TestDescribe:
    def test_example3_structured(self, scenario_dir):
        code, out = run_cli(["describe", "--scenario", scenario(scenario_dir, "example3"),
                             "--format", "json"])
        assert code == 0
        record = json.loads(out)
        assert record["Qhat"] == [[8.0, -2.0], [-2.0, 12.0]]
        assert record["independent"] is True
        assert record["efficiency_class"] == "NonNegativeEHalf"

    def test_example1_degenerate_regime(self, scenario_dir):
        code, out = run_cli(["describe", "--scenario", scenario(scenario_dir, "example1"),
                             "--format", "json"])
        assert code == 1
        record = json.loads(out)
        assert record["Delta"] < 0
        assert record["status"] == "UnboundedBelow"

    def test_human_readable_default(self, scenario_dir):
        code, out = run_cli(["describe", "--scenario", scenario(scenario_dir, "example3")])
        assert code == 0
        assert "alpha_C" in out and "Delta" in out

    def test_malformed_scenario_exit_two(self, tmp_path):
        bad = tmp_path / "ragged.json"
        bad.write_text(json.dumps({
            "name": "ragged",
            "mu": [1, 2, 3],
            "sigma": [[1, 0, 0], [0, 1], [0, 0, 1]],
            "conditioning_asset": 1,
            "risk": {"a": 1, "b": 1},
        }))
        import contextlib
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run_cli(["describe", "--scenario", str(bad)])
        assert code == 2
        assert "sigma[1]" in err.getvalue()


class TestSolve:
    def test_example2_target_two(self, scenario_dir):
        code, out = run_cli(["solve", "--scenario", scenario(scenario_dir, "example2"),
                             "--E", "2", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        row = rows[0]
        assert row["value"] == -1.0
        assert [row["w1"], row["w2"], row["w3"]] == [1.0, 0.0, 0.0]
        assert row["status"] == "Unique"

    def test_example1_regime_exit_code(self, scenario_dir):
        code, out = run_cli(["solve", "--scenario", scenario(scenario_dir, "example1"),
                             "--E", "2", "--format", "json"])
        assert code == 1
        record = json.loads(out)
        assert record["status"] == "UnboundedBelow"
        assert record["ray_direction"] is not None

    def test_target_from_scenario_targets(self, scenario_dir):
        code, out = run_cli(["solve", "--scenario", scenario(scenario_dir, "example2"),
                             "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "E,value,efficient,status,w1,w2,w3"


class TestConstrained:
    def test_example1_fixture(self, scenario_dir):
        code, out = run_cli(["constrained", "--scenario",
                             scenario(scenario_dir, "example1"),
                             "--E", "2", "--format", "json"])
        assert code == 0
        row = json.loads(out)
        assert row["value"] == pytest.approx((-82 + 7 * math.sqrt(5)) / 45, abs=1e-8)
        assert row["w1"] == pytest.approx(2 / 3, abs=1e-6)
        assert row["w2"] == pytest.approx(1 / 3, abs=1e-6)
        assert row["w3"] == pytest.approx(0.0, abs=1e-6)

    def test_whole_simplex_via_no_target(self, scenario_dir):
        code, out = run_cli(["constrained", "--scenario",
                             scenario(scenario_dir, "example2"),
                             "--no-target", "--format", "json"])
        assert code == 0
        row = json.loads(out)
        assert row["value"] == pytest.approx(-1.0, abs=1e-9)
        assert row["w1"] == pytest.approx(1.0, abs=1e-9)

    def test_requires_flag_or_scenario_constraint(self, scenario_dir):
        import contextlib
        with contextlib.redirect_stderr(io.StringIO()):
            code, _ = run_cli(["constrained", "--scenario",
                               scenario(scenario_dir, "example3"), "--E", "2"])
        assert code == 2
        code, out = run_cli(["constrained", "--scenario",
                             scenario(scenario_dir, "example3"), "--E", "2",
                             "--non-negative", "--format", "json"])
        assert code == 0


class TestFrontier:
    def test_example3_default_grid(self, scenario_dir):
        code, out = run_cli(["frontier", "--scenario", scenario(scenario_dir, "example3"),
                             "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,value,efficient,status,w1,w2,w3"
        assert len(lines) == 1 + 101
        rows = list(csv.DictReader(io.StringIO(out)))
        es = np.array([float(r["E"]) for r in rows])
        vals = np.array([float(r["value"]) for r in rows])
        assert es[0] == 1.0 and es[-1] == 3.0
        assert np.all(np.diff(es) > 0)
        # value at the kink endpoint E = mu1 = 1 equals a - 1 = 0
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        # linear beyond the kink: vanishing second differences
        assert np.max(np.abs(np.diff(vals, 2))) < 1e-9

    def test_kink_interior_when_grid_straddles_mu1(self, scenario_dir):
        code, out = run_cli(["frontier", "--scenario", scenario(scenario_dir, "example3"),
                             "--E-min", "0", "--E-max", "2", "--steps", "81",
                             "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        vals = np.array([r["value"] for r in rows])
        es = np.array([r["E"] for r in rows])
        second = np.abs(np.diff(vals, 2))
        kinks = np.nonzero(second > 1e-9)[0]
        assert len(kinks) == 1
        assert es[kinks[0] + 1] == pytest.approx(1.0)

    def test_sigma_and_var_modes(self, scenario_dir):
        code, out = run_cli(["frontier", "--scenario", scenario(scenario_dir, "example3"),
                             "--E-min", "1", "--E-max", "3", "--steps", "5",
                             "--mode", "sigma", "--format", "json"])
        assert code == 0
        sig_rows = json.loads(out)
        code, out = run_cli(["frontier", "--scenario", scenario(scenario_dir, "example3"),
                             "--E-min", "1", "--E-max", "3", "--steps", "5",
                             "--mode", "var", "--format", "json"])
        var_rows = json.loads(out)
        for s_row, v_row in zip(sig_rows, var_rows):
            assert v_row["value"] == pytest.approx(-v_row["E"] + 1.0 * s_row["value"],
                                                   rel=1e-12)

    def test_degenerate_regime_diagnosis(self, scenario_dir):
        code, out = run_cli(["frontier", "--scenario", scenario(scenario_dir, "example1"),
                             "--E-min", "1", "--E-max", "3", "--steps", "11",
                             "--format", "json"])
        assert code == 1
        record = json.loads(out)
        assert record["status"] == "UnboundedBelow"


class TestValidate:
    def test_example3_comparison_record(self, scenario_dir):
        code, out = run_cli(["validate", "--scenario", scenario(scenario_dir, "example3"),
                             "--weights", "0.2,0.5,0.3", "--samples", "200000",
                             "--seed", "42", "--format", "json"])
        assert code == 0
        record = json.loads(out)
        assert abs(record["z_score"]) < 4.0
        assert record["band_kept"] > 100
        assert record["seed"] == 42


class TestRoundTrip:
    def test_csv_and_json_carry_identical_values(self, scenario_dir):
        _, json_out = run_cli(["frontier", "--scenario",
                               scenario(scenario_dir, "example3"),
                               "--E-min", "1.1", "--E-max", "2.7", "--steps", "13",
                               "--format", "json"])
        _, csv_out = run_cli(["frontier", "--scenario",
                              scenario(scenario_dir, "example3"),
                              "--E-min", "1.1", "--E-max", "2.7", "--steps", "13",
                              "--format", "csv"])
        json_rows = json.loads(json_out)
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(json_rows) == len(csv_rows)
        for jr, cr in zip(json_rows, csv_rows):
            for key in ("E", "value", "w1", "w2", "w3"):
                assert float(cr[key]) == jr[key]
            assert (cr["efficient"] == "true") == jr["efficient"]

    def test_reparse_matches_in_memory_records(self, scenario_dir, example3):
        from covarsel import frontier
        m, r = example3
        pts = frontier(m, r, 1.1, 2.7, 13)
        _, json_out = run_cli(["frontier", "--scenario",
                               scenario(scenario_dir, "example3"),
                               "--E-min", "1.1", "--E-max", "2.7", "--steps", "13",
                               "--format", "json"])
        rows = json.loads(json_out)
        for p, row in zip(pts, rows):
            assert row["E"] == p.E
            assert row["value"] == p.value
            assert [row[f"w{i}"] for i in (1, 2, 3)] == [float(w) for w in p.weights]


def test_console_entry_point(scenario_dir):
    env = dict(os.environ)
    src = str(scenario_dir.parents[0] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "covarsel", "describe",
         "--scenario", scenario(scenario_dir, "example2"), "--format", "json"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "Unique"


@pytest.mark.parametrize("name,argv", [
    ("example2", ["solve", "--E", "nan"]),
    ("example2", ["solve", "--E", "inf"]),
    ("example2", ["validate", "--seed", "-1"]),
    ("example3", ["frontier", "--E-min", "3", "--E-max", "1", "--steps", "3",
                  "--format", "csv"]),
    ("example3", ["frontier", "--E-min", "3", "--E-max", "1", "--steps", "3",
                  "--mode", "sigma"]),
    ("example2", ["validate", "--weights", "nan,0.5,0.5"]),
])
def test_bad_numbers_exit_two(scenario_dir, name, argv):
    """Non-finite targets and weights, a negative seed and a descending
    return range are input errors: exit 2 with one error line, never a
    traceback."""
    env = dict(os.environ)
    src = str(scenario_dir.parents[0] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "covarsel", argv[0],
         "--scenario", scenario(scenario_dir, name), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert proc.stdout == ""


def test_non_finite_scenario_target_exit_two(scenario_dir, tmp_path):
    raw = json.loads((scenario_dir / "example2.json").read_text())
    raw["targets"] = {"E": float("nan")}
    path = tmp_path / "nan_target.json"
    path.write_text(json.dumps(raw))
    import contextlib
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["solve", "--scenario", str(path)])
    assert code == 2
    assert "targets.E" in err.getvalue()
    assert out == ""


def _run_edited(scenario_dir, tmp_path, name, edit, argv):
    """Run the CLI on a copy of a fixture scenario changed by ``edit``;
    returns (exit code, stdout, stderr)."""
    raw = json.loads((scenario_dir / f"{name}.json").read_text())
    edit(raw)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli([argv[0], "--scenario", str(path), *argv[1:]])
    return code, out, err.getvalue()


@pytest.mark.parametrize("steps", ["many", 2.7, True, 0, math.inf])
def test_bad_scenario_steps_exit_two(scenario_dir, tmp_path, steps):
    def edit(raw):
        raw["targets"]["steps"] = steps

    code, out, err = _run_edited(scenario_dir, tmp_path, "example3", edit,
                                 ["frontier", "--format", "csv"])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: targets.steps")


def test_integral_float_scenario_steps(scenario_dir, tmp_path):
    def edit(raw):
        raw["targets"]["steps"] = 3.0

    code, out, _ = _run_edited(scenario_dir, tmp_path, "example3", edit,
                               ["frontier", "--format", "csv"])
    assert code == 0
    assert len(out.splitlines()) == 4


def test_validate_quantile_beyond_sample_exit_two(scenario_dir, tmp_path):
    def edit(raw):
        raw["risk"] = {"a": 1.0, "b": 8.0}

    code, out, err = _run_edited(scenario_dir, tmp_path, "example2", edit,
                                 ["validate", "--weights", "0.2,0.5,0.3"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_import_loads_no_scipy(scenario_dir):
    """scipy is a test extra; importing the package must not load it, since
    every CLI call pays for what the import loads."""
    env = dict(os.environ)
    src = str(scenario_dir.parents[0] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, covarsel; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
