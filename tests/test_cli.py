import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from covarsel.cli import main


def run_cli(args, unexpected_ok=False):
    """Run ``main``; returns (exit code, stdout).  Stderr is passed on to the
    caller's stream.  Exit 3 also catches exceptions covarsel does not raise on
    purpose ("error: unexpected ..."); unless ``unexpected_ok``, such an exit
    fails the test, so a test that accepts exit 3 cannot hide a fault."""
    buf, err = io.StringIO(), io.StringIO()
    outer = sys.stderr
    with redirect_stdout(buf), redirect_stderr(err):
        code = main(args)
    outer.write(err.getvalue())
    if not unexpected_ok:
        assert "error: unexpected" not in err.getvalue(), err.getvalue()
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

    @pytest.mark.parametrize("name,flags,efficient", [
        ("example1", (), False),                           # E = 2 below E* = 4
        ("example2", (), True),                            # E = 2, the minimum itself
        ("example2", ("--no-target",), True),
        ("example1", ("--no-target",), True),
        ("example3", ("--non-negative", "--E", "2"), True),  # E* = 1
    ])
    def test_efficient_at_or_above_the_minimum(self, scenario_dir, name, flags, efficient):
        """A constrained point is efficient exactly when its return is at or
        above that of the whole simplex's minimum-risk point."""
        code, out = run_cli(["constrained", "--scenario", scenario(scenario_dir, name),
                             *flags, "--format", "json"])
        assert code == 0
        assert json.loads(out)["efficient"] is efficient

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

    def test_target_outside_returns_plain_floats(self, scenario_dir):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["constrained", "--scenario",
                                 scenario(scenario_dir, "example1"),
                                 "--non-negative", "--E", "1e200"])
        assert (code, out) == (2, "")
        assert err.getvalue() == "error: target return 1e+200 outside [1.0, 4.0]\n"


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

    @pytest.mark.parametrize("name, least, flagged", [
        ("example1", math.inf, 0), ("example2", 3.5453, 3), ("example3", 1.5615, 7)])
    def test_var_flags_against_dense_dominance(self, scenario_dir, name, least, flagged):
        """A var row is efficient exactly when no return at least as high has a
        lower a sigma(E) - E, with sigma(E) from Merton's hyperbola written on
        sigma^-1: (A E^2 - 2 B E + C)/(A C - B^2)."""
        path = scenario(scenario_dir, name)
        code, out = run_cli(["frontier", "--scenario", path, "--mode", "var", "--E-min", "0",
                             "--E-max", "5", "--steps", "11", "--format", "json"])
        assert code == 0
        raw = json.loads(pathlib.Path(path).read_text())
        mu, sigma, a = np.array(raw["mu"]), np.array(raw["sigma"]), raw["risk"]["a"]
        (A, B), (_, C) = np.vstack((np.ones_like(mu), mu)) @ np.linalg.solve(
            sigma, np.column_stack((np.ones_like(mu), mu)))
        risk = lambda E: a * np.sqrt((A * E * E - 2.0 * B * E + C) / (A * C - B * B)) - E
        grid = np.linspace(0.0, 50.0, 50_001)
        best = grid[np.argmin(risk(grid))]
        assert best == (grid[-1] if math.isinf(least) else pytest.approx(least, abs=1e-3))
        rows = json.loads(out)
        for row in rows:
            assert row["value"] == pytest.approx(risk(row["E"]), rel=1e-12, abs=1e-12)
            dominated = np.any(risk(grid[grid > row["E"]]) < row["value"] - 1e-9)
            assert row["efficient"] is not dominated, row
        assert sum(row["efficient"] for row in rows) == flagged

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
        assert set(record) == {"closed_form", "mc_estimate", "mc_std_error", "z_score",
                               "samples", "seed"}
        assert abs(record["z_score"]) < 4.0
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

    @pytest.mark.parametrize("name,argv", [("example1", ["describe"]),
                                           ("example2", ["describe"]),
                                           ("example3", ["describe"]),
                                           ("example1", ["solve", "--E", "2"])])
    def test_record_csv_reads_back_like_json(self, scenario_dir, name, argv):
        """A record's vector and matrix fields are quoted, so its CSV reads
        back as one row with the header's keys and the JSON record's values."""
        args = [*argv, "--scenario", scenario(scenario_dir, name)]
        code, csv_out = run_cli([*args, "--format", "csv"])
        json_code, json_out = run_cli([*args, "--format", "json"])
        record = json.loads(json_out)
        reader = csv.DictReader(io.StringIO(csv_out))
        rows = list(reader)
        assert code == json_code and len(rows) == 1
        assert reader.fieldnames == list(record) and None not in rows[0]
        arrays = [k for k in ("q", "Qhat", "mu_hat", "q_hat", "ray_base", "ray_direction")
                  if k in record]
        assert arrays
        for key in arrays:
            assert json.loads(rows[0][key]) == record[key]
        for key, value in record.items():
            if isinstance(value, str):
                assert rows[0][key] == value

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
    ("example2", ["validate", "--weights", "0.5,0.2,0.1"]),
    ("example2", ["validate", "--samples", "9999"]),
])
def test_bad_numbers_exit_two(scenario_dir, name, argv):
    """Non-finite targets and weights, a negative seed, too few samples and a
    descending return range are input errors: exit 2 with one error line,
    never a traceback."""
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


def test_band_half_width_flag_is_gone(scenario_dir):
    """``validate`` has no band half-width to set: the old ``--band-eps``
    flag is an unknown argument, exit 2 before any draw."""
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["validate", "--scenario", scenario(scenario_dir, "example2"),
              "--band-eps", "0.05"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --band-eps" in err.getvalue()


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


# An integer too large for a double; JSON carries it exactly.
_HUGE = 10 ** 400


@pytest.mark.parametrize("content,argv,part", [
    ({"mu": [1, _HUGE, 3]}, ["describe"], "mu[1]: an integer of 401 digits"),
    ({"mu": [1, 2, "x"]}, ["describe"], "mu[2]: expected a number, got 'x'"),
    ({"sigma": [[1, 1, 2], [1, _HUGE, 0], [2, 0, 16]]}, ["describe"], "sigma[1][1]:"),
    ({"risk": {"a": _HUGE, "b": 1.0}}, ["describe"], "risk.a:"),
    ({"risk": {"alpha": _HUGE, "beta": 0.1}}, ["describe"], "risk.alpha:"),
    ({"targets": {"E": _HUGE}}, ["solve"], "targets.E:"),
    ({"targets": {"E_min": _HUGE, "E_max": 3.0, "steps": 5}}, ["frontier"], "targets.E_min:"),
    ({"targets": {"E_min": 1.0, "E_max": 3.0, "steps": _HUGE}}, ["frontier"], "targets.steps:"),
    ({}, ["frontier", "--steps", str(_HUGE)], "--steps:"),
    (b'{"name": "\xe9"}', ["describe"], "cannot read scenario"),
    (b'{"mu": [1' + b"0" * 5000 + b"]}", ["describe"], "invalid JSON: Exceeds the limit"),
    (b"[" * 100_000 + b"]" * 100_000, ["describe"], "invalid JSON: maximum recursion"),
    ({}, ["frontier", "--E-min", "1", "--E-max", "2", "--steps", str(10 ** 20)],
     "frontier needs steps <="),
    ({}, ["validate", "--samples", str(10 ** 20)], "need at most"),
], ids=["mu", "mu-entry-name", "sigma", "risk.a", "risk.alpha", "targets.E",
        "targets.E_min", "targets.steps", "--steps", "not-utf8", "long-integer",
        "deep-nesting", "steps-bound", "samples-bound"])
def test_unreadable_number_or_file_exit_two(scenario_dir, tmp_path, content, argv, part):
    """A number too large for a double, a file that is not UTF-8, an integer
    literal too long to convert, nesting too deep to parse, and steps or
    samples above their bound are input errors: exit 2 with one error line.
    ``content`` is example 3 with these top-level fields replaced, or the
    whole file; ``part`` is a piece of the error line."""
    if isinstance(content, dict):
        raw = json.loads((scenario_dir / "example3.json").read_text())
        raw.update(content)
        content = json.dumps(raw).encode()
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli([argv[0], "--scenario", str(path), *argv[1:]])
    assert (code, out) == (2, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and part in lines[0], lines


def test_integral_float_scenario_steps(scenario_dir, tmp_path):
    def edit(raw):
        raw["targets"]["steps"] = 3.0

    code, out, _ = _run_edited(scenario_dir, tmp_path, "example3", edit,
                               ["frontier", "--format", "csv"])
    assert code == 0
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("flag", ["false", 0, 1, None])
def test_non_boolean_non_negative_exit_two(scenario_dir, tmp_path, flag):
    """constraints.non_negative must be a JSON boolean: the string "false"
    must not switch on the no-short-selling solve."""
    def edit(raw):
        raw["constraints"]["non_negative"] = flag

    code, out, err = _run_edited(scenario_dir, tmp_path, "example2", edit, ["constrained"])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: constraints.non_negative")


@pytest.mark.parametrize("absent", [False, True])
def test_non_negative_false_or_absent_needs_the_flag(scenario_dir, tmp_path, absent):
    def edit(raw):
        if absent:
            del raw["constraints"]["non_negative"]
        else:
            raw["constraints"]["non_negative"] = False

    code, out, err = _run_edited(scenario_dir, tmp_path, "example2", edit, ["constrained"])
    assert code == 2 and out == ""
    assert "requires constraints.non_negative" in err
    code, out, _ = _run_edited(scenario_dir, tmp_path, "example2", edit,
                               ["constrained", "--non-negative", "--format", "json"])
    assert code == 0 and json.loads(out)


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


# The input overflows on purpose; numpy's overflow warnings are not the
# subject here, the exit code is.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["describe"],
    ["solve", "--E", "1"],
    ["frontier", "--E-min", "1", "--E-max", "3", "--steps", "5"],
])
def test_overflowing_market_exit_three(scenario_dir, tmp_path, argv):
    """Returns whose differences overflow make the Gramian scalars infinite:
    a numeric failure (exit 3), not a diagnosed regime or a fallback label."""
    def edit(raw):
        raw["mu"] = [1e308, -1e308, 1]

    code, out, err = _run_edited(scenario_dir, tmp_path, "example2", edit,
                                 [*argv, "--format", "json"])
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    (["solve", "--E", "1e200"], "risk value inf or portfolio variance inf is not finite"),
    (["solve", "--E=-1e308"], "closed-form value inf is not finite"),
    (["frontier", "--E-min", "0", "--E-max", "1e308", "--steps", "3"],
     "closed-form value inf is not finite"),
    (["validate", "--weights", "1e200,-1e200,1", "--samples", "10000"],
     "risk value inf or portfolio variance inf is not finite"),
])
def test_overflowing_request_one_line(scenario_dir, argv, message):
    """A target or portfolio that overflows the closed form or the risk
    evaluation exits 3 with one stderr line naming the non-finite quantity,
    and no numpy warning reaches stderr."""
    env = dict(os.environ)
    src = str(scenario_dir.parents[0] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "covarsel", argv[0], "--scenario",
         scenario(scenario_dir, "example2"), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("mu,target", [([-5e39, -9.6], -3e8), ([-1e20, 1.0], -6.7e16)])
def test_constrained_badly_scaled_returns(tmp_path, mu, target):
    """Returns many orders of magnitude apart: the answer is a point of the
    slice (budget to 1e-10, return to 1e-10 max(1, |E|)) or exit 3, never a
    traceback or an infeasible point at exit 0."""
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps({
        "mu": mu, "sigma": [[8.65, 0.65], [0.65, 0.86]], "conditioning_asset": 2,
        "risk": {"a": 1, "b": 1}, "constraints": {"non_negative": True}}))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["constrained", "--scenario", str(path), f"--E={target!r}",
                             "--format", "json"])
    assert code in (0, 3)
    if code == 3:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
        return
    record = json.loads(out)
    w = np.array([record["w1"], record["w2"]])
    assert abs(w.sum() - 1.0) <= 1e-10
    assert abs(w @ np.array(mu) - target) <= 1e-10 * max(1.0, abs(target))


_SPECIAL = [0.0, 1e-300, 1e300, -1e300, 1e308, -1e308, math.inf, -math.inf, math.nan]


@st.composite
def _fuzz_case(draw):
    """A scenario (n = 2 to 5) and one CLI call on it.  Numbers are mostly
    moderate; now and then one is scaled by up to 1e40 or replaced by a huge,
    tiny or non-finite value, or a risk parameter by an integer too large for
    a double.  Some markets have a first covariance column
    forced into span(1, mu), which makes (1, mu, q) dependent."""
    def rare(p_in_8):
        return draw(st.integers(0, 7)) >= 8 - p_in_8

    def spoil(x, exact=False):
        """``exact`` marks a value written straight into the scenario file,
        which may also become an integer too large for a double."""
        if rare(2):
            x = x * 10.0 ** draw(st.integers(1, 40))
        if rare(1):
            x = _HUGE if exact and rare(1) else draw(st.sampled_from(_SPECIAL))
        return x if x is _HUGE else float(x)

    n = draw(st.integers(2, 5))
    with np.errstate(all="ignore"):
        mu = np.array([draw(st.floats(-10.0, 10.0)) for _ in range(n)])
        k = draw(st.integers(0, n - 1))
        mu[k] = spoil(mu[k])
        root = np.array([[draw(st.floats(-3.0, 3.0)) for _ in range(n)] for _ in range(n)])
        sigma = root @ root.T + draw(st.floats(0.01, 2.0)) * np.eye(n)
        cond = draw(st.integers(1, n))
        if rare(3):
            # Sigma = [[s^2, s q_r'], [s q_r, Qhat + q_r q_r']] with
            # q = c0 + c1 mu scaled to q_0 = s: positive definite with Qhat.
            q = draw(st.floats(-2.0, 2.0)) + draw(st.floats(-2.0, 2.0)) * mu
            s = draw(st.floats(0.1, 3.0))
            q = q * (s / q[0]) if q[0] != 0.0 else q
            sigma[0, 0] = s * s
            sigma[0, 1:] = sigma[1:, 0] = s * q[1:]
            sigma[1:, 1:] += np.outer(q[1:], q[1:])
            cond = 1
        if rare(1):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            sigma[i, j] = sigma[j, i] = spoil(sigma[i, j])
        lo, hi = float(np.min(mu)), float(np.max(mu))
        # A target inside or near [min mu, max mu], or a moderate one that
        # sits near a moderate return when another return is huge.
        e, e_lo, e_hi = sorted(
            spoil(lo + draw(st.floats(-0.2, 1.2)) * (hi - lo) if rare(4)
                  else draw(st.floats(-10.0, 10.0)))
            for _ in range(3))
    raw = {"mu": mu.tolist(), "sigma": sigma.tolist(), "conditioning_asset": cond,
           "risk": {"a": spoil(draw(st.floats(0.05, 3.0)), exact=True),
                    "b": spoil(draw(st.floats(0.05, 3.0)), exact=True)},
           "constraints": {"non_negative": draw(st.booleans())}}
    argv = draw(st.sampled_from([
        ["describe"],
        ["solve", f"--E={e!r}"],
        ["frontier", f"--E-min={e_lo!r}", f"--E-max={e_hi!r}",
         f"--steps={draw(st.integers(1, 9))}"],
        ["frontier", f"--E-min={e_lo!r}", f"--E-max={e_hi!r}", "--steps=5", "--mode=sigma"],
        ["constrained", "--non-negative", f"--E={e!r}"],
        ["constrained", "--non-negative", "--no-target"],
        ["validate", "--samples=10000", f"--seed={draw(st.integers(0, 9))}"],
    ]))
    return raw, argv


# Huge and non-finite inputs overflow on purpose; the contract under test is
# the exit code, which numpy's overflow warnings do not change.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_fuzz_case())
@example(case=({"mu": [-5e39, -9.6], "sigma": [[8.65, 0.65], [0.65, 0.86]],
                "conditioning_asset": 2, "risk": {"a": 1.0, "b": 1.0}},
               ["constrained", "--non-negative", "--E=-3e8"]))
def test_exit_code_contract_fuzz(tmp_path, case):
    """Every scenario ends in a documented exit code without an escaping
    exception, and exit 1 only reports a degenerate regime."""
    raw, argv = case
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli([argv[0], "--scenario", str(path), *argv[1:], "--format", "json"])
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert json.loads(out)["status"] in ("UnboundedBelow", "InfimumNotAttained")


def test_constrained_gradient_on_e1_ray(tmp_path):
    """A conditioning-asset return of -2.6e20 makes the active-set step land
    on the ray of e1, where x'Qx = 0 and the square-root term has no
    gradient.  The only feasible point is (1, 0); the solver returns it,
    without a RuntimeWarning from dividing by zero."""
    path = tmp_path / "ray.json"
    path.write_text(json.dumps({
        "mu": [-0.059613974391862584, -2.6081938409702303e+20],
        "sigma": [[2.0539900150164434, -0.8016307692645793],
                  [-0.8016307692645793, 0.9287550998394403]],
        "conditioning_asset": 2,
        "risk": {"a": 0.8735753155818098, "b": 1.2599885926162835},
        "constraints": {"non_negative": True},
        "targets": {"E": -0.059613974391862584}}))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        code, out = run_cli(["constrained", "--scenario", str(path), "--format", "json"])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 0, err.getvalue()
    record = json.loads(out)
    assert np.allclose([record["w1"], record["w2"]], [1.0, 0.0], rtol=0.0, atol=1e-10)


def test_constrained_huge_return_keeps_the_dual_test(tmp_path):
    """A return of 1e9 on the slice E = -0.377: the point (2.63e-10, 0,
    1 - 2.63e-10, 0) is feasible with value 1.377.  A linear term holding
    -mu put 1e9 into the dual test's scale, so the solver stopped at
    (4.2e-10, 0, 0, 1) with value 1.877 and exit 0."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "mu": [1e9, 0.35, -0.64, -0.8], "sigma": np.eye(4).tolist(),
        "conditioning_asset": 3, "risk": {"a": 1.0, "b": 1.5},
        "constraints": {"non_negative": True}}))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["constrained", "--scenario", str(path), "--non-negative",
                             "--E=-0.377", "--format", "json"])
    assert code == 0, err.getvalue()
    record = json.loads(out)
    assert record["value"] <= 1.377 + 1e-9
    assert record["kkt_min_dual"] is not None and 0.0 <= record["kkt_min_dual"] < math.inf


def _json_call(tmp_path, raw, command, *flags):
    """Exit code and JSON record of one call on the scenario ``raw``; a
    ``solve`` prints its record as a one-row list."""
    path = tmp_path / "two.json"
    path.write_text(json.dumps(raw))
    code, out = run_cli([command, "--scenario", str(path), *flags, "--format", "json"])
    record = json.loads(out)
    return code, record[0] if command == "solve" else record


@pytest.mark.parametrize("sigma, b, target, weights", [
    ([[1, 0.3], [0.3, 2]], 1e-9, 0.5, [0.5, 0.5]),
    ([[1, 0], [0, 1]], 1e-300, 0.0, [1.0, 0.0]),
], ids=["rounding-detG", "underflowing-b"])
def test_two_asset_small_b_is_unique(tmp_path, sigma, b, target, weights):
    """Two assets leave one feasible point per target, so every b > 0 has a
    minimizer.  detG, which is 0 there, once came out as rounding noise
    (2.8e-17 on the first market), which sent b = 1e-9 to UnboundedBelow
    with a zero ray; on the second, b^2 underflowed and the ray divided by
    detG = 0."""
    raw = {"mu": [0, 1], "sigma": sigma, "conditioning_asset": 1, "risk": {"a": 1, "b": b}}
    code, record = _json_call(tmp_path, raw, "solve", f"--E={target!r}")
    assert code == 0
    assert record["status"] == "MarkowitzFallback"
    assert [record["w1"], record["w2"]] == weights
    code, record = _json_call(tmp_path, raw, "describe")
    assert code == 0
    assert record["detG"] == 0.0 and record["status"] == "MarkowitzFallback"


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mu=st.tuples(st.floats(-10.0, 10.0), st.floats(0.1, 10.0)),
       root=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       ridge=st.floats(0.01, 2.0), cond=st.integers(1, 2), a=st.floats(0.05, 3.0),
       log_b=st.floats(-300.0, 3.0), t=st.floats(-0.5, 1.5))
def test_two_asset_solves_meet_both_constraints(tmp_path, mu, root, ridge, cond, a,
                                                log_b, t):
    """Any two-asset market and b from 1e-300 to 1e3: the solve exits 0 with
    no Delta <= 0 status, at the one point with weights summing to 1 and
    returning E."""
    mu = np.array([mu[0], mu[0] + mu[1]])
    mat = np.reshape(root, (2, 2))
    sigma = mat @ mat.T + ridge * np.eye(2)
    target = float(mu[0] + t * (mu[1] - mu[0]))
    raw = {"mu": mu.tolist(), "sigma": sigma.tolist(), "conditioning_asset": cond,
           "risk": {"a": a, "b": 10.0 ** log_b}}
    code, record = _json_call(tmp_path, raw, "solve", f"--E={target!r}")
    assert code == 0
    assert record["status"] not in ("UnboundedBelow", "InfimumNotAttained")
    want = np.linalg.solve(np.vstack([np.ones(2), mu]), [1.0, target])
    assert np.allclose([record["w1"], record["w2"]], want, rtol=1e-9, atol=1e-9)


def test_unexpected_exception_exit_three(scenario_dir, monkeypatch):
    """An exception covarsel does not raise on purpose still ends in exit 3
    with one error line, not a traceback."""
    def broken(problem):
        raise IndexError("index 0 is out of bounds for axis 0 with size 0")

    monkeypatch.setattr("covarsel.cli.minimize_constrained", broken)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["constrained", "--scenario", scenario(scenario_dir, "example2")],
                            unexpected_ok=True)
    assert code == 3
    assert out == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "IndexError" in lines[0]
    assert "Traceback" not in err.getvalue()
