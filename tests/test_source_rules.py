"""Rules on the package source that no runtime test can see.

Every tolerance of the package is a named module constant, so no function
body outside the reference oracle holds a small float literal.  Every
function the bench tracer wraps exists under its traced name.  Frontier
rows are built only by the ``Frontier`` record, on demand, and a closed-form
frontier request forms no k x n weight array: only the record's reader and
the one-row solves call ``closedform._rows``.  The CLI reads
every number it takes in through one function, ``cli._number``.  Only the
reduction solves on the Cholesky factor: every closed form is built from its
two solves.  One conditional law, read off the Cholesky factor, checks the
reduced form and feeds the Monte-Carlo oracle.
Every function the package exports has a caller in the package, its scripts
or its bench, bar a short list kept for callers outside them.
"""

import ast
import importlib
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "covarsel"
TRACER = ROOT / "bench" / "tracer.py"
CALLER_DIRS = (SRC, ROOT / "scripts", ROOT / "bench")
# Below this magnitude a float literal reads as a tolerance.
TOLERANCE_SIZE = 1e-3


def _small_literals(tree: ast.AST) -> set[tuple[int, float]]:
    """(line, value) of every float literal 0 < |v| < TOLERANCE_SIZE inside a
    function or lambda, its default arguments included."""
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(func):
                if isinstance(node, ast.Constant) and isinstance(node.value, float) \
                        and 0.0 < abs(node.value) < TOLERANCE_SIZE:
                    found.add((node.lineno, node.value))
    return found


def test_rule_flags_function_literals_only():
    tree = ast.parse("TOL = 1e-9\n"
                     "def f(x, eps=2e-8):\n"
                     "    g = lambda y: y < -3e-12\n"
                     "    return x < 1e-10 and x > 0.5 and x != 0.0\n")
    assert _small_literals(tree) == {(2, 2e-8), (3, 3e-12), (4, 1e-10)}


def test_no_tolerance_literal_in_function_bodies():
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "oracle.py")
    assert len(paths) > 5
    found = [f"{p.name}:{line}: {value!r}" for p in paths
             for line, value in sorted(_small_literals(ast.parse(p.read_text())))]
    assert not found, "name these tolerances as module constants: " + ", ".join(found)


def _traced_pairs() -> tuple:
    """``TRACED`` of the bench tracer, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TRACED")


def test_traced_functions_exist():
    pairs = _traced_pairs()
    assert len(pairs) > 5
    missing = [f"{module}.{name}" for module, name in pairs
               if not callable(getattr(importlib.import_module(f"covarsel.{module}"), name, None))]
    assert not missing, "the bench tracer wraps functions that are gone: " + ", ".join(missing)


def _row_builders(tree: ast.AST) -> set[str]:
    """Names of the functions outside class ``Frontier`` that call
    ``FrontierPoint(...)`` or use ``FrontierPoint._make``."""
    found = set()

    def visit(node, func):
        if isinstance(node, ast.ClassDef) and node.name == "Frontier":
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        builds = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "FrontierPoint") or \
                 (isinstance(node, ast.Attribute) and node.attr == "_make"
                  and isinstance(node.value, ast.Name) and node.value.id == "FrontierPoint")
        if builds:
            found.add(func or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_row_rule_flags_builders_outside_the_record():
    tree = ast.parse("class Frontier:\n"
                     "    def __iter__(self):\n"
                     "        return map(FrontierPoint._make, self.rows)\n"
                     "    def __getitem__(self, i):\n"
                     "        return FrontierPoint(*self.rows[i])\n"
                     "def frontier():\n"
                     "    return list(map(FrontierPoint._make, rows))\n"
                     "def cmd_solve():\n"
                     "    point = FrontierPoint(E=1.0, value=0.0, weights=w, efficient=True,\n"
                     "                          status='Unique')\n"
                     "def reader(p: FrontierPoint):\n"
                     "    return p.E\n")
    assert _row_builders(tree) == {"frontier", "cmd_solve"}


def test_frontier_rows_built_only_by_the_record():
    found = sorted(f"{p.name}:{name}" for p in SRC.glob("*.py")
                   for name in _row_builders(ast.parse(p.read_text())))
    assert not found, "return a closedform.Frontier record instead of rows: " + ", ".join(found)


def _number_checks(tree: ast.AST) -> set[str]:
    """Names of the functions other than ``_number`` that call
    ``isinstance(..., (int, float))``."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2 \
                and isinstance(node.args[1], ast.Tuple) \
                and {"int", "float"} <= {e.id for e in node.args[1].elts
                                         if isinstance(e, ast.Name)} \
                and func != "_number":
            found.add(func or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_number_rule_flags_checks_outside_the_reader():
    tree = ast.parse("def _number(value, name):\n"
                     "    if not isinstance(value, (int, float)):\n"
                     "        raise ValueError(name)\n"
                     "def _steps(v):\n"
                     "    return isinstance(v, (float, int, str)) and not isinstance(v, bool)\n"
                     "def _fmt(x):\n"
                     "    return isinstance(x, float) or isinstance(x, (np.floating, np.integer))\n"
                     "OK = isinstance(1, (int, float))\n")
    assert _number_checks(tree) == {"_steps", "<module>"}


def test_cli_reads_numbers_only_in_number():
    found = sorted(_number_checks(ast.parse((SRC / "cli.py").read_text())))
    assert not found, "read CLI numbers with cli._number: " + ", ".join(found)


# The modules that may name ``linalg.solve_cholesky``: its definition and the
# reduction, whose two solves every closed-form portfolio is built from.
SOLVERS = {"linalg.py", "reduction.py"}


def _name_lines(tree: ast.AST, name: str) -> set[int]:
    """Lines where ``name`` is used, imported or read as an attribute."""
    return {node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)}


def test_solve_rule_flags_imports_names_and_attributes():
    tree = ast.parse("from .linalg import solve_cholesky as solve\n"
                     "from . import linalg\n"
                     "x = linalg.solve_cholesky(low, rhs)\n"
                     "def f(low):\n"
                     "    return solve(low, rhs)  # not solve_cholesky\n"
                     "solve_cholesky = None\n")
    assert _name_lines(tree, "solve_cholesky") == {1, 3, 6}


def test_only_the_reduction_solves_on_the_factor():
    paths = sorted(p for p in SRC.glob("*.py") if p.name not in SOLVERS)
    assert len(paths) > 5
    found = [f"{p.name}:{line}" for p in paths
             for line in sorted(_name_lines(ast.parse(p.read_text()), "solve_cholesky"))]
    assert not found, "build closed forms from reduce_model's two solves: " + ", ".join(found)


# What in ``closedform.py`` may form weight rows with ``_rows``: the
# ``Frontier`` record when its weights are read, and the solves that return
# rows.  A frontier request keeps coefficients and checks them on the basis.
ROW_FORMERS = {"Frontier", "solve_critical", "_ray", "markowitz_frontier"}


def _users(tree: ast.Module, name: str) -> set[str]:
    """Names of the top-level functions and classes where ``_name_lines``
    finds ``name``, and "<module>" for any other top-level statement."""
    return {getattr(top, "name", "<module>") for top in tree.body if _name_lines(top, name)}


def test_rows_rule_flags_users_outside_the_readers():
    tree = ast.parse("from .closedform import _rows\n"
                     "def _rows(coeffs, basis):\n"
                     "    return coeffs @ basis\n"
                     "class Frontier:\n"
                     "    @property\n"
                     "    def weights(self):\n"
                     "        return _rows(self.coeffs, self.basis)\n"
                     "def solve_critical(c, b):\n"
                     "    return _rows(c, b)[0]\n"
                     "def _recheck(c, b):\n"
                     "    x = _rows(c, b)\n"
                     "def frontier(cs, bs):\n"
                     "    return list(map(_rows, cs, bs))\n"
                     "def reader(cf, c, b):\n"
                     "    return cf._rows(c, b)\n"
                     "def checker(rows):\n"
                     "    return rows  # not _rows\n")
    assert _users(tree, "_rows") == {"<module>", "Frontier", "solve_critical", "_recheck",
                                     "frontier", "reader"}


def test_frontier_requests_form_no_weight_rows():
    users = _users(ast.parse((SRC / "closedform.py").read_text()), "_rows")
    found = sorted(users - ROW_FORMERS)
    assert not found, "check and keep coefficients on the basis, not rows: " + ", ".join(found)
    assert "Frontier" in users


# What ``riskmeasures._pair_law`` may read off its model.  The conditional law
# comes from the Cholesky factor, never from the reduction it checks.
PAIR_READS = {"chol", "mu", "risk"}
# Who must read the law: the risk check and the Monte-Carlo oracle.
PAIR_CALLERS = {("riskmeasures.py", "_covar_rows"), ("oracle.py", "mc_covar")}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _pair_faults(func: ast.FunctionDef) -> set[str]:
    """Every ``ReducedModel`` named in ``func``, every attribute it reads off
    its first parameter other than ``PAIR_READS``, and "no <model>.chol" when
    it reads no Cholesky factor."""
    model = func.args.args[0].arg
    reads = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == model}
    found = {f"{model}.{attr}" for attr in reads - PAIR_READS}
    found |= {"ReducedModel" for node in ast.walk(func)
              if isinstance(node, ast.Name) and node.id == "ReducedModel"}
    if "chol" not in reads:
        found.add(f"no {model}.chol")
    return found


def _law_definitions(tree: ast.Module) -> list[str]:
    """Names of the functions defined anywhere in ``tree`` that are called
    ``_stress_law`` or ``_pair_law``."""
    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name in ("_stress_law", "_pair_law"))


def test_pair_rule_flags_the_law_and_a_missing_factor():
    tree = ast.parse("def law(m, coeffs, basis, r: ReducedModel):\n"
                     "    y = m.mu1 - m.risk.a * m.sigma1\n"
                     "    return coeffs @ (basis @ m.mu) + y + basis @ m.sigma[:, 0] + r.q\n"
                     "def pair(m, coeffs, basis):\n"
                     "    load = basis @ m.chol\n"
                     "    def _pair_law(xi):\n"
                     "        return xi\n"
                     "    return coeffs @ (basis @ m.mu) - m.risk.a * coeffs @ load[:, 0]\n"
                     "def _stress_law(m):\n"
                     "    return m.mu\n")
    law, pair, _ = tree.body
    assert _pair_faults(law) == {"ReducedModel", "m.mu1", "m.sigma1", "m.sigma", "no m.chol"}
    assert _pair_faults(pair) == set()
    assert _law_definitions(tree) == ["_pair_law", "_stress_law"]


def test_pair_law_reads_the_factor_not_the_law():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    found = sorted(_pair_faults(_function(trees["riskmeasures.py"], "_pair_law")))
    assert not found, "read the conditional law off m.chol: " + ", ".join(found)
    laws = sorted(f"{name}:{law}" for name, tree in trees.items()
                  for law in _law_definitions(tree))
    assert laws == ["riskmeasures.py:_pair_law"], "keep one conditional law: " + ", ".join(laws)
    for name, caller in sorted(PAIR_CALLERS):
        assert "_pair_law" in _called_names(_function(trees[name], caller)), \
            f"{caller} must read the law from _pair_law"


# Exported functions that need no caller in ``src/``, ``scripts/`` or
# ``bench/``, each with its reason.
UNCALLED_EXPORTS = {
    "lemma_minimize": "the scalar lemma of acceptance criterion 7; it stays public until "
                      "the closed form is routed through it or it moves to the tests",
    "kkt_certificate": "lets a caller check a constrained answer it holds",
    "grid_minimize": "the brute-force grid oracle that the package ships beside the "
                     "Monte-Carlo one",
    "project_simplex": "the bench tracer wraps it by name and counts its calls; it goes "
                       "together with that counter",
}


def _called_names(tree: ast.AST) -> set[str]:
    """Names called as ``name(...)`` or ``obj.name(...)``."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_call_rule_reads_plain_and_attribute_calls():
    tree = ast.parse("from x import f, g\n"
                     "def h():\n"
                     "    return f(1) + mod.k(2)\n"
                     "g\n"
                     "obj.attr\n")
    assert _called_names(tree) == {"f", "k"}


def test_every_exported_function_has_a_caller():
    package = importlib.import_module("covarsel")
    exported = {name for name, value in vars(package).items()
                if not name.startswith("_") and inspect.isfunction(value)}
    assert set(UNCALLED_EXPORTS) <= exported
    called = set()
    for path in (p for folder in CALLER_DIRS for p in folder.glob("*.py")
                 if not p.name.startswith("test_")):
        called |= _called_names(ast.parse(path.read_text()))
    found = sorted(exported - called - set(UNCALLED_EXPORTS))
    assert not found, "exported functions with no caller in src/, scripts/ or bench/: " \
        + ", ".join(found)
