"""Rules on the package source that no runtime test can see.

Every tolerance of the package is a named module constant, so no function
body outside the reference oracle holds a small float literal.  Every
function the bench tracer wraps exists under its traced name.  Frontier
rows are built only by the ``Frontier`` record, on demand.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "covarsel"
TRACER = ROOT / "bench" / "tracer.py"
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
