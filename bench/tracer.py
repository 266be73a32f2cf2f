"""Span tracing around covarsel's layer boundaries, installed from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
every covarsel module namespace that holds it, so calls between layers go
through the wrapper too.  Each call becomes one span: name, start, end, the
index of its parent span and the operation it belongs to.  Spans stay in
memory; ``dump_spans`` writes them out once the run is over.  Self time is a span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs; the span and metric name is "<module>.<function>".
TRACED = (
    ("linalg", "cholesky_spd"),
    ("linalg", "solve_cholesky"),
    ("model", "validate_model"),
    ("reduction", "reduce_model"),
    ("closedform", "solve_critical"),
    ("closedform", "frontier"),
    ("riskmeasures", "covar_portfolio"),
    ("constrained", "minimize_constrained"),
    ("constrained", "constrained_frontier"),
    ("constrained", "project_simplex"),
    ("oracle", "mc_covar"),
    ("cli", "main"),
)
CALL_METRICS = (
    "linalg.cholesky_spd", "linalg.solve_cholesky", "model.validate_model",
    "reduction.reduce_model", "closedform.solve_critical", "riskmeasures.covar_portfolio",
    "constrained.minimize_constrained", "constrained.project_simplex", "oracle.mc_covar",
)
SELF_MS_METRICS = (
    "linalg.cholesky_spd", "linalg.solve_cholesky", "model.validate_model",
    "reduction.reduce_model", "closedform.solve_critical", "closedform.frontier",
    "riskmeasures.covar_portfolio", "constrained.minimize_constrained", "oracle.mc_covar",
)
# The smoothing stage's per-stage iteration budget in covarsel.constrained; a
# solve reporting at least this many iterations ran into it.
BUDGET_ITERATIONS = 10_000


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.pgd_iterations = 0
        self.budget_hit_solves = 0
        self.lstsq_calls = 0
        self._stack: list[int] = []
        self._constrained_depth = 0
        self._restore: list = []

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; used for the operation root."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        constrained = name == "constrained.minimize_constrained"

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            if constrained:
                self._constrained_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if constrained:
                    self._constrained_depth -= 1
                self.spans[idx] = (name, start, end, parent, self.op)
            if constrained:
                self.pgd_iterations += result.iterations
                self.budget_hit_solves += result.iterations >= BUDGET_ITERATIONS
            return result

        return traced

    def install(self):
        """Wrap the traced functions wherever covarsel's modules refer to them."""
        import numpy as np

        for mod_name, _ in TRACED:
            importlib.import_module(f"covarsel.{mod_name}")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "covarsel" or name.startswith("covarsel."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"covarsel.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        lstsq = np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            if self._constrained_depth:
                self.lstsq_calls += 1
            return lstsq(*args, **kwargs)

        self._restore.append((np.linalg, "lstsq", lstsq))
        np.linalg.lstsq = counted_lstsq

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def counters(self) -> dict:
        return {"pgd_iterations": self.pgd_iterations,
                "budget_hit_solves": self.budget_hit_solves,
                "lstsq_calls": self.lstsq_calls}


def dump_spans(span_lists, path):
    """Write spans as JSON lines; ``process`` numbers the list a span came from."""
    with open(path, "w", encoding="utf-8") as fh:
        for process, spans in enumerate(span_lists):
            for name, start, end, parent, op in spans:
                fh.write(json.dumps({"process": process, "op": op, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")


def layer_totals(span_lists) -> tuple[dict, dict, dict]:
    """Per span name: call count, total self time in ms, and the durations (ms).

    ``span_lists`` holds one list of spans per process; parent indices refer
    to positions within the same list.
    """
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    durations = defaultdict(list)
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_ms[name] += (end - start - child[i]) * 1e3
            durations[name].append((end - start) * 1e3)
    return calls, self_ms, durations
