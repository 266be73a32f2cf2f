"""Child processes started by run.py.

    python bench/probe.py setup <workload> <scenario-dir>
        Import covarsel, finish one warm-up operation of the workload on a
        paper fixture, then print "ready".  The parent times spawn to "ready".

    python bench/probe.py cli <spans-path> <covarsel argv...>
        Run ``covarsel.cli.main`` on the argv with the layer tracer installed,
        write the spans and counters to <spans-path>, exit with main's code.

Only the standard library and covarsel are imported before the timed work,
so the set-up time includes covarsel's own imports and nothing else.
"""

import contextlib
import io
import json
import os
import sys


def _model(cs, raw):
    market = cs.MarketModel(mu=raw["mu"], sigma=raw["sigma"],
                            conditioning_asset=raw["conditioning_asset"],
                            risk=cs.RiskParams(a=raw["risk"]["a"], b=raw["risk"]["b"]))
    m = cs.validate_model(market)
    return m, cs.reduce_model(m)


def warm_up(workload, scenario_dir):
    """One operation of the workload on a paper fixture, also run by run.py
    before its timed pass."""
    from fixtures import EXAMPLE1, EXAMPLE3

    if workload == "cli-session":
        import covarsel.cli

        with contextlib.redirect_stdout(io.StringIO()):
            covarsel.cli.main(["describe", "--scenario",
                               os.path.join(scenario_dir, "example3.json"), "--format", "json"])
    elif workload == "frontier-sweep":
        import covarsel as cs

        m, r = _model(cs, EXAMPLE3)
        cs.frontier(m, r, 1.0, 3.0, 101)
    elif workload == "constrained-solve":
        import covarsel as cs

        m, r = _model(cs, EXAMPLE1)
        cs.minimize_constrained(cs.ConstrainedProblem(model=m, reduced=r, E=2.0))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def traced_cli(spans_path, argv):
    import covarsel.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = covarsel.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters()}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        warm_up(sys.argv[2], sys.argv[3])
        print("ready", flush=True)
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        raise SystemExit(f"unknown probe {sys.argv[1]!r}")
