"""Benchmark for covarsel: one workload per process, closed loop, one client.

    python3 bench/run.py --workload frontier-sweep --seed 1 --seconds 30 --trace 0

A run makes its inputs from --seed, attempts round(seconds / ROUND_SECONDS)
whole rounds of requests one after another, checks every answer after the
timed part, and prints one JSON object as the last line of standard output:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  The
round count depends on --seconds alone, never on the clock, so every run of a
workload attempts the same operations.  See README.md for the workloads.
"""

import os

# Fixed before numpy loads, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import probe  # noqa: E402
from fixtures import FIXTURES  # noqa: E402
from reference import Market  # noqa: E402
from tracer import CALL_METRICS, SELF_MS_METRICS, Tracer, dump_spans, layer_totals  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("frontier-sweep", "constrained-solve", "cli-session")
# Seconds one round takes on the machine described in README.md.
ROUND_SECONDS = {"frontier-sweep": 0.85, "constrained-solve": 2.0, "cli-session": 10.0}
SETUP_PROBES = 5
START_PROBES = 5
RUN_LIMIT_S = 170
TAIL_BEYOND = 10


class RunStopped(Exception):
    """Raised from a signal handler so that child processes and scratch files
    are cleaned up on the way out."""


def _on_signal(signum, frame):
    reason = f"exceeded {RUN_LIMIT_S} s" if signum == signal.SIGALRM else "terminated"
    raise RunStopped(f"run {reason}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, out_path, err_path):
    """Run a child to its end; returns (code, seconds, peak RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def time_setup(workload, run_dir) -> list[float]:
    """Seconds from spawning a fresh process to its warm-up finishing."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), "setup", workload,
                                 str(run_dir)], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.close()
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit {code}")
    return times


def time_start(args, run_dir) -> float:
    """Median milliseconds for ``python <args>`` to start and exit."""
    times = []
    for _ in range(START_PROBES):
        code, elapsed, _ = spawn([sys.executable, *args], run_dir / "probe.out",
                                 run_dir / "probe.err")
        if code != 0:
            raise RuntimeError(f"python {' '.join(args)} exited {code}")
        times.append(elapsed * 1e3)
    return statistics.median(times)


# ---- workloads ------------------------------------------------------------

def _validated(cs, m):
    vm = cs.validate_model(cs.MarketModel(mu=m.mu, sigma=m.sigma, conditioning_asset=m.y + 1,
                                          risk=cs.RiskParams(a=m.a, b=m.b)))
    return vm, cs.reduce_model(vm)


def frontier_op(cs, req):
    vm, r = _validated(cs, req.market)
    if req.E is None:
        return cs.frontier(vm, r, req.e_min, req.e_max, inputs.FRONTIER_STEPS)
    return cs.solve_critical(vm, r, req.E)


def constrained_op(cs, req):
    vm, r = _validated(cs, req.market)
    if req.grid:
        return cs.constrained_frontier(cs.ConstrainedProblem(model=vm, reduced=r), req.grid)
    return cs.minimize_constrained(cs.ConstrainedProblem(model=vm, reduced=r, E=req.E))


class InProcess:
    """frontier-sweep and constrained-solve: library calls in this process."""

    def __init__(self, requests, op, round_size):
        self.requests = requests
        self.op = op
        self.count = len(requests)
        self.round_size = round_size
        self.tracer = Tracer()

    def run(self, lo, hi, traced=False):
        """Operations lo..hi-1; returns (latencies in s, outputs, failed count)."""
        import covarsel as cs

        latencies, outputs, failed = [], [], 0
        if traced:
            self.tracer.install()
        try:
            for i in range(lo, hi):
                start = perf_counter()
                try:
                    if traced:
                        self.tracer.op = i
                        out = self.tracer.span("op", self.op, cs, self.requests[i])
                    else:
                        out = self.op(cs, self.requests[i])
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = exc
                    failed += 1
                latencies.append(perf_counter() - start)
                outputs.append(out)
        finally:
            if traced:
                self.tracer.uninstall()
        return latencies, outputs, failed

    def peak_rss_mb(self, _outputs):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def spans(self):
        return [self.tracer.spans], self.tracer.counters()


class CliSession:
    """cli-session: one ``python -m covarsel`` process per operation."""

    def __init__(self, scenarios, calls, rounds, run_dir):
        self.scenarios = scenarios
        self.paths = {name: str(run_dir / f"{name}.json") for name in scenarios}
        self.calls = calls * rounds
        self.count = len(self.calls)
        self.round_size = len(calls)
        self.run_dir = run_dir
        self.spans_dir = run_dir / "spans"

    def argv(self, call):
        return [call.argv[0], "--scenario", self.paths[call.scenario], *call.argv[1:]]

    def run(self, lo, hi, traced=False):
        """Calls lo..hi-1; a traced call runs in ``probe.py cli`` with the tracer."""
        latencies, outputs, failed = [], [], 0
        out_path, err_path = self.run_dir / "call.out", self.run_dir / "call.err"
        self.spans_dir.mkdir(exist_ok=True)
        for i in range(lo, hi):
            call = self.calls[i]
            if traced:
                prefix = [sys.executable, str(BENCH / "probe.py"), "cli",
                          str(self.spans_dir / f"{i}.json")]
            else:
                prefix = [sys.executable, "-m", "covarsel"]
            code, elapsed, rss = spawn([*prefix, *self.argv(call)], out_path, err_path)
            stdout = out_path.read_text(encoding="utf-8")
            stderr = err_path.read_text(encoding="utf-8")
            if call.known_fault:
                crashed = not checks.known_fault_fixed(call.argv, code, stdout, stderr)
            else:
                crashed = "Traceback" in stderr or code not in (0, 1, 2, 3)
            failed += crashed
            latencies.append(elapsed)
            outputs.append((code, stdout, stderr, rss, crashed))
        return latencies, outputs, failed

    def peak_rss_mb(self, outputs):
        return max(out[3] for out in outputs)

    def spans(self):
        span_lists, counters = [], {}
        for i in range(len(self.calls)):
            with open(self.spans_dir / f"{i}.json", encoding="utf-8") as fh:
                data = json.load(fh)
            span_lists.append([(name, s, e, p, i) for name, s, e, p, _ in data["spans"]])
            for key, value in data["counters"].items():
                counters[key] = counters.get(key, 0) + value
        return span_lists, counters


# ---- checks ---------------------------------------------------------------

def check_frontier_sweep(requests, outputs, errors):
    for i, (req, out) in enumerate(zip(requests, outputs)):
        if isinstance(out, Exception):
            continue
        m, label = req.market, f"request {i} (n={req.market.n})"
        if req.E is None:
            checks.check_delta_sign(m, 1, errors, label)
            grid = np.linspace(req.e_min, req.e_max, inputs.FRONTIER_STEPS)
            if any(p.status != "Unique" for p in out):
                errors.append(f"{label}: a frontier point is not Unique")
                continue
            checks.check_frontier(m, grid, [p.E for p in out], [p.weights for p in out],
                                  [p.value for p in out], errors, label)
        else:
            checks.check_delta_sign(m, -1, errors, label)
            if out.status.value != "UnboundedBelow" or out.x is not None:
                errors.append(f"{label}: status {out.status.value!r} for a Delta < 0 market")
                continue
            checks.check_ray(m, req.E, out.ray_base, out.ray_direction, errors, label)


def check_constrained_solve(requests, outputs, errors):
    for i, (req, out) in enumerate(zip(requests, outputs)):
        if isinstance(out, Exception):
            continue
        m, label = req.market, f"request {i} (n={req.market.n})"
        if req.grid:
            if [p.E for p in out] != list(req.grid):
                errors.append(f"{label}: constrained frontier rows out of grid order")
                continue
            for p in out:
                checks.check_constrained(m, p.E, p.weights, p.value, errors, f"{label} E={p.E!r}")
            checks.check_convex(req.grid, [p.value for p in out], errors, label)
        else:
            checks.check_constrained(m, req.E, out.x, out.value, errors, label)


def check_cli_session(session, outputs, errors):
    for i, (call, (code, stdout, stderr, _, crashed)) in enumerate(zip(session.calls, outputs)):
        if crashed or call.known_fault:
            continue
        raw = session.scenarios[call.scenario]
        label = f"call {i} ({' '.join(session.argv(call))})"
        try:
            checks.check_cli_call(Market.from_scenario(raw), raw, call.argv, code, stdout,
                                  errors, label)
        except (ValueError, KeyError) as exc:
            errors.append(f"{label}: unreadable output: {exc!r}")


# ---- metrics --------------------------------------------------------------

def tail_rank(count: int) -> int:
    """0-based rank of the highest percentile with TAIL_BEYOND operations above it."""
    return max(0, count - TAIL_BEYOND - 1)


def slot_rate(latencies, round_size) -> float:
    """Operations per second with each slot of a round at its median time.

    Every round runs the same kinds of request in the same order, so slot j
    is comparable across rounds.  Load from other processes on the machine
    comes and goes within a run, and the median keeps it out of the figure as
    it does for the latency percentiles.
    """
    slots = [latencies[j::round_size] for j in range(round_size)]
    return round_size / sum(statistics.median(s) for s in slots)


def end_to_end(latencies, round_size, peak_rss, setup_s) -> dict:
    ordered = sorted(latencies)
    return {
        "ops_per_s": (slot_rate(latencies, round_size), "1/s"),
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "latency_tail_ms": (ordered[tail_rank(len(ordered))] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(span_lists, counters, cli_ms, untraced, traced, round_size) -> dict:
    """Per-layer metrics; ``untraced`` and ``traced`` are the two passes' latencies."""
    calls, self_ms, durations = layer_totals(span_lists)
    metrics = {f"{name}.calls": (calls[name], "count") for name in CALL_METRICS}
    metrics.update({f"{name}.self_ms": (self_ms[name], "ms") for name in SELF_MS_METRICS})
    metrics.update({f"constrained.{key}": (value, "count") for key, value in counters.items()})
    main_ms = durations.get("cli.main")
    metrics["cli.interpreter_ms"] = (cli_ms["interpreter"], "ms")
    metrics["cli.import_ms"] = (cli_ms["import"], "ms")
    metrics["cli.main_ms"] = (statistics.median(main_ms) if main_ms else 0.0, "ms")
    metrics["cli.process_ms"] = (cli_ms.get("process", 0.0), "ms")
    traced_rate = slot_rate(traced, round_size)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / slot_rate(untraced, round_size)),
                                     "%")
    return metrics


# ---- main -----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "covarsel" / "__init__.py").is_file():
        print(f"error: covarsel sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(RUN_LIMIT_S)
    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return run(args, run_dir)
    except RunStopped as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir) -> int:
    rng = np.random.default_rng(args.seed)
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    if args.workload == "cli-session":
        scenarios, calls = inputs.cli_session(rng, args.seed)
        workload = CliSession(scenarios, calls, rounds, run_dir)
    else:
        scenarios = FIXTURES
        if args.workload == "frontier-sweep":
            requests = inputs.frontier_sweep(rng, rounds)
            workload = InProcess(requests, frontier_op, len(requests) // rounds)
        else:
            requests = inputs.constrained_solve(rng, rounds)
            workload = InProcess(requests, constrained_op, len(requests) // rounds)
    for name, raw in scenarios.items():
        (run_dir / f"{name}.json").write_text(json.dumps(raw), encoding="utf-8")

    # Set-up is timed before and after the timed pass, so that its median
    # samples the machine's load across the run.
    setup_times = [] if args.trace else time_setup(args.workload, run_dir)
    sys.path.insert(0, str(SRC))
    probe.warm_up(args.workload, str(run_dir))
    # With --trace 1 every round runs both untraced and traced, so that load
    # on the machine that drifts during the run hits both passes alike.  The
    # second run of a round finds its inputs in cache, so the order alternates.
    count = workload.count
    step = workload.round_size if args.trace else count
    latencies, outputs, failed, traced_latencies = [], [], 0, []
    for k, lo in enumerate(range(0, count, step)):
        if args.trace and k % 2:
            traced_latencies += workload.run(lo, lo + step, traced=True)[0]
        lat, out, fail = workload.run(lo, lo + step)
        latencies += lat
        outputs += out
        failed += fail
        if args.trace and not k % 2:
            traced_latencies += workload.run(lo, lo + step, traced=True)[0]
    peak_rss = workload.peak_rss_mb(outputs)

    if args.trace:
        span_lists, counters = workload.spans()
        cli_ms = {"interpreter": time_start(["-c", "pass"], run_dir),
                  "import": time_start(["-c", "import covarsel"], run_dir)}
        if args.workload == "cli-session":
            cli_ms["process"] = statistics.median(latencies) * 1e3
        metrics = per_layer(span_lists, counters, cli_ms, latencies, traced_latencies,
                            workload.round_size)
        dump_spans(span_lists, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        setup_times += time_setup(args.workload, run_dir)
        metrics = end_to_end(latencies, workload.round_size, peak_rss,
                             statistics.median(setup_times))

    errors = []
    if args.workload == "frontier-sweep":
        check_frontier_sweep(requests, outputs, errors)
    elif args.workload == "constrained-solve":
        check_constrained_solve(requests, outputs, errors)
    else:
        check_cli_session(workload, outputs, errors)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} rounds={rounds} ops={count} failed={failed} "
          f"tail=p{100.0 * (count - TAIL_BEYOND) / count:.1f} blas_threads={BLAS_THREADS} "
          f"busy={sum(latencies):.2f}s")
    print(json.dumps({"correct": not errors, "attempted": count, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
