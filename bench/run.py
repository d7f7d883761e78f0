"""The cdindex benchmark: one workload, one client, a closed loop.

    python3 bench/run.py --workload flag --seed 1 --seconds 20 --trace 0

runs the seeded requests of one workload (flag, toric, subdiv or cli)
against the library in ``src/`` of this checkout for the given time, checks
every output against ``bench/golden.json``, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are its per-layer ones, from a separate traced run
(see ``tracing.py``).  The line before it is a report: seed, why the
workload exists, input sizes, the tail percentile and the sample count.

    python3 bench/run.py --steady --workload all --seconds 20

runs each workload ten times, each run in its own process with its own
seed (1 to 10), and prints the median and quartiles of every end-to-end
metric.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
MODULES = ("poset", "ncpoly", "flagcd", "toric", "subdivision", "complexes",
           "cli")
WORKLOADS = ("flag", "toric", "subdiv", "cli")
SETUP_REPEATS = 7           # setup_s is the median of this many set-ups
TRACED_REQUESTS = 30        # at least this many requests in a traced run
STEADY_RUNS = 10            # runs per workload in steadiness mode
# A run fails its self-check if, during the timed loop, other threads of
# the process or its child processes use more CPU than this share of the
# main thread's: the reference loop below shares the main thread, so it
# cannot see a slowdown that such work causes.
OTHER_CPU_SHARE = 0.05
CLI_TIMEOUT_S = 120
# Calibration.  The shared 2-core host the benchmark was tuned on swings
# between CPU speeds about 1.8x apart, for seconds to minutes at a time,
# whatever the program does.  So every timed request and set-up is
# bracketed by a fixed reference loop.  Its slowness is the mean of the
# two reference times over REFERENCE_S, about the loop's time on that host
# at the slower of the two speeds, and its wall time is divided by
# slowness ** CALIBRATION_EXPONENT.  The library's time follows the tight
# reference loop less than in proportion: over all four workloads and the
# set-up, the spread of one request's calibrated time on that host was
# least for exponents of 0.6 to 0.75, and a quarter larger at 1.
REFERENCE_S = 0.003
CALIBRATION_EXPONENT = 0.7


class BenchError(Exception):
    """The benchmark cannot run here (no sources, wrong package...)."""


# -- set-up ------------------------------------------------------------------


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "cdindex", "__init__.py")):
        raise BenchError("no cdindex package under %s" % SRC)


def import_fresh():
    """Import the package from this checkout's src/, dropping any earlier
    import so that every set-up pays for it, and no cache of the library
    outlives it."""
    for name in [n for n in sys.modules
                 if n == "cdindex" or n.startswith("cdindex.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("cdindex")
    if os.path.dirname(os.path.abspath(package.__file__)) != \
            os.path.join(SRC, "cdindex"):
        raise BenchError("cdindex imported from %s, not from %s"
                         % (package.__file__, SRC))
    lib = types.SimpleNamespace(package=package)
    for name in MODULES:
        setattr(lib, name, importlib.import_module("cdindex." + name))
    return lib


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def set_up(name, seed, workdir):
    lib = import_fresh()
    golden = load_golden()
    cycle = workloads.draw_cycle(name, lib, seed, workdir)
    return lib, golden, cycle


# -- one request ----------------------------------------------------------------


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_cli_child(req, env):
    proc = subprocess.run([sys.executable, "-m", "cdindex.cli"] + req.argv,
                          cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=CLI_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def run_cli_inprocess(lib, req):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.run(list(req.argv))
    return code, out.getvalue().encode()


class Runner:
    """Sends requests and checks them; counts failures."""

    def __init__(self, lib, golden, in_process_cli=False):
        self.lib = lib
        self.golden = golden
        self.in_process_cli = in_process_cli
        self.env = cli_env()
        self.failures = []
        self.output_bytes = 0
        self.nonzero_exits = 0

    def send(self, req):
        """Run and check one request; return (ok, seconds in the call)."""
        t0 = time.perf_counter()
        try:
            if req.op == "cli":
                if self.in_process_cli:
                    result = run_cli_inprocess(self.lib, req)
                else:
                    result = run_cli_child(req, self.env)
            else:
                result = workloads.execute(self.lib, req)
        except Exception as exc:    # any exception is a failed request
            dt = time.perf_counter() - t0
            self.failures.append((req.key, "%s: %s" % (type(exc).__name__,
                                                      exc)))
            return False, dt
        dt = time.perf_counter() - t0
        if req.op == "cli":
            code, stdout = result
            got = workloads.cli_digest(code, stdout)
            self.output_bytes += len(stdout)
            if code != 0 and code == req.expect_code:
                self.nonzero_exits += 1
            if code != req.expect_code:
                self.failures.append((req.key, "exit code %d" % code))
                return False, dt
        else:
            got = workloads.request_digest(req, result)
        if got != self.golden.get(req.key):
            self.failures.append((req.key, "output digest %s" % got))
            return False, dt
        return True, dt


# -- measurement ------------------------------------------------------------------


def tail_rank(p, n):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def min_cycles(name, cycle_len):
    """Cycles a run always sends, so that the workload's tail percentile
    has at least ten samples beyond it."""
    p, n = workloads.TAIL_PERCENTILE[name], cycle_len
    cycles = 1
    while cycles * n - tail_rank(p, cycles * n) < 10:
        cycles += 1
    return cycles


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def reference_loop():
    """Time a fixed pure-Python loop of dict, integer and bit operations,
    like the library's own; it never calls the library."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(6000):
        m = i * 2654435761 & 0xFFFF
        acc[m & 1023] = acc.get(m & 1023, 0) + (m >> 3).bit_count()
    return time.perf_counter() - t0


def live_children_cpu_s():
    """CPU seconds of this process's live child processes, from /proc."""
    if not os.path.isdir("/proc/self/task"):
        return 0.0
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        try:
            with open("/proc/self/task/%s/children" % tid) as fh:
                pids = fh.read().split()
        except OSError:
            continue
        for pid in pids:
            try:
                with open("/proc/%s/stat" % pid) as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += sum(int(x) for x in fields[11:15])  # u/s, own + reaped
    return ticks / os.sysconf("SC_CLK_TCK")


def other_cpu_s(children):
    """CPU seconds used so far outside the calling thread: by the other
    threads of the process and, if children, by its child processes."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    total = me.ru_utime + me.ru_stime - time.thread_time()
    if children:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += kids.ru_utime + kids.ru_stime + live_children_cpu_s()
    return total


def calibrated(fn):
    """(result, calibrated seconds, wall seconds, machine slowness) of fn()."""
    before = reference_loop()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    slowness = (before + reference_loop()) / 2 / REFERENCE_S
    return result, calibrate(wall, slowness), wall, slowness


def calibrate(wall, slowness):
    return wall / slowness ** CALIBRATION_EXPONENT


def timed_loop(runner, cycle, seconds, least_cycles, children):
    """Send whole cycles, starting a new one while time remains or fewer
    than least_cycles were sent, so that every run measures the same mix
    of requests.  Each cycle starts, untimed, from a fresh import of the
    library, so that a cache keyed by whole inputs pays its cold cost in
    every cycle.  Returns calibrated latencies, wall latencies, the
    machine slowness of each request, the count of correct requests, and
    the CPU used outside the main thread as a share of the main thread's
    (children: count child processes as outside)."""
    latencies, walls, slowness = [], [], []
    ok_count = cycles = 0
    other0, main0 = other_cpu_s(children), time.thread_time()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or cycles < least_cycles:
        cycles += 1
        runner.lib = import_fresh()
        gc.collect()
        before = reference_loop()
        for req in cycle:
            ok, dt = runner.send(req)
            after = reference_loop()
            slow = (before + after) / 2 / REFERENCE_S
            before = after
            latencies.append(calibrate(dt, slow))
            walls.append(dt)
            slowness.append(slow)
            ok_count += ok
    other_share = ((other_cpu_s(children) - other0)
                   / (time.thread_time() - main0))
    return latencies, walls, slowness, ok_count, other_share


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(name, seed, seconds, workdir):
    setups, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        (lib, golden, cycle), dt, wall, _ = calibrated(
            lambda: set_up(name, seed, workdir))
        setups.append(dt)
        setup_walls.append(wall)
    runner = Runner(lib, golden)
    latencies, walls, slowness, ok_count, other_share = timed_loop(
        runner, cycle, seconds, min_cycles(name, len(cycle)),
        children=name != "cli")
    pct = workloads.TAIL_PERCENTILE[name]
    rank = tail_rank(pct, len(latencies))
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "throughput_rps": metric(ok_count / sum(latencies), "1/s"),
        "latency_p50_s": metric(statistics.median(latencies), "s"),
        "latency_tail_s": metric(sorted(latencies)[rank - 1], "s"),
        "peak_rss_mb": metric(peak_rss_mb(children=name == "cli"), "MB"),
    }
    report = {"tail_percentile": pct, "samples": len(latencies),
              "wall": {"setup_s": statistics.median(setup_walls),
                       "throughput_rps": ok_count / sum(walls),
                       "latency_p50_s": statistics.median(walls),
                       "latency_tail_s": sorted(walls)[rank - 1]},
              "slowness": {"min": min(slowness),
                           "median": statistics.median(slowness),
                           "max": max(slowness)},
              "cpu_outside_main_thread_share": other_share}
    return metrics, len(latencies), runner, cycle, report


def timed_send(runner, req):
    """Send one request; return (wall, harness seconds outside the call)."""
    t0 = time.perf_counter()
    _, dt = runner.send(req)
    wall = time.perf_counter() - t0
    return wall, wall - dt


def subprocess_median(code, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(),
                       stdin=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_traced(name, seed, workdir):
    """Send each request untraced and traced, alternating which goes
    first, so that drift in machine speed and warm caches cancel out of
    trace.overhead_ratio.  As in the timed loop, each cycle starts from a
    fresh import.  The traced set-up is timed on its own."""
    lib, golden, cycle = set_up(name, seed, workdir)
    cycles = math.ceil(TRACED_REQUESTS / len(cycle))
    plain = Runner(lib, golden, in_process_cli=True)
    traced = Runner(lib, golden, in_process_cli=True)
    tracer = tracing.Tracer()

    tracer.install(lib)
    try:
        t0 = time.perf_counter()
        workloads.draw_cycle(name, lib, seed, workdir)
        setup_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    setup_self = tracer.total_self_s()

    untraced_wall = traced_wall = harness = 0.0
    for _ in range(cycles):
        lib = plain.lib = traced.lib = import_fresh()
        for i, req in enumerate(cycle):
            for with_trace in ((False, True) if i % 2 == 0
                               else (True, False)):
                if not with_trace:
                    untraced_wall += timed_send(plain, req)[0]
                    continue
                tracer.install(lib)
                tracer.begin_request()
                try:
                    wall, outside = timed_send(traced, req)
                finally:
                    tracer.uninstall()
                traced_wall += wall
                harness += outside
    request_self = tracer.total_self_s() - setup_self

    metrics = tracing.layer_metrics(tracer)
    interpreter = subprocess_median("pass")
    metrics.update({
        "cli.interpreter_s": metric(interpreter, "s"),
        "cli.import_s": metric(subprocess_median("import cdindex.cli")
                               - interpreter, "s"),
        "cli.output_bytes": metric(traced.output_bytes, "bytes"),
        "cli.expected_nonzero_exits": metric(traced.nonzero_exits, "count"),
        "harness.self_s": metric(harness + setup_wall - setup_self, "s"),
        "trace.requests": metric(cycles * len(cycle), "count"),
        "trace.setup_s": metric(setup_wall, "s"),
        "trace.overhead_ratio": metric(traced_wall / untraced_wall, "ratio"),
        "trace.accounted_ratio": metric((request_self + harness)
                                        / traced_wall, "ratio"),
    })
    traced.failures += plain.failures
    report = {"traced_requests": cycles * len(cycle),
              "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return metrics, 2 * cycles * len(cycle), traced, cycle, report


# -- checks on the result itself --------------------------------------------------


def declared_metrics(trace):
    """The metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def self_checks(metrics, report, trace):
    problems = []
    declared = sorted((m["name"], m["unit"]) for m in declared_metrics(trace))
    printed = sorted((k, v["unit"]) for k, v in metrics.items())
    if declared != printed:
        problems.append("metrics differ from BENCHMARK.json: %s"
                        % sorted(set(declared) ^ set(printed)))
    if not trace and report["cpu_outside_main_thread_share"] \
            > OTHER_CPU_SHARE:
        problems.append("other threads or child processes used %.3f of the "
                        "main thread's CPU time in the timed loop"
                        % report["cpu_outside_main_thread_share"])
    if trace:
        accounted = metrics["trace.accounted_ratio"]["value"]
        if not 0.95 <= accounted <= 1.001:
            problems.append("layer self times plus harness time cover %.4f "
                            "of the traced wall time" % accounted)
    return problems


def run_one(args):
    name, seed = args.workload, args.seed
    require_sources()
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_tmp")) \
            as workdir:
        if args.trace:
            metrics, attempted, runner, cycle, report = run_traced(
                name, seed, workdir)
        else:
            metrics, attempted, runner, cycle, report = run_untraced(
                name, seed, args.seconds, workdir)
    problems = self_checks(metrics, report, args.trace)
    failed = len(runner.failures)
    for key, why in runner.failures[:20]:
        print("failed: %s: %s" % (key, why), file=sys.stderr)
    for why in problems:
        print("self-check: %s" % why, file=sys.stderr)
    report.update(workload=name, seed=seed, why=workloads.WHY[name],
                  trace=args.trace, error_rate=failed / attempted,
                  inputs=workloads.input_summary(name, cycle),
                  loop="closed, 1 client")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


# -- steadiness mode -----------------------------------------------------------


def run_steady(args):
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    limit = {m["name"]: m["bound"] for m in declared_metrics(trace=False)}
    for name in names:
        values, failed = {}, 0
        for seed in range(1, STEADY_RUNS + 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                check=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append((m["value"], m["unit"]))
        print("%s: %d runs, seeds 1..%d, %d failures"
              % (name, STEADY_RUNS, STEADY_RUNS, failed))
        for key in sorted(values):
            xs = [v for v, _ in values[key]]
            unit = values[key][0][1]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            bound = limit[key]
            verdict = "  bound %.2f %s" % (bound, "ok" if spread < bound / 3
                                           else "NOT below bound/3")
            print("  %-16s %-5s median %.6g  q1 %.6g  q3 %.6g  spread %.3f%s"
                  % (key, unit, med, q1, q3, spread, verdict))
            print("  %16s runs: %s" % ("", " ".join("%.4g" % x for x in xs)))
        sys.stdout.flush()
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="repeat the workload(s) and print quartiles")
    args = parser.parse_args(argv)
    if args.steady:
        return run_steady(args)
    if args.workload == "all":
        parser.error("--workload all needs --steady")
    try:
        return run_one(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
