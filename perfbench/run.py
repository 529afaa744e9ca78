"""End-to-end benchmark of bicohom: one workload per run.

    python3 perfbench/run.py --workload {suites,ladder,balance} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  Load is
one process, no threads, a closed loop with one client: op k+1 starts when
op k returns.  Every op's answer is checked (the package's own second
route, plus the answers stored in perfbench/expected.json for this seed).

--trace 0 prints the end-to-end metrics; --trace 1 first runs the workload
untraced for half the time, then runs the same ops again on freshly built
inputs with every layer wrapped (perfbench/tracing.py), checks that both
passes gave identical answers, and prints the per-layer metrics and the
tracing overhead.

Times in the JSON result are scaled to a reference CPU speed measured
between ops (see `calibrate`); the raw wall-clock figures are printed and
stored beside them.  Human-readable lines come first; the last line of
standard output is the JSON result.  Span logs, answers and full results go
to .perfbench_out/.  Exit status: 0 all answers correct, 1 a wrong answer
or failed op, 2 the package could not be found or imported.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".perfbench_out")
EXPECTED = os.path.join(HERE, "expected.json")

# set-up is repeated in this many fresh processes and the median reported
SETUP_REPEATS = 5


def _fail_setup(msg):
    print("error: %s" % msg, file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "bicohom", "__init__.py")):
    _fail_setup("no package at ./src/bicohom; run from the repository root")
sys.path.insert(0, SRC)
try:
    import workloads
except ImportError as exc:
    _fail_setup("cannot import bicohom: %s" % exc)
from bicohom import backend  # noqa: E402  (needs SRC on sys.path)


def digest(answer):
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def environment(seed):
    return {"backend": backend.BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


# The host's effective CPU speed drifts by up to +-30% within a minute: a
# fixed loop took 0.47-0.68 s in consecutive 0.5 s windows, with process
# time tracking wall time, so it is not time spent descheduled.  A fixed
# reference computation is therefore timed every CAL_EVERY_S between ops
# (never inside one), and every time in the JSON result is scaled to the
# speed at which one reference computation takes CAL_REF_S.  The raw
# wall-clock figures are printed and stored beside the scaled ones.
CAL_MATRIX = [[(7 * i + 3 * j * j + 1) % 19 - 9 for j in range(12)]
              for i in range(12)]
CAL_REPS = 8
CAL_REF_S = 0.0001
CAL_EVERY_S = 0.2


def _reference():
    """Fraction-free elimination of a fixed integer matrix: the same kind of
    work as the lattice kernel (lists of Python ints) but none of the
    package's code, so no change to bicohom can move it."""
    a = [list(row) for row in CAL_MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            continue
        a[k], a[piv] = a[piv], a[k]
        ak = a[k]
        akk = ak[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
        prev = akk
    return a


def calibrate():
    """Seconds one reference computation takes now (median of three)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(CAL_REPS):
            _reference()
        times.append((time.perf_counter() - t0) / CAL_REPS)
    return statistics.median(times)


def measure_setup(name, seed):
    """(scaled, raw) median wall time of fresh processes that import
    bicohom, build the workload's inputs and exit."""
    code = ("import sys; sys.path[:0] = %r; import workloads; "
            "workloads.WORKLOADS[%r](%d)" % ([HERE, SRC], name, seed))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        wall = time.perf_counter() - t0
        after = calibrate()
        raw.append(wall)
        scaled.append(wall * 2 * CAL_REF_S / (before + after))
    return statistics.median(scaled), statistics.median(raw)


class Pass:
    """One closed-loop pass: latencies, answers and failures by op index."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        self.scaled = []
        self.answers = []
        self.failures = []
        self.total_s = 0.0

    def run(self, seconds=None, ops=None, tracer=None):
        """Run for `seconds`, or exactly `ops` ops when given."""
        w = self.workload
        cals = [calibrate()]
        op_cal = []
        t_start = t_cal = time.perf_counter()
        k = 0
        while (k < ops) if ops is not None else \
                (time.perf_counter() - t_start < seconds):
            if time.perf_counter() - t_cal >= CAL_EVERY_S:
                cals.append(calibrate())
                t_cal = time.perf_counter()
            op_cal.append(len(cals) - 1)
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            try:
                answer = w.op(k)
            except Exception as exc:  # one op fails, the run goes on
                self.latencies.append(time.perf_counter() - t0)
                self.answers.append(None)
                self.failures.append((k, w.describe(k),
                                      "%s: %s" % (type(exc).__name__, exc)))
            else:
                self.latencies.append(time.perf_counter() - t0)
                self.answers.append(digest(answer))
            k += 1
        self.total_s = time.perf_counter() - t_start
        cals.append(calibrate())
        # an op between calibrations i and i+1 is scaled by the median of
        # the calibrations around it, so one disturbed loop cannot skew it
        scale = [CAL_REF_S / statistics.median(cals[max(0, i - 2):i + 4])
                 for i in range(len(cals))]
        self.scaled = [t * scale[c] for t, c in zip(self.latencies, op_cal)]
        return self


def check_expected(name, seed, run):
    """Failures for ops whose answer differs from the stored one."""
    try:
        with open(EXPECTED) as fh:
            stored = json.load(fh).get(name, {}).get(str(seed), [])
    except FileNotFoundError:
        stored = []
    bad = []
    for k, (got, want) in enumerate(zip(run.answers, stored)):
        if got is not None and got != want:
            bad.append((k, run.workload.describe(k),
                        "answer %s differs from stored %s" % (got, want)))
    return bad, min(len(stored), len(run.answers))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run, setup_s, lat):
    """End-to-end metrics from per-op latencies `lat` (scaled or raw)."""
    lat_ms = [1e3 * x for x in lat]
    attempted = len(lat_ms)
    ok = attempted - len(run.failures)
    # the closed loop keeps the machine busy with ops, so op time is the
    # run's time apart from calibration and loop bookkeeping
    return {
        "setup_s": (setup_s, "s"),
        "total_s": (run.total_s, "s"),
        "ops_per_s": (ok / sum(lat), "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (percentile(lat_ms, 90), "ms"),
        "fail_share": (len(run.failures) / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def reported(kind):
    """Metric names the JSON result carries: BENCHMARK.json's `end_to_end`
    or `per_layer` list.  total_s (fixed by --seconds in a time-bounded
    loop) and fail_share (0 on every workload) are printed, not compared."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def _result(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def _report_failures(failures):
    for k, what, why in failures:
        print("FAIL op %d %s: %s" % (k, what, why))


def run_untraced(name, seed, seconds, env):
    make = workloads.WORKLOADS[name]
    setup_s, setup_raw = measure_setup(name, seed)
    run = Pass(make(seed)).run(seconds=seconds)
    wrong, checked = check_expected(name, seed, run)
    failures = run.failures + wrong
    _report_failures(failures)
    e2e = end_to_end(run, setup_s, run.scaled)
    wall = end_to_end(run, setup_raw, run.latencies)
    attempted = len(run.latencies)
    for label, row in (("scaled", e2e), ("wall", wall)):
        print("%-8s %-6s %s" % (name, label, "  ".join(
            "%s=%.6g %s" % (k, v, u) for k, (v, u) in row.items())))
    print("%-8s samples=%d failed=%d/%d stored_answers_checked=%d"
          % (name, attempted, len(failures), attempted, checked))
    tag = "%s-%d" % (name, seed)
    _write(os.path.join(OUT, "answers-%s.json" % tag), run.answers)
    _write(os.path.join(OUT, "result-%s-trace0.json" % tag),
           {"env": env, "attempted": attempted, "failed": len(failures),
            "stored_answers_checked": checked,
            "failures": [list(f) for f in failures],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in e2e.items()},
            "wall_metrics": {k: {"value": v, "unit": u}
                             for k, (v, u) in wall.items()}})
    print(_result(not failures, attempted, len(failures),
                  {k: e2e[k] for k in reported("end_to_end")}))
    return 1 if failures else 0


def run_traced(name, seed, seconds, env):
    """Untraced pass, then the same ops traced on fresh inputs."""
    import tracing
    make = workloads.WORKLOADS[name]
    base = Pass(make(seed)).run(seconds=seconds / 2)
    n = len(base.answers)
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        t0 = time.perf_counter()
        traced = Pass(make(seed))
        traced.run(ops=n, tracer=tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    failures = base.failures + traced.failures
    for k, (a, b) in enumerate(zip(base.answers, traced.answers)):
        if a != b:
            failures.append((k, base.workload.describe(k),
                             "traced answer %s != untraced %s" % (b, a)))
    wrong, _ = check_expected(name, seed, base)
    failures += wrong
    _report_failures(failures)
    overhead = traced.total_s / base.total_s - 1.0
    layer = tracer.metrics()
    for key in sorted(layer):
        value, unit, base_n = layer[key]
        print("layer %-48s %14.6g %-5s%s" % (
            key, value, unit, "" if base_n is None else " base=%d" % base_n))
    print("%-8s ops=%d untraced_s=%.4f traced_s=%.4f (set-up included: "
          "%.4f) overhead=%.1f%%" % (name, n, base.total_s, traced.total_s,
                                     traced_s, 100.0 * overhead))
    tag = "%s-%d" % (name, seed)
    kept, total = tracer.write_spans(
        os.path.join(OUT, "spans-%s.tsv" % tag))
    print("spans written=%d recorded=%d" % (kept, total))
    _write(os.path.join(OUT, "result-%s-trace1.json" % tag),
           {"env": env, "attempted": n, "failed": len(failures),
            "failures": [list(f) for f in failures],
            "untraced_s": base.total_s, "traced_s": traced.total_s,
            "overhead": overhead,
            "calls": {nm: c for nm, c in zip(tracer.names, tracer.calls)},
            "metrics": {k: {"value": v, "unit": u, "base": b}
                        for k, (v, u, b) in layer.items()}})
    print(_result(not failures, n, len(failures),
                  {k: layer[k][:2] for k in reported("per_layer")}))
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    env = environment(args.seed)
    print("env %s" % json.dumps(env, sort_keys=True))
    run = run_traced if args.trace else run_untraced
    return run(args.workload, args.seed, args.seconds, env)


if __name__ == "__main__":
    sys.exit(main())
