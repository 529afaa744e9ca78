"""Run every workload untraced and traced, then the cliff probe; print one
row of end-to-end metrics per workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the repository root.  Each workload runs in its own process
(`perfbench/run.py`), first with tracing off (the end-to-end row) and then
with tracing on (per-layer numbers, tracing overhead, and a check that
traced answers equal untraced ones).  Fails when any run fails, when any
answer is wrong, or when a traced function recorded no call on any
workload, which would mean a bind site was missed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.getcwd(), ".perfbench_out")


def _run(args):
    proc = subprocess.run([sys.executable] + args, capture_output=True,
                          text=True)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def main(argv=None):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args(argv)
    run_py = os.path.join(HERE, "run.py")
    ok = True
    rows, calls = [], {}
    for w in [w["name"] for w in bench["workloads"]]:
        tag = "%s-%d" % (w, args.seed)
        for trace in (0, 1):
            code, out = _run([run_py, "--workload", w, "--seed",
                              str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(trace)])
            if code != 0:
                ok = False
                print(out)
                print("%s trace=%d exited %d" % (w, trace, code))
                continue
            with open(os.path.join(OUT, "result-%s-trace%d.json"
                                   % (tag, trace))) as fh:
                result = json.load(fh)
            if trace == 0:
                rows.append((w, result))
            else:
                rows[-1][1]["overhead"] = result["overhead"]
                for name, n in result["calls"].items():
                    calls[name] = calls.get(name, 0) + n
    print("env %s" % json.dumps(rows[0][1]["env"] if rows else {},
                                sort_keys=True))
    for w, result in rows:
        for label in ("metrics", "wall_metrics"):
            cells = ["%s=%.4g %s" % (k, m["value"], m["unit"])
                     for k, m in result[label].items()]
            print("%-8s %-6s %s" % (w, "wall" if label == "wall_metrics"
                                    else "scaled", "  ".join(cells)))
        print("%-8s samples=%d failed=%d/%d trace_overhead=%s" % (
            w, result["attempted"], result["failed"], result["attempted"],
            "%.1f%%" % (100 * result["overhead"])
            if "overhead" in result else "n/a"))
    never = sorted(name for name, n in calls.items() if n == 0)
    if never:
        ok = False
        print("traced functions with no call on any workload: %s"
              % ", ".join(never))
    code, out = _run([os.path.join(HERE, "cliff.py"), "--seed",
                      str(args.seed)])
    print(out, end="")
    ok = ok and code == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
