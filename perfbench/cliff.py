"""The ladder's upper rungs, where `core_homology` falls off a cliff.

    python3 perfbench/cliff.py [--seed N]

Ranks 9, 16 and 25 (blocks 3, 4, 5) of the `ladder` workload: fresh Hom and
tensor grids over Z/12, `core_homology` at the same four bidegrees, each
answer checked against `core_homology_alt`.  Some cases at every one of
these rungs run for minutes today (coefficient explosion in the lattice
kernel), so each case runs in its own child process, one at a time, under a
wall-clock deadline; an overrun fails the case's four ops and costs the
deadline in total_s.  Every overrun is named in the output, with the
largest col_echelon entry (in bits) it had produced when stopped.  The
children run traced (perfbench/tracing.py) to see those bit lengths, so
the case times here include tracing overhead.  This probe is
not a BENCHMARK.json workload, whose workloads must have no failing op; it
is the row that shows where the modular lattice kernel has to win.
Exit status: 0 every finished answer is correct, 1 otherwise.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import tracing  # noqa: E402  (needs src on sys.path)
import workloads  # noqa: E402

# cases per rung; blocks b gives cell rank b * b
RUNGS = ((3, 2), (4, 2), (5, 4))
# With the pure-Python kernel on 2 cores, finished cases took at most ~11 s
# and every overrun was still running after 90 s, so a 30 s deadline splits
# done from overrun the same way on every run.
DEADLINE_S = 30.0


def cases(seed):
    rng = Random(seed)
    out = []
    for blocks, count in RUNGS:
        for i in range(count):
            kind = ("hom", "tensor")[i % 2]
            out.append((blocks, kind, rng.randrange(2 ** 32),
                        rng.randrange(2 ** 32)))
    return out


def child(blocks, kind, s1, s2):
    """Run one case traced and print its result as one JSON line; on
    SIGTERM (the deadline) print the largest col_echelon entry so far and
    exit."""
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    echelon = tracer.names.index("backend.col_echelon")

    def on_deadline(signum, frame):
        print(json.dumps({"bits": tracer.bits_max[echelon]}), flush=True)
        os._exit(0)

    signal.signal(signal.SIGTERM, on_deadline)
    _, _, grid = workloads.ladder_grid(kind, s1, s2, blocks)
    ops = []
    for bd in workloads.BIDEGREES:
        t0 = time.perf_counter()
        try:
            answer = workloads.checked_core(grid, bd)
        except workloads.WrongAnswer as exc:
            answer = "wrong: %s" % exc
        ops.append((time.perf_counter() - t0, answer))
    print(json.dumps({"bits": tracer.bits_max[echelon], "ops": ops}),
          flush=True)


def run_case(case):
    """(seconds, col_echelon bits_out_max, [(op seconds, answer)] or None
    when the deadline passed)."""
    code = ("import sys; sys.path[:0] = %r; import cliff; cliff.child%r"
            % ([HERE], case))
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, text=True)
    t0 = time.perf_counter()
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
        finished = True
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        finished = False
    elapsed = time.perf_counter() - t0
    lines = out.strip().splitlines()
    msg = json.loads(lines[-1]) if lines else {}
    return elapsed, msg.get("bits"), msg.get("ops") if finished else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    done, attempted, overruns, wrong = 0, 0, [], []
    total = 0.0
    for case in cases(args.seed):
        blocks, kind, s1, s2 = case
        label = "rank %d %s grid seeds (%d, %d)" % (blocks * blocks, kind,
                                                     s1, s2)
        elapsed, bits, result = run_case(case)
        attempted += len(workloads.BIDEGREES)
        if result is None:
            total += DEADLINE_S
            overruns.append(label)
            print("OVERRUN %s: no answer after %.0f s, col_echelon entries "
                  "reached %s bits" % (label, DEADLINE_S, bits))
            continue
        total += elapsed
        done += len(result)
        for bd, (_, answer) in zip(workloads.BIDEGREES, result):
            if isinstance(answer, str):
                wrong.append("%s at %s: %s" % (label, bd, answer))
        print("done    %s: %.3f s, col_echelon entries up to %d bits, core "
              "groups %s" % (label, elapsed, bits,
                             json.dumps([a for _, a in result])))
    failed = 4 * len(overruns) + len(wrong)
    for w in wrong:
        print("WRONG %s" % w)
    print("cliff    total_s=%.3f s  ops_done=%d  fail_share=%.3f "
          "(%d/%d ops; %d case(s) overran %.0f s)"
          % (total, done, failed / attempted, failed, attempted,
             len(overruns), DEADLINE_S))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
