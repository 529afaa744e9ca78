"""Store the answers of untraced runs as the expected answers.

    python3 perfbench/record.py

Merges every .perfbench_out/answers-<workload>-<seed>.json into
perfbench/expected.json: one answer digest per op index, for the first
KEEP ops (longer than one input period of `ladder` and than a run of the
other workloads).  A seed's stored list only grows: a digest that
disagrees with the stored one is a wrong answer, reported with exit
status 1 and not written.
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
OUT = os.path.join(os.getcwd(), ".perfbench_out")
KEEP = 400


def main():
    try:
        with open(EXPECTED) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {}
    conflicts = 0
    for path in sorted(glob.glob(os.path.join(OUT, "answers-*.json"))):
        workload, seed = os.path.basename(path)[8:-5].rsplit("-", 1)
        with open(path) as fh:
            got = json.load(fh)
        have = stored.setdefault(workload, {}).setdefault(seed, [])
        for k, (a, b) in enumerate(zip(have, got)):
            if a != b:
                conflicts += 1
                print("%s seed %s op %d: stored %s, run gave %s"
                      % (workload, seed, k, a, b))
        got = got[:KEEP]
        if None in got:
            got = got[:got.index(None)]
        if len(got) > len(have):
            have.extend(got[len(have):])
    if conflicts:
        return 1
    with open(EXPECTED, "w") as fh:
        json.dump(stored, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
