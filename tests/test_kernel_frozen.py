"""Kernel outputs against frozen digests.

`snf_transforms(a, m)` returns (U, diag, V, U^-1) and `col_echelon`
returns (H, pivots).  The diagonal is unique, but U, V and H depend on the
choices the kernel makes, and those choices reach the user: the cyclic
coordinates of every group are read off U and U^-1.  The property tests
check that the outputs are valid; this file checks that they are the same
ones as before, bit for bit, on a fixed set of seeded inputs.

tests/golden_kernel.json holds, per input family, the number of inputs and
the SHA-256 of the JSON list of outputs.  The families cover empty shapes,
zero rows and columns, negative pivots, pivot swaps, the divisibility
fix-up of the Smith loop, entries up to 100 and the stacked [[a, R], [I, 0]]
inputs of a lattice step on a Z/m group; a line-coverage test checks that
they run every line of the Smith loop over Z and over Z/12, of the Z
echelon and of the Howell loop at m = 4 and 12, so the digests guard every
move the kernel can make.  The Z/12 digest pins (U, diag, U^-1), which
reach the functor and group digests through the cyclic coordinates of every
Z/m group.  Regenerate the file (`python tests/test_kernel_frozen.py`) only
for an intended change of the kernel's output.
"""

import hashlib
import json
import pathlib
import random
import sys

import pytest

from bicohom import backend

GOLDEN = pathlib.Path(__file__).parent / "golden_kernel.json"


def _random(rng, rows, cols, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _unimodular_mix(rng, mat, moves):
    """Row and column additions that keep the Smith form of `mat`."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    mat = [list(r) for r in mat]
    for _ in range(moves):
        q = rng.choice([-2, -1, 1, 2])
        if rows > 1 and rng.random() < 0.5:
            i, k = rng.sample(range(rows), 2)
            mat[i] = [x + q * y for x, y in zip(mat[i], mat[k])]
        elif cols > 1:
            j, k = rng.sample(range(cols), 2)
            for r in mat:
                r[j] += q * r[k]
    return mat


def family_random(rng):
    return _random(rng, rng.randint(0, 7), rng.randint(0, 7), -9, 9)


def family_zero_lines(rng):
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    mat = _random(rng, rows, cols, -9, 9)
    for i in range(rows):
        if rng.random() < 0.35:
            mat[i] = [0] * cols
    for j in range(cols):
        if rng.random() < 0.35:
            for r in mat:
                r[j] = 0
    return mat


def family_negative(rng):
    return _random(rng, rng.randint(1, 6), rng.randint(1, 6), -20, 0)


def family_swaps(rng):
    # one small entry away from the top-left corner, so the pivot search
    # has to swap it into place
    rows, cols = rng.randint(2, 7), rng.randint(2, 7)
    mat = [[rng.choice([-1, 1]) * rng.randint(5, 40) for _ in range(cols)]
           for _ in range(rows)]
    mat[rng.randint(1, rows - 1)][rng.randint(1, cols - 1)] = \
        rng.choice([-3, -2, -1, 1, 2, 3])
    return mat


def family_fixup(rng):
    # a diagonal that is not a divisibility chain, hidden by unimodular mixing
    rows, cols = rng.randint(2, 6), rng.randint(2, 6)
    mat = [[0] * cols for _ in range(rows)]
    for t in range(min(rows, cols)):
        mat[t][t] = rng.choice([2, 3, 4, 5, 6, 9, 10, 15, -2, -3, -6])
    return _unimodular_mix(rng, mat, rng.randint(0, 6))


def family_large(rng):
    return _random(rng, rng.randint(0, 9), rng.randint(0, 9), -100, 100)


def family_stacked(rng):
    # the shape of a lattice step on a Z/m group, [[a, R], [I, 0]]: a sparse
    # map a, with entries that may be multiples of 4 and 12, and relation
    # columns R, many of them 4*e_j or 12*e_j, which vanish mod 4 or mod 12
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    a = [[rng.choice([x for x in range(-12, 25) if x]) if rng.random() < 0.3
          else 0 for _ in range(cols)] for _ in range(rows)]
    rel = [[rng.choice([2, 3, 4, 6, 12, 12]) * (i == j) for j in range(rows)]
           for i in range(rows)]
    if rng.random() < 0.5:
        for r in rel:
            r.append(rng.randint(1, 11) if rng.random() < 0.3 else 0)
    return [r + s for r, s in zip(a, rel)] + \
        [[int(i == j) for j in range(cols)] + [0] * len(rel[0])
         for i in range(cols)]


FAMILIES = {
    "random": (family_random, 120),
    "zero_lines": (family_zero_lines, 60),
    "negative": (family_negative, 60),
    "swaps": (family_swaps, 60),
    "fixup": (family_fixup, 80),
    "large": (family_large, 40),
    "stacked": (family_stacked, 60),
}


def _snf_transforms_12(a):
    u, diag, _, uinv = backend.snf_transforms(a, 12)
    return u, diag, uinv


KERNELS = {
    "snf_transforms": backend.snf_transforms,
    "snf_transforms_12": _snf_transforms_12,
    "col_echelon_0": lambda a: backend.col_echelon(a, 0),
    "col_echelon_4": lambda a: backend.col_echelon(a, 4),
    "col_echelon_12": lambda a: backend.col_echelon(a, 12),
}


def inputs(family):
    make, count = FAMILIES[family]
    rng = random.Random("kernel-frozen-" + family)
    return [make(rng) for _ in range(count)]


def digest(kernel, family):
    outputs = [KERNELS[kernel](a) for a in inputs(family)]
    text = json.dumps(outputs, separators=(",", ":"))
    return {"inputs": len(outputs),
            "sha256": hashlib.sha256(text.encode("ascii")).hexdigest()}


def current():
    return {k: {f: digest(k, f) for f in FAMILIES} for k in KERNELS}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_output_matches_frozen_digest(kernel, family):
    frozen = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(kernel, family) == frozen[kernel][family]


# Functions of the kernel that are not part of the Smith, echelon and Howell
# loops: the reduction and the independent oracles.
NOT_COVERED_HERE = {"identity", "mat_mul", "reduce_columns", "det",
                    "minor_gcds"}


def _code_lines(code):
    lines = {line for _, _, line in code.co_lines() if line is not None}
    lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def test_the_inputs_run_every_line_of_the_smith_and_echelon_loops():
    path = backend.__file__
    wanted = set()
    for name, obj in vars(backend).items():
        code = getattr(obj, "__code__", None)
        if code is not None and code.co_filename == path \
                and name not in NOT_COVERED_HERE:
            wanted |= _code_lines(code)
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for family in FAMILIES:
            for a in inputs(family):
                backend.snf_transforms(a)
                backend.snf_transforms(a, 12)
                backend.col_echelon(a, 0)
                backend.col_echelon(a, 4)
                backend.col_echelon(a, 12)
    finally:
        sys.settrace(previous)
    assert sorted(wanted - ran) == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current(), indent=2) + "\n", encoding="utf-8")
    print("wrote", GOLDEN, file=sys.stderr)
