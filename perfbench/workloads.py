"""The benchmark's workloads: seeded inputs, one op, and its answer checks.

Each workload builds all of its inputs from the workload seed in its
constructor (the set-up phase) and then serves ops by index.  `op(k)`
returns a JSON-ready answer and raises `WrongAnswer` when one of the
package's own cross-checks disagrees.  Inputs repeat with period `len(pool)`
so a run of any length is well defined, and op k always has the same
answer for a given seed.
"""

import contextlib
import io
import json
from random import Random

from bicohom import (COHOMOLOGICAL, HOMOLOGICAL, FpGroup, balance_report,
                     complete_injective_resolution,
                     complete_projective_resolution, core_homology,
                     core_homology_alt, hom_bicomplex, parse_complex,
                     random_exact_complex, serialize_complex,
                     tensor_bicomplex)
from bicohom.cli import main as cli_main


class WrongAnswer(Exception):
    """An op's answer failed a check."""


def round_trip(c):
    """serialize -> parse -> serialize must be a fixed point and keep every
    cell's isomorphism type."""
    text = serialize_complex(c)
    back = parse_complex(text)
    if serialize_complex(back) != text:
        raise WrongAnswer("serialize/parse round trip changed the text")
    for n in c.degrees():
        if back.cell(n).invariant_factors != c.cell(n).invariant_factors \
                or back.cell(n).free_rank != c.cell(n).free_rank:
            raise WrongAnswer("round trip changed the cell at degree %d" % n)


class Suites:
    """`bicohom verify --suite S --json` in-process, one invocation per op.

    Suites run round-robin; the case count per suite makes each op cost
    roughly the same (tens of milliseconds), so the latency distribution
    has one mode and its median does not sit between suites."""

    name = "suites"
    CASES = (("snf", 40), ("abgroup", 32), ("thm21", 3), ("prop31", 4),
             ("thm33", 5), ("balance", 3))
    POOL = 4096

    def __init__(self, seed):
        rng = Random(seed)
        self.pool = [rng.randrange(2 ** 31) for _ in range(self.POOL)]

    def describe(self, k):
        suite, cases = self.CASES[k % len(self.CASES)]
        return suite, self.pool[k % self.POOL], cases

    def op(self, k):
        suite, vseed, cases = self.describe(k)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["verify", "--suite", suite, "--seed", str(vseed),
                             "--cases", str(cases), "--json"])
        report = json.loads(out.getvalue())
        if code != 0 or not report.get("all_pass"):
            raise WrongAnswer("verify %s seed %d failed: %r"
                              % (suite, vseed, [r for r in report["items"]
                                                if not r["pass"]]))
        del report["timestamp"]
        return report


BIDEGREES = ((0, 0), (1, 0), (0, 1), (1, 1))


def ladder_grid(kind, s1, s2, blocks, modulus=12):
    """A fresh Hom or tensor grid of two seeded exact complexes; cells have
    rank blocks**2."""
    c = random_exact_complex(modulus, s1, blocks=blocks)
    if kind == "hom":
        d = random_exact_complex(modulus, s2, blocks=blocks,
                                 convention=COHOMOLOGICAL)
        return c, d, hom_bicomplex(c, d)
    d = random_exact_complex(modulus, s2, blocks=blocks,
                             convention=HOMOLOGICAL)
    return c, d, tensor_bicomplex(c, d)


def checked_core(grid, bidegree):
    """Core invariant at one bidegree, checked against the second route."""
    got = core_homology(grid, bidegree).group
    alt = core_homology_alt(grid, bidegree).group
    answer = [list(got.invariant_factors), got.free_rank]
    if answer != [list(alt.invariant_factors), alt.free_rank]:
        raise WrongAnswer("core_homology %r != core_homology_alt %r at %r"
                          % (answer, [list(alt.invariant_factors),
                                      alt.free_rank], bidegree))
    return answer


class Ladder:
    """`core_homology` at four bidegrees of fresh Hom and tensor grids over
    Z/12 with cell rank 4 (blocks=2).  One bidegree query is one op; a
    fresh grid (new memo tables) starts every fourth op.  The higher rungs
    (ranks 9, 16, 25) overrun any fixed deadline on some seeds today, so
    they run in the `cliff` probe instead, where overruns are counted."""

    name = "ladder"
    BLOCKS = 2
    POOL = 96

    def __init__(self, seed):
        rng = Random(seed)
        self.cases = []
        for i in range(self.POOL):
            kind = ("hom", "tensor")[i % 2]
            s1, s2 = rng.randrange(2 ** 32), rng.randrange(2 ** 32)
            c, d, _ = ladder_grid(kind, s1, s2, self.BLOCKS)
            round_trip(c)
            round_trip(d)
            self.cases.append((kind, c, d))
        self.grid = None

    def describe(self, k):
        kind, _, _ = self.cases[(k // 4) % self.POOL]
        return kind, self.BLOCKS ** 2, BIDEGREES[k % 4]

    def op(self, k):
        kind, c, d = self.cases[(k // 4) % self.POOL]
        if k % 4 == 0 or self.grid is None:
            self.grid = (hom_bicomplex(c, d) if kind == "hom"
                         else tensor_bicomplex(c, d))
        return checked_core(self.grid, BIDEGREES[k % 4])


class Balance:
    """`balance_report` (ext or tor, degrees -3..3) over Z/8, Z/9, Z/12 for
    modules of 2-4 cyclic summands; one report is one op and must pass.

    The pool walks every (modulus, kind, summands, summands) combination
    three times.  Every nine consecutive ops cover all nine size pairs and
    the (modulus, kind) pair turns with them, so any prefix of the pool has
    nearly the same mix; a run's length in ops depends on the machine's
    speed, and its mix should not.  In walk c a module of n summands takes
    the cyclic orders D[c], D[c+1], ..., D[c+n-1] (cyclically, D = the
    divisors of m above 1) in an order shuffled by the seed: the seed
    changes every presentation but not the mix of isomorphism types, which
    would otherwise dominate the run-to-run spread of the slowest tenth of
    reports."""

    name = "balance"
    DEGREES = range(-3, 4)
    SIZES = [(na, nb) for na in (2, 3, 4) for nb in (2, 3, 4)]
    RINGS = [(m, kind) for m in (8, 9, 12) for kind in ("ext", "tor")]
    WALKS = 3

    def __init__(self, seed):
        rng = Random(seed)
        self.cases = []
        for walk in range(self.WALKS):
            for i in range(len(self.SIZES) * len(self.RINGS)):
                block, r = divmod(i, len(self.SIZES))
                na, nb = self.SIZES[r]
                m, kind = self.RINGS[(block + r) % len(self.RINGS)]
                a = self._module(rng, m, na, walk)
                b = self._module(rng, m, nb, walk + 1)
                p, _ = complete_projective_resolution(m, a)
                if kind == "ext":
                    q, _ = complete_injective_resolution(m, b)
                else:
                    q, _ = complete_projective_resolution(m, b)
                round_trip(p)
                round_trip(q)
                self.cases.append((m, kind, a, b))

    @staticmethod
    def _module(rng, m, n, offset):
        divisors = [d for d in range(2, m + 1) if m % d == 0]
        orders = [divisors[(offset + i) % len(divisors)] for i in range(n)]
        rng.shuffle(orders)
        return FpGroup.from_factors(m, orders)

    def describe(self, k):
        m, kind, a, b = self.cases[k % len(self.cases)]
        return kind, m, a.describe(), b.describe()

    def op(self, k):
        m, kind, a, b = self.cases[k % len(self.cases)]
        report = balance_report(m, a, b, self.DEGREES, kind)
        if not report["all_pass"]:
            raise WrongAnswer("balance %s over Z/%d fails: %r"
                              % (kind, m, [r for r in report["degrees"]
                                           if not r["pass"]]))
        return report


WORKLOADS = {w.name: w for w in (Suites, Ladder, Balance)}
