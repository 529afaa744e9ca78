"""Seeded verification suites behind the `verify` command.

Each suite builds one case at a time: given the suite's seeded generator
it makes the case's random draws and returns a check of a package claim
against either an algebraic identity or an independent brute-force
computation.  `run_suite` draws the cases in order and runs each check,
one row per case.  A row never hides an exception: package errors in a
check are recorded as failures with the exception name; any other error,
and any error while building a case, propagates.

`inject_fault=True` corrupts each instance by zeroing its first nonzero
differential before running the same checks; the suites that verify
exactness-dependent claims must then fail.  It exists so that a green run
demonstrably can turn red.  thm21 first holds the grid's factor certificate
of exactness (`bicomplexes._certified`) to the grid's own H' and H'' around
each spot; the certificate calls no faulted site exact.  Suites without a differential (snf, abgroup)
reject the flag.  Faulted balance asserts that its corner (0, 0) is refused:
P is then inexact in both parities, so H' at (0, -1), Hom(H_0(P), E^-1) or
H_0(P) (x) Q_1, is nonzero.
"""

import itertools
import random
from math import gcd

from . import backend
from .abgroup import Element, FpGroup, Morphism, hom_group, tensor_group
from .bicomplexes import (_MARKS, _certified, check_exact_grid,
                          core_equality_check, core_homology,
                          core_homology_alt, diagonal_shift)
from .complexes import (COHOMOLOGICAL, Complex, cycles, homology,
                        hom_from_module, hom_into_module)
from .constructions import (_packaged, complete_injective_resolution,
                            complete_projective_resolution, hom_bicomplex,
                            random_exact_complex, tensor_bicomplex,
                            zprime_witness, zsecond_witness)
from .errors import BadArgument, BicohomError
from .snf import IntMatrix, smith_normal_form
from .tate import ROUTES, _resolution, balance_grid, balance_report

MODULI = (4, 8, 9, 12)

# finite abelian groups of order <= 64, as cyclic-order lists
FIXED_GROUPS = (
    (2,), (3,), (4,), (2, 2), (5,), (6,), (8,), (2, 4), (2, 2, 2),
    (9,), (3, 3), (12,), (2, 6), (16,), (4, 4), (2, 2, 4), (25,),
    (24,), (2, 24), (27,), (3, 9), (48,), (60,), (64,), (2, 32),
)


def _no_fault(inject_fault):
    if inject_fault:
        raise BadArgument("this suite has no differential to corrupt")


def _zero_first_diff(c):
    """Copy of c with its first nonzero differential replaced by zero,
    plus the degree that was hit.  Exactness then fails at that degree and
    the one below it, which the faulted suites aim their checks at."""
    victims = [n for n in c.diff_degrees() if not c.diff(n).is_zero()]
    if not victims:
        raise ValueError("complex has no nonzero differential")
    cells = {n: c.cell(n) for n in c.degrees()}
    diffs = {n: c.diff(n) for n in c.diff_degrees() if n != victims[0]}
    return Complex(c.convention, c.modulus, c.support, cells, diffs), \
        victims[0]


def _first_filled_degree(c):
    for n in c.degrees():
        if not c.cell(n).is_trivial():
            return n
    raise ValueError("complex has no nonzero cell")


def _random_unimodular(n, rng):
    """The identity after six random moves in place, each adding k times
    column i to column j."""
    u = backend.identity(n)
    for _ in range(6 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        backend._cols(u, i, j, 1, 0, rng.randint(-2, 2), 1)
    return IntMatrix(u, cols=n)


def _scrambled_group(factors, rng):
    """The group with the given cyclic orders, hidden behind a random
    unimodular change of presentation."""
    rel = IntMatrix.diagonal(list(factors))
    u = _random_unimodular(len(factors), rng)
    v = _random_unimodular(len(factors), rng)
    return FpGroup(0, len(factors), u @ rel @ v)


def _prime_powers(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 1) * d
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 1) * n
    return out


def _invariants_of_cyclics(orders):
    """Invariant factors of a direct sum of finite cyclic groups, by prime
    bucketing only -- independent of the matrix pipeline."""
    buckets = {}
    for o in orders:
        for p, q in _prime_powers(int(o)).items():
            buckets.setdefault(p, []).append(q)
    if not buckets:
        return ()
    width = max(len(v) for v in buckets.values())
    for powers in buckets.values():
        powers.sort(reverse=True)
        powers.extend([1] * (width - len(powers)))
    descending = []
    for k in range(width):
        f = 1
        for powers in buckets.values():
            f *= powers[k]
        if f > 1:
            descending.append(f)
    return tuple(reversed(descending))


def _hom_count(src_factors, dst_factors):
    """|Hom| by enumerating, per source generator of order d, the elements
    of the target killed by d."""
    elements = list(itertools.product(*[range(e) for e in dst_factors]))
    count = 1
    for d in src_factors:
        count *= sum(1 for h in elements
                     if all(d * hj % ej == 0
                            for hj, ej in zip(h, dst_factors)))
    return count


def _row(label, ok, detail=""):
    return {"case": label, "pass": bool(ok), "detail": detail}


def _guarded(label, check):
    try:
        ok, detail = check()
    except BicohomError as exc:
        return _row(label, False, "%s: %s" % (type(exc).__name__, exc))
    return _row(label, ok, detail)


def suite_snf(rng, inject_fault):
    _no_fault(inject_fault)
    r = rng.randint(0, 8)
    c = rng.randint(0, 8)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(c)]
                   for _ in range(r)], cols=c)

    def check():
        res = smith_normal_form(a)
        d = res.U @ a @ res.V
        if d.to_lists() != IntMatrix.diagonal(
                list(res.diagonal), rows=r, cols=c).to_lists():
            return False, "U*A*V is not the stated diagonal"
        if abs(res.U.det()) != 1 or abs(res.V.det()) != 1:
            return False, "transform is not unimodular"
        diag = res.diagonal
        for i in range(len(diag) - 1):
            if diag[i] and diag[i + 1] % diag[i]:
                return False, "divisibility chain broken"
            if diag[i] == 0 and diag[i + 1] != 0:
                return False, "zero precedes a nonzero factor"
        chain = backend.minor_gcds(a.to_lists())
        prod = 1
        for i, g in enumerate(chain):
            prod *= diag[i] if i < len(diag) else 0
            if g != abs(prod):
                return False, "gcd of %d-minors disagrees" % (i + 1)
        return True, "%dx%d" % (r, c)
    return check


def suite_abgroup(rng, inject_fault):
    _no_fault(inject_fault)
    fa = rng.choice(FIXED_GROUPS)
    fb = rng.choice(FIXED_GROUPS)
    g = _scrambled_group(fa, rng)
    h = _scrambled_group(fb, rng)

    def check():
        want_hom = _hom_count(fa, fb)
        got_hom = hom_group(g, h).group.order()
        if got_hom != want_hom:
            return False, "|Hom| %s != %s" % (got_hom, want_hom)
        want_ten = _invariants_of_cyclics(
            gcd(a, b) for a in fa for b in fb)
        got_ten = tensor_group(g, h).group.invariant_factors
        if got_ten != want_ten:
            return False, "tensor %s != %s" % (got_ten, want_ten)
        return True, "%s (x) %s" % (list(fa), list(fb))
    return check


def _random_pair(rng, m, inject_fault):
    """Random exact bicomplex (hom or tensor of random exact complexes).

    With fault injection the first factor is corrupted and a bidegree whose
    exactness precondition is provably broken is returned, so the damage
    cannot hide from the sampled checks."""
    kind = rng.choice(("hom", "tensor"))
    shape = rng.choice(("periodic", "window"))
    s1 = rng.randrange(2 ** 32)
    s2 = rng.randrange(2 ** 32)
    c = random_exact_complex(m, s1, blocks=2, kind=shape)
    broken_at = None
    if inject_fault:
        c, victim = _zero_first_diff(c)
    if kind == "hom":
        d = random_exact_complex(m, s2, blocks=2, kind=shape,
                                 convention=COHOMOLOGICAL)
        if inject_fault:
            broken_at = (victim, _first_filled_degree(d) + 1)
        return kind, hom_bicomplex(c, d), broken_at
    d = random_exact_complex(m, s2, blocks=2, kind=shape)
    if inject_fault:
        broken_at = (-victim, -_first_filled_degree(d) + 1)
    return kind, tensor_bicomplex(c, d), broken_at


def _bidegrees(rng, count=5):
    return [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(count)]


def suite_thm21(rng, inject_fault):
    m = rng.choice(MODULI)
    kind, x, broken_at = _random_pair(rng, m, inject_fault)
    spots = _bidegrees(rng)
    if broken_at is not None:
        spots.insert(0, broken_at)

    def check():
        for bd in spots:
            # the factor certificate against the grid, around the spot
            for site, axis, _ in check_exact_grid(x, bd[0] - 1, bd[0],
                                                  bd[1] - 1, bd[1]):
                if _certified(x, axis, *site):
                    return False, ("exactness certificate disagrees with the "
                                   "grid on H%s at %s" % (_MARKS[axis], site))
            if not core_equality_check(x, bd):
                return False, "denominators differ at %s" % (bd,)
            a = core_homology(x, bd)
            b = core_homology_alt(x, bd)
            if a.group.invariant_factors != b.group.invariant_factors:
                return False, "route mismatch at %s" % (bd,)
            if not diagonal_shift(a.zero_class(), "+").is_zero():
                return False, "shift moves zero at %s" % (bd,)
            classes = [a.class_of(Element(a.parent, z))
                       for z in a.numerator.matrix.columns()[:2]]
            for cls in classes:
                for there, back in (("+", "-"), ("-", "+")):
                    if diagonal_shift(diagonal_shift(cls, there),
                                      back) != cls:
                        return False, "round trip fails at %s" % (bd,)
            if len(classes) == 2:
                lhs = diagonal_shift(classes[0] + classes[1], "+")
                rhs = diagonal_shift(classes[0], "+") + \
                    diagonal_shift(classes[1], "+")
                if lhs != rhs:
                    return False, "shift is not additive at %s" % (bd,)
        return True, "%s grid over Z/%d" % (kind, m)
    return check


def suite_prop31(rng, inject_fault):
    m = rng.choice(MODULI)
    c = random_exact_complex(m, rng.randrange(2 ** 32), blocks=2)
    d = random_exact_complex(m, rng.randrange(2 ** 32), blocks=2,
                             convention=COHOMOLOGICAL)
    spots = _bidegrees(rng, count=3)
    if inject_fault:
        c, victim = _zero_first_diff(c)
        spots.insert(0, (victim, _first_filled_degree(d)))

    def check():
        for bd in spots:
            for witness in (zprime_witness, zsecond_witness):
                f, b = witness(c, d, bd)
                if b.compose(f) != Morphism.identity(f.source):
                    return False, "%s not left-inverse at %s" % (
                        witness.__name__, bd)
                if f.compose(b) != Morphism.identity(f.target):
                    return False, "%s not right-inverse at %s" % (
                        witness.__name__, bd)
        return True, "over Z/%d" % m
    return check


def suite_thm33(rng, inject_fault):
    m = rng.choice(MODULI)
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    mod_a = FpGroup.from_factors(m, rng.sample(
        divisors, min(len(divisors), rng.randint(1, 2))))
    mod_b = FpGroup.from_factors(m, [rng.choice(divisors)])
    p, _ = complete_projective_resolution(m, mod_a)
    e, _ = complete_injective_resolution(m, mod_b)
    spots = _bidegrees(rng)
    if inject_fault:
        p, victim = _zero_first_diff(p)
        spots.insert(0, (victim, 1))
    grid = hom_bicomplex(p, e)

    def check():
        for i, j in spots:
            left = core_homology(grid, (i, j)).group.invariant_factors
            z_p = _packaged(p.cell(i - 1), cycles(p, i - 1)).group
            mid = homology(hom_from_module(z_p, e), j).group.invariant_factors
            z_e = _packaged(e.cell(j), cycles(e, j)).group
            right = homology(hom_into_module(p, z_e),
                             i).group.invariant_factors
            if not (left == mid == right):
                return False, "triple %s %s %s at %s" % (
                    left, mid, right, (i, j))
        return True, "over Z/%d" % m
    return check


def suite_balance(rng, inject_fault):
    m = rng.choice(MODULI)
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    a, b = rng.choice(divisors), rng.choice(divisors)
    mod_a, mod_b = FpGroup.from_factors(m, [a]), FpGroup.from_factors(m, [b])
    kind = rng.choice(tuple(ROUTES))

    def check():
        if inject_fault:
            p, _ = complete_projective_resolution(m, mod_a)
            grid, _ = balance_grid(kind, _zero_first_diff(p)[0],
                                   _resolution(m, mod_a, mod_b, kind, 1))
            corner = core_homology(grid, (0, 0)).group
            return False, "corner %s" % (corner.invariant_factors,)
        report = balance_report(m, mod_a, mod_b, range(-2, 3), kind)
        bad = [r["degree"] for r in report["degrees"] if not r["pass"]]
        if bad:
            return False, "degrees %s fail" % bad
        # third route, kernel-free: Ext^n and Tor_n of Z/a, Z/b over Z/m
        # are cyclic of order gcd(a, b) * gcd(m/a, b) / b in every degree
        closed = _invariants_of_cyclics([gcd(a, b) * gcd(m // a, b) // b])
        for r in report["degrees"]:
            first = tuple(r[ROUTES[kind][0]])
            if first != closed:
                return False, "degree %d: route %s != closed form %s" % (
                    r["degree"], first, closed)
        return True, "%s over Z/%d: %s vs %s" % (
            kind, m, mod_a.describe(), mod_b.describe())
    return check


SUITES = {
    "snf": suite_snf,
    "abgroup": suite_abgroup,
    "thm21": suite_thm21,
    "prop31": suite_prop31,
    "thm33": suite_thm33,
    "balance": suite_balance,
}


def run_suite(name, seed, cases, inject_fault=False):
    """Rows for one named suite; BadArgument (a ValueError) for an unknown
    name or for fewer than one case, which would pass with nothing checked."""
    fn = SUITES.get(name)
    if fn is None:
        raise BadArgument("unknown suite %r (choose from %s)"
                          % (name, ", ".join(sorted(SUITES))))
    if cases < 1:
        raise BadArgument("case count %d is not positive" % cases)
    rng = random.Random(seed)
    return [_guarded("%s[%d]" % (name, k), fn(rng, inject_fault))
            for k in range(cases)]
