"""Groups presented by a Howell basis keep that basis as their echelon.

Over Z/m, `kernel_image`, `intersect` and `subquotient` each hold the
Howell basis of exactly the lattice that a group they build presents: the
kernel's quotient source / kernel, the quotient parent / (s1 ∩ s2), and
the subquotient's group.  `abgroup._seed` hands that basis to the group as
its relation echelon, so `reduce`, `is_trivial` and `includes` never
echelonize it again.  For the kernel this is sound only when the morphism
is well defined, so `kernel_image` seeds the quotient only when the
morphism's memoised `is_well_defined` says so; asked first, the guard
fills that memo itself.

These tests record every subgroup (`abgroup._span`) and every seeded group
(`abgroup._seed`) that Hom and tensor grids and balance grids over Z/4,
Z/8, Z/9 and Z/12 build, and compare each answer with a copy that
echelonizes the same relations afresh.
"""

import pytest

from bicohom import abgroup, backend
from bicohom.abgroup import (FpGroup, Morphism, Subgroup, kernel_image,
                             subquotient)
from bicohom.bicomplexes import (PRIME, SECOND, core_homology,
                                 core_homology_alt, directional_homology)
from bicohom.complexes import COHOMOLOGICAL
from bicohom.constructions import (hom_bicomplex, random_exact_complex,
                                   tensor_bicomplex)
from bicohom.snf import IntMatrix
from bicohom.tate import balance_report

from helpers import (random_factor_group, random_matrix, random_morphism,
                     seeded)

MODULI = [4, 8, 9, 12]
BIDEGREES = [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.fixture
def recorded(monkeypatch):
    """(subgroups, seeded groups) built while the test runs."""
    subs, groups = [], []
    span, seed = abgroup._span, abgroup._seed

    def spy_span(parent, matrix):
        subs.append(span(parent, matrix))
        return subs[-1]

    def spy_seed(group, basis):
        groups.append(group)
        return seed(group, basis)

    monkeypatch.setattr(abgroup, "_span", spy_span)
    monkeypatch.setattr(abgroup, "_seed", spy_seed)
    return subs, groups


def assert_group_matches(rng, g):
    """reduce, is_trivial and the relation lattice of g agree with a group
    on the same relations whose echelon is built from them."""
    fresh = FpGroup(g.modulus, g.ambient_rank, g.relations)
    m, n = g.modulus, g.ambient_rank
    assert g.is_trivial() == fresh.is_trivial()
    for _ in range(4):
        v = [rng.randrange(-2 * m, 2 * m) for _ in range(n)]
        assert g.reduce(v) == fresh.reduce(v)
    if g.relations.cols:
        rel = g.relations @ random_matrix(rng, g.relations.cols, 2, 3)
        assert g._kills(rel.columns()) and fresh._kills(rel.columns())


def assert_subgroup_matches(rng, s):
    """includes and contains of s agree with a copy of s whose quotient
    is built afresh; the quotient itself is checked as a group."""
    fresh = Subgroup(s.parent, s.matrix)
    n = s.parent.ambient_rank
    inside = Subgroup(s.parent, s.matrix @ random_matrix(rng, s.matrix.cols,
                                                         2, 3))
    outside = Subgroup(s.parent, random_matrix(rng, n, 2))
    for t in (inside, outside, s, Subgroup.full(s.parent)):
        assert s.includes(t) == fresh.includes(t)
    assert s.includes(inside)
    for e in outside.generators:
        assert s.contains(e) == fresh.contains(e)
    assert_group_matches(rng, s._quotient_group())


def grid_work(m, seed):
    """Core invariants, both routes, and H', H'' of one Hom and one tensor
    grid of seeded exact complexes over Z/m."""
    c = random_exact_complex(m, seed, blocks=2)
    for x in (hom_bicomplex(c, random_exact_complex(
                  m, seed + 1, blocks=2, convention=COHOMOLOGICAL)),
              tensor_bicomplex(c, random_exact_complex(m, seed + 1,
                                                       blocks=2))):
        for site in BIDEGREES:
            core_homology(x, site)
            core_homology_alt(x, site)
            for axis in (PRIME, SECOND):
                directional_homology(x, site, axis)


def balance_work(m, rng):
    """Ext and Tor balance reports over Z/m on seeded modules."""
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    for kind in ("ext", "tor"):
        a, b = (FpGroup.from_factors(m, [rng.choice(divisors) for _ in
                                         range(rng.randint(1, 3))])
                for _ in range(2))
        assert balance_report(m, a, b, range(-1, 2), kind)["all_pass"]


@pytest.mark.parametrize("m", MODULI)
def test_seeded_grid_groups_match_fresh_echelons(recorded, m):
    subs, groups = recorded
    grid_work(m, 100 + m)
    assert len(groups) >= 20 and len(subs) >= 40
    assert all(g._echelon is not None for g in groups)
    rng = seeded(m)
    for g in groups:
        assert_group_matches(rng, g)
    for s in subs:
        assert_subgroup_matches(rng, s)


@pytest.mark.parametrize("m", MODULI)
def test_seeded_balance_groups_match_fresh_echelons(recorded, m):
    subs, groups = recorded
    rng = seeded(200 + m)
    balance_work(m, rng)
    assert len(groups) >= 20 and len(subs) >= 40
    for g in groups:
        assert_group_matches(rng, g)
    for s in subs:
        assert_subgroup_matches(rng, s)


@pytest.mark.parametrize("m", MODULI)
def test_ill_defined_kernel_quotient_matches_unseeded(m):
    # the generator of order p < m sent to 1 in Z/m: the kernel basis m*Z
    # misses the source relation p, which source / kernel still has
    p = min(d for d in range(2, m) if m % d == 0)
    src = FpGroup.from_factors(m, [p])
    f = Morphism(src, FpGroup.from_factors(m, [m]), IntMatrix([[1]]))
    assert not f.is_well_defined()
    kernel, _ = kernel_image(f)
    assert kernel.includes(Subgroup(src, [(p,)]))
    assert not kernel.includes(Subgroup.full(src))
    assert kernel._quotient_group().reduce([p + 1]) == (1,)
    rng = seeded(300 + m)
    assert_subgroup_matches(rng, kernel)
    # kernel_image first: its guard asks is_well_defined and memoises the
    # answer; only the well-defined map (the generator to m/p, of order p)
    # comes back with a seeded quotient
    for image, well_defined in ((1, False), (m // p, True)):
        f = Morphism(src, FpGroup.from_factors(m, [m]), IntMatrix([[image]]))
        kernel, _ = kernel_image(f)
        assert f._well_defined is well_defined
        assert (kernel._quotient_group()._echelon is not None) is well_defined
        assert_subgroup_matches(rng, kernel)
    ill_defined = 0
    for _ in range(30):
        source, target = random_factor_group(rng, m), random_factor_group(
            rng, m)
        f = Morphism(source, target, random_matrix(
            rng, target.ambient_rank, source.ambient_rank))
        ill_defined += not f.is_well_defined()
        for half in kernel_image(f):
            assert_subgroup_matches(rng, half)
    assert ill_defined >= 10


def test_presented_groups_are_not_echelonized_again(monkeypatch):
    """Over Z/m a subquotient's group and a kernel's quotient answer every
    question with no col_echelon call of their own; over Z each echelon
    stays lazy and is built on the first question."""
    calls = []
    echelon = backend.col_echelon

    def counted(*args):
        calls.append(args)
        return echelon(*args)

    monkeypatch.setattr(backend, "col_echelon", counted)
    for m in (12, 0):
        rng = seeded(400 + m)
        g = random_factor_group(rng, m)
        num = Subgroup(g, random_matrix(rng, g.ambient_rank, 3))
        den = Subgroup(g, num.matrix @ random_matrix(rng, 3, 1, 3))
        h = subquotient(g, num, den)
        kernel, _ = kernel_image(random_morphism(rng, g, g))
        del calls[:]
        h.group.is_trivial()
        h.group.reduce([1] * h.group.ambient_rank)
        kernel.includes(num)
        assert len(calls) == (0 if m else 2)
