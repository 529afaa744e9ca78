"""Graded complexes: frozen examples with enumeration oracles.

Oracles, written before the implementations they check:
  * strand enumeration: for rank-1 cells over Z/m, kernels and images of
    multiplication maps are listed directly from {0..m-1}.
  * factor merging: homology of a direct sum must carry the merged
    invariant factors of the summands' homologies (prime-power oracle).
"""

import pytest

from bicohom.abgroup import (Element, FpGroup, HClass, Morphism, Subgroup,
                             make_morphism)
from bicohom.complexes import (Complex, Periodic, Window, boundaries,
                               cycles, direct_sum, hom_from_module,
                               hom_into_module, homology, is_exact,
                               module_tensor_with, reindex,
                               tensor_with_module)
from bicohom.errors import (BadArgument, ConventionViolation, NotContained,
                            ParentMismatch)
from bicohom.snf import IntMatrix
from helpers import (disc_complex, invariant_factors_oracle, periodic_strand,
                     seeded)


def mult_kernel(m, a):
    """{x in 0..m-1 : a*x = 0 mod m}, by enumeration."""
    return sorted(x for x in range(m) if (a * x) % m == 0)


def mult_image(m, a):
    return sorted({(a * x) % m for x in range(m)})


# ------------------------------------------------------------ construction


def test_construction_validation():
    z = FpGroup(0, 1)
    ident = Morphism.identity(z)
    with pytest.raises(ConventionViolation):
        # d o d != 0: two identity maps in a row
        Complex.window("homological", 0, 0, 2, [z, z, z],
                       {1: ident, 2: ident})
    with pytest.raises(ConventionViolation):
        # missing cell coverage
        Complex("homological", 0, Window(0, 1), {0: z}, {})
    with pytest.raises(ConventionViolation):
        # a differential that leaves the window
        Complex.window("homological", 0, 0, 1, [z, z], {0: ident})
    z4 = FpGroup.from_factors(4, [4])
    with pytest.raises(ConventionViolation,
                       match="^differential at degree 1 has wrong "
                             "endpoints$"):
        Complex.window("homological", 0, 0, 1, [z, z],
                       {1: Morphism.identity(z4)})
    # x -> x from Z/2 to Z/4 sends the relation 2e to 2 != 0: ill-defined
    half = FpGroup(4, 1, IntMatrix([[2]]))
    with pytest.raises(ConventionViolation,
                       match="^differential at degree 1 ignores relations$"):
        Complex.window("homological", 4, 0, 1, [z4, half],
                       {1: Morphism(half, z4, IntMatrix([[1]]))})
    with pytest.raises(ConventionViolation,
                       match="^cell modulus differs from complex$"):
        Complex.window("homological", 4, 0, 0,
                       [FpGroup.from_factors(8, [8])])
    with pytest.raises(ValueError):
        Complex.window("sideways", 0, 0, 0, [z])
    with pytest.raises(ValueError):
        Periodic(0)
    with pytest.raises(ValueError, match="^empty window$"):
        Window(1, 0)


def test_window_access_rules():
    c = disc_complex(0, [0], 1)  # 0 -> Z -> Z -> 0 with identity
    assert c.cell(7).is_trivial()  # zero outside the window
    assert c.diff(7).is_zero()
    # the differential out of the bottom degree lands in a zero cell, so
    # every element there is a cycle
    assert c.diff(0).is_zero() and c.diff(0).target.is_trivial()
    assert cycles(c, 0) == Subgroup.full(c.cell(0))


def test_periodic_access_wraps():
    c = periodic_strand(4, [2, 2])
    assert c.cell(0) is c.cell(2)
    assert c.diff(-1) is c.diff(1)


def test_support_canonicaliser_contract():
    p = Periodic(3)
    assert p.canonical(-1) == (2, True)
    assert p.canonical(7) == (1, True)
    assert list(p.degrees()) == [0, 1, 2]
    assert p.reflected() == p
    w = Window(-1, 2)
    assert w.canonical(2) == (2, True)
    assert w.canonical(5) == (5, False)  # zero outside: reported outside
    assert list(w.degrees()) == [-1, 0, 1, 2]
    assert w.reflected() == Window(-2, 1)
    assert w.canonical(-2) == (-2, False)
    assert repr(w) == "Window(-1..2)"


def test_periodic_differentials_sharing_a_degree_are_refused():
    z4 = FpGroup.from_factors(4, [4])
    two = make_morphism(z4, z4, IntMatrix([[2]]))
    # 1 and 3 are the same degree mod 2; neither map may be dropped
    with pytest.raises(ConventionViolation, match="degree 1 is given twice"):
        Complex("homological", 4, Periodic(2), {0: z4, 1: z4},
                {1: two, 3: Morphism.zero(z4, z4)})
    c = Complex("homological", 4, Periodic(2), {0: z4, 1: z4},
                {-1: two, 0: two})
    assert c.diff(1) is two


# -------------------------------------------------- cycles and boundaries


def test_cycles_boundaries_disc():
    c = disc_complex(0, [0], 1)
    assert cycles(c, 1).is_zero()
    assert boundaries(c, 0) == Subgroup.full(c.cell(0))
    assert is_exact(c) == []


def test_cycles_boundaries_strand():
    c = periodic_strand(4, [2])
    # oracle: multiplication by 2 on Z/4 has kernel = image = {0, 2}
    assert mult_kernel(4, 2) == [0, 2] == mult_image(4, 2)
    for n in (-1, 0, 5):
        z = cycles(c, n)
        b = boundaries(c, n)
        two = Subgroup(c.cell(n), [(2,)])
        assert z == two and b == two
        assert z.includes(b)


def test_cycles_boundaries_zero_complex():
    c = Complex.zero("homological", 0)
    assert cycles(c, 0).is_zero()
    assert boundaries(c, 0).is_zero()


# ---------------------------------------------------------------- homology


def test_homology_two_term_integer_complex():
    z = FpGroup(0, 1)
    c = Complex.window("homological", 0, 0, 1, [z, z],
                       {1: make_morphism(z, z, IntMatrix([[2]]))})
    assert homology(c, 0).group.invariant_factors == (2,)
    assert homology(c, 1).group.is_trivial()


def test_homology_exact_strand_vanishes():
    c = periodic_strand(4, [2])
    for n in range(-2, 3):
        assert homology(c, n).group.is_trivial()
    assert is_exact(c) == []


def test_homology_truncated_strand():
    z4 = FpGroup.from_factors(4, [4])
    c = Complex.window("homological", 4, 0, 1, [z4, z4],
                       {1: make_morphism(z4, z4, IntMatrix([[2]]))})
    # oracle: enumerate Z/4 -- every class mod im(.2) = {0,2} in ker(0 map)
    reps = []
    for x in range(4):
        if not any((x - r) % 4 in (0, 2) for r in reps):
            reps.append(x)
    assert len(reps) == 2
    assert homology(c, 0).group.invariant_factors == (2,)
    # at the top the truncation leaves ker(.2) = {0,2} with no boundaries
    assert homology(c, 1).group.invariant_factors == (2,)


def test_is_exact_reports():
    only = Complex.window("homological", 0, 0, 0,
                          [FpGroup.from_factors(0, [2])])
    assert is_exact(only) == [(0, "Z/2")]
    strand9 = periodic_strand(9, [3, 3])
    assert mult_kernel(9, 3) == [0, 3, 6] == mult_image(9, 3)
    assert is_exact(strand9) == []
    assert is_exact(strand9, -4, 4) == []


def test_hclass_semantics():
    c = periodic_strand(4, [0])  # zero differential: H = Z/4 everywhere
    h = homology(c, 0)
    one = HClass(h, Element(c.cell(0), (1,)))
    five = HClass(h, Element(c.cell(0), (5,)))
    assert one == five
    assert (one - five).is_zero()
    assert not one.is_zero()
    assert one.value() == h.project(one.representative)
    again = h.class_of(h.representative(one.value()))
    assert again == one
    strand = periodic_strand(4, [2])
    hh = homology(strand, 0)
    two = HClass(hh, Element(strand.cell(0), (2,)))
    assert two.is_zero()  # 2 is a boundary of the exact strand
    with pytest.raises(NotContained):
        HClass(hh, Element(strand.cell(0), (1,)))  # 1 is not a cycle
    with pytest.raises(ParentMismatch):
        one + two


def test_periodic_homology_at_a_shifted_degree():
    c = periodic_strand(4, [0, 0])  # zero differentials: H = Z/4 everywhere
    canon = homology(c, 0)
    shifted = homology(c, 2)
    assert shifted.index == 2 and canon.index == 0
    assert shifted.group is canon.group
    assert homology(c, 0) is canon  # the canonical degree stays memoized
    rep = Element(c.cell(0), (1,))
    with pytest.raises(ParentMismatch):
        shifted.class_of(rep) + canon.class_of(rep)
    assert shifted.class_of(rep) == shifted.class_of(Element(c.cell(2), (5,)))


def test_periodic_homology_translation_invariance():
    c = periodic_strand(8, [2, 4])
    for n in range(-3, 3):
        a = homology(c, n).group
        b = homology(c, n + 2).group
        assert a.invariant_factors == b.invariant_factors
        assert a.free_rank == b.free_rank


# ------------------------------------------------------------ hom functors


def test_hom_into_module_strand():
    c = periodic_strand(4, [2])
    z2 = FpGroup.from_factors(4, [2])
    h = hom_into_module(c, z2)
    assert h.convention == "cohomological"
    assert h.cell(0).invariant_factors == (2,)
    # .2 kills Z/2, so the induced map vanishes
    assert h.diff(0).is_zero()
    assert is_exact(h) == [(0, "Z/2")]


def test_hom_into_module_degenerate():
    c = periodic_strand(4, [2])
    zero = FpGroup(4, 0)
    h = hom_into_module(c, zero)
    assert h.cell(0).is_trivial()
    disc = disc_complex(0, [0], 3)
    hd = hom_into_module(disc, FpGroup(0, 1))
    assert is_exact(hd) == []
    assert hd.support == Window(2, 3)


def test_hom_from_module_examples():
    d = periodic_strand(4, [2], convention="cohomological")
    z = FpGroup(0, 1)
    like_d = hom_from_module(z, d)
    assert like_d.cell(0).invariant_factors == d.cell(0).invariant_factors
    assert [f for _, f in is_exact(like_d)] == [f for _, f in is_exact(d)]
    z2 = FpGroup.from_factors(4, [2])
    h = hom_from_module(z2, d)
    assert h.cell(0).invariant_factors == (2,)
    assert h.diff(0).is_zero()
    nothing = hom_from_module(FpGroup(4, 0), d)
    assert nothing.cell(0).is_trivial()


def test_hom_requires_matching_convention():
    c = periodic_strand(4, [2])
    d = periodic_strand(4, [2], convention="cohomological")
    z2 = FpGroup.from_factors(4, [2])
    with pytest.raises(ValueError):
        hom_into_module(d, z2)
    with pytest.raises(ValueError):
        hom_from_module(z2, c)


# --------------------------------------------------------- tensor functors


def test_tensor_requires_a_homological_complex():
    d = periodic_strand(4, [2], convention="cohomological")
    z2 = FpGroup.from_factors(4, [2])
    with pytest.raises(ValueError, match="^tensor_with_module expects a "
                                         "homological complex$"):
        tensor_with_module(d, z2)
    with pytest.raises(ValueError, match="^module_tensor_with expects a "
                                         "homological complex$"):
        module_tensor_with(z2, d)


def test_tensor_with_module_examples():
    c = periodic_strand(4, [2])
    z = FpGroup(0, 1)
    same = tensor_with_module(c, z)
    assert same.cell(0).invariant_factors == (4,)
    assert homology(same, 0).group.invariant_factors == ()
    z2 = FpGroup.from_factors(4, [2])
    t = tensor_with_module(c, z2)
    assert t.cell(0).invariant_factors == (2,)
    assert t.diff(0).is_zero()
    tt = module_tensor_with(z2, c)
    assert tt.cell(0).invariant_factors == (2,)
    assert tt.diff(0).is_zero()
    nothing = tensor_with_module(c, FpGroup(4, 0))
    assert nothing.cell(0).is_trivial()


def test_tensor_window_complex():
    z = FpGroup(0, 1)
    c = Complex.window("homological", 0, 0, 1, [z, z],
                       {1: make_morphism(z, z, IntMatrix([[2]]))})
    z4 = FpGroup.from_factors(0, [4])
    t = tensor_with_module(c, z4)
    assert homology(t, 0).group.invariant_factors == (2,)
    # Z/4 (x) (Z -2-> Z) also has Tor showing up in degree 1
    assert homology(t, 1).group.invariant_factors == (2,)


# ------------------------------------------------------ reindex, direct sum


def test_reindex_matches_homology():
    z = FpGroup(0, 1)
    c = Complex.window("homological", 0, 0, 2, [z, z, z],
                       {1: make_morphism(z, z, IntMatrix([[2]])),
                        2: Morphism.zero(z, z)})
    r = reindex(c)
    assert r.convention == "cohomological"
    for n in range(-1, 4):
        a = homology(c, n).group
        b = homology(r, -n).group
        assert a.invariant_factors == b.invariant_factors
        assert a.free_rank == b.free_rank
    back = reindex(r)
    for n in range(0, 3):
        assert (homology(back, n).group.invariant_factors
                == homology(c, n).group.invariant_factors)


def test_reindex_periodic():
    c = periodic_strand(8, [2, 4])
    r = reindex(c)
    for n in range(-2, 3):
        assert (homology(c, n).group.invariant_factors
                == homology(r, -n).group.invariant_factors)


def test_direct_sum_homology_merges():
    rng = seeded(47)
    for _ in range(10):
        top1 = rng.randint(-2, 2)
        top2 = rng.randint(-2, 2)
        c1 = disc_complex(0, [rng.choice([0, 2, 4])], top1)
        c2 = disc_complex(0, [rng.choice([0, 3, 9])], top2)
        total = direct_sum(c1, c2)
        assert is_exact(total) == []  # sums of discs stay exact
    a = Complex.window("homological", 0, 0, 0, [FpGroup.from_factors(0, [4])])
    b = Complex.window("homological", 0, 0, 0, [FpGroup.from_factors(0, [6])])
    total = direct_sum(a, b)
    merged = invariant_factors_oracle([4, 6])
    assert homology(total, 0).group.invariant_factors == merged


def test_direct_sum_commutes_with_hom_functor():
    z2 = FpGroup.from_factors(0, [2])
    a = periodic_strand(4, [2])
    b = periodic_strand(4, [0])
    total = direct_sum(a, b)
    hom_total = hom_into_module(total, FpGroup.from_factors(4, [2]))
    hom_a = hom_into_module(a, FpGroup.from_factors(4, [2]))
    hom_b = hom_into_module(b, FpGroup.from_factors(4, [2]))
    for n in (0,):
        merged = invariant_factors_oracle(
            list(homology(hom_a, n).group.invariant_factors)
            + list(homology(hom_b, n).group.invariant_factors))
        assert homology(hom_total, n).group.invariant_factors == merged
    del z2


def test_direct_sum_periodic_lcm():
    a = periodic_strand(4, [2, 2])
    b = periodic_strand(4, [2, 2, 2])
    total = direct_sum(a, b)
    assert isinstance(total.support, Periodic)
    assert total.support.period == 6
    assert is_exact(total) == []


def test_direct_sum_rejects_mismatches():
    a = periodic_strand(4, [2])
    b = periodic_strand(8, [2, 4])
    with pytest.raises(ValueError):
        direct_sum(a, b)
    c = disc_complex(4, [4], 0)
    with pytest.raises(ValueError):
        direct_sum(a, c)
    co = periodic_strand(4, [2], convention="cohomological")
    with pytest.raises(ValueError,
                       match="^direct summands use different conventions$"):
        direct_sum(a, co)


@pytest.mark.parametrize("hi", [0, 1])
def test_is_exact_refuses_an_empty_range(hi):
    # a backward range is empty; it must not read as exact
    z4 = FpGroup.from_factors(4, [4])
    t = Complex.window("homological", 4, 0, hi, [z4] * (hi + 1))
    assert is_exact(t) == [(n, "Z/4") for n in range(hi + 1)]
    with pytest.raises(BadArgument,
                       match=r"^empty degree range %d\.\.%d$" % (hi + 1, hi)):
        is_exact(t, hi + 1, hi)
    with pytest.raises(BadArgument, match=r"^empty degree range 2\.\.1$"):
        is_exact(periodic_strand(4, [2]), 2, 1)
