"""Finitely presented groups: frozen examples checked by independent oracles.

Oracles, written before the implementations they check:
  * hom enumeration: every homomorphism between small finite groups is
    listed by brute force (choose an image of each cyclic generator whose
    order kills it); hom_group sizes and realized morphisms must match.
  * tensor presentation: the tensor product is independently presented on
    the rank*rank generators e_i (x) f_j with relations pushed in from both
    factors, then reduced by one Smith computation.
  * coset counting: subquotient orders are recounted by enumerating the
    numerator subgroup and bucketing modulo the denominator.
  * prime-power merge: invariant factors of a scrambled presentation are
    recomputed from the cyclic factors by splitting into prime powers and
    remerging them largest-first.
"""

from itertools import count, product
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from bicohom import abgroup, backend, suites
from bicohom.abgroup import (Element, FpGroup, Morphism, Subgroup, direct_sum,
                             hom_group, induced_hom_map, induced_tensor_map,
                             intersect, invert_isomorphism, kernel_image,
                             make_morphism, preimage_element, subquotient,
                             tensor_group)
from bicohom.bicomplexes import (I_THEN_II, PRIME, SECOND, core_homology,
                                 core_homology_alt, directional_homology,
                                 iterated_homology)
from bicohom.cli import main
from bicohom.complexes import COHOMOLOGICAL
from bicohom.constructions import (hom_bicomplex, random_exact_complex,
                                   tensor_bicomplex)
from bicohom.formats import parse_complex, serialize_complex
from bicohom.errors import (IllDefined, InternalChaseFailure, NotAnIsomorphism,
                            NotContained, ParentMismatch)
from bicohom.snf import IntMatrix, smith_normal_form
from bicohom.tate import EXT, TOR, balance_report
from helpers import (full_relation_factors, invariant_factors_oracle,
                     random_factor_group, random_matrix, random_morphism,
                     random_unimodular, reference_tensor_map,
                     scrambled_group, seeded)


# ---------------------------------------------------------------- oracles


def enumerate_hom_signatures(g, h):
    """All homomorphisms g -> h as tuples of reduced images of the ambient
    generators.  Never consults hom_group."""
    form = g.cyclic_decomposition()
    assert 0 not in form.orders, "enumeration needs a finite source"
    h_elts = list(h.elements())
    choices = [[y for y in h_elts if (a * y).is_zero()] for a in form.orders]
    sigs = set()
    for combo in product(*choices):
        imgs = []
        for k in range(g.ambient_rank):
            acc = h.zero()
            for i, y in enumerate(combo):
                acc = acc + form.to_cyclic[(i, k)] * y
            imgs.append(h.reduce(acc.coords))
        sigs.add(tuple(imgs))
    # distinct generator choices are distinct homomorphisms
    assert len(sigs) == len(list(product(*choices)))
    return sigs


def morphism_signature(f):
    return tuple(f.target.reduce(f.matrix.column(k))
                 for k in range(f.source.ambient_rank))


def tensor_shape_oracle(g, h):
    """(invariant factors, free rank) of g (x) h from the raw presentation
    on all rank*rank elementary tensors."""
    rg, rh = g.ambient_rank, h.ambient_rank
    cols = []
    for c in g.full_relations.columns():
        for j in range(rh):
            col = [0] * (rg * rh)
            for i in range(rg):
                col[i * rh + j] = c[i]
            cols.append(col)
    for c in h.full_relations.columns():
        for i in range(rg):
            col = [0] * (rg * rh)
            for j in range(rh):
                col[i * rh + j] = c[j]
            cols.append(col)
    mat = IntMatrix.from_columns(cols, rows=rg * rh)
    diag = smith_normal_form(mat).diagonal
    orders = [diag[i] if i < len(diag) else 0 for i in range(rg * rh)]
    return (tuple(d for d in orders if d not in (0, 1)),
            sum(1 for d in orders if d == 0))


def count_cosets(parent, num, den):
    """|num/den| by enumeration of the parent group."""
    members = [x for x in parent.elements() if num.contains(x)]
    reps = []
    for x in members:
        if not any(den.contains(x - r) for r in reps):
            reps.append(x)
    return len(reps)


# ---------------------------------------------------- groups and elements


def test_modulus_validation():
    with pytest.raises(ValueError):
        FpGroup(1, 2)
    with pytest.raises(ValueError):
        FpGroup(-4, 1)
    with pytest.raises(ValueError):
        FpGroup(0, 2, IntMatrix([[1, 0]]))  # wrong row count


@pytest.mark.parametrize("call, message", [
    (lambda: FpGroup(4, -1), "ambient rank must be nonnegative"),
    (lambda: Element(FpGroup.free(4, 2), (1,)),
     "coordinate length differs from ambient rank"),
    (lambda: Morphism(FpGroup.free(4, 2), FpGroup.free(4, 1),
                      IntMatrix.identity(2)),
     "matrix shape 2x2 does not map rank 2 to 1"),
    (lambda: direct_sum(FpGroup.free(4, 1), FpGroup.free(8, 1)),
     "direct summands must share a modulus"),
], ids=["rank", "element", "morphism", "direct_sum"])
def test_abgroup_refuses_inputs_that_do_not_fit(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


def test_describe_and_factors():
    assert FpGroup.from_factors(0, [2, 4]).describe() == "Z/2 (+) Z/4"
    assert FpGroup.from_factors(0, [4, 2]).invariant_factors == (2, 4)
    assert FpGroup.from_factors(0, [2, 0]).describe() == "Z/2 (+) Z"
    assert FpGroup.from_factors(0, [0, 0]).describe() == "Z^2"
    assert FpGroup(0, 0).describe() == "0"
    assert FpGroup.from_factors(6, [2, 3]).invariant_factors == (6,)
    assert FpGroup.free(4, 2).invariant_factors == (4, 4)
    assert FpGroup.from_factors(0, [2, 4]).order() == 8
    # relations given as a list of rows
    assert FpGroup(0, 2, [[4, 0], [0, 2]]).invariant_factors == (2, 4)
    assert FpGroup.from_factors(0, [2, 0]).order() is None


def test_scrambled_invariant_factors_match_prime_power_oracle():
    rng = seeded(20260814)
    pool = [2, 3, 4, 5, 8, 9, 12]
    for _ in range(40):
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        g = scrambled_group(rng, 0, factors)
        assert g.invariant_factors == invariant_factors_oracle(factors)
        assert g.free_rank == 0
    for _ in range(20):
        factors = [rng.choice(pool + [0, 0]) for _ in range(rng.randint(1, 3))]
        g = scrambled_group(rng, 0, factors)
        finite = [d for d in factors if d]
        assert g.invariant_factors == invariant_factors_oracle(finite)
        assert g.free_rank == factors.count(0)


def test_cyclic_roundtrip_is_identity():
    rng = seeded(7)
    for _ in range(60):
        factors = [rng.choice([0, 2, 3, 4, 8]) for _ in range(rng.randint(0, 3))]
        g = scrambled_group(rng, 0, factors)
        form = g.cyclic_decomposition()
        coords = [rng.randint(-20, 20) for _ in range(g.ambient_rank)]
        x = Element(g, coords)
        back = Element(g, form.from_cyclic.mul_vector(
            form.to_cyclic.mul_vector(coords)))
        assert back == x


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([0, 2, 3, 4, 8, 9]), max_size=3),
       st.integers(min_value=0, max_value=2 ** 30))
def test_cyclic_roundtrip_hypothesis(factors, seed):
    rng = seeded(seed)
    g = scrambled_group(rng, 0, factors)
    coords = [rng.randint(-9, 9) for _ in range(g.ambient_rank)]
    form = g.cyclic_decomposition()
    back = form.from_cyclic.mul_vector(form.to_cyclic.mul_vector(coords))
    assert Element(g, back) == Element(g, coords)
    assert g.free_rank == factors.count(0)


def test_element_equality_is_semantic():
    g = FpGroup.from_factors(0, [4])
    assert Element(g, (1,)) == Element(g, (5,))
    assert Element(g, (1,)) != Element(g, (2,))
    assert hash(Element(g, (1,))) == hash(Element(g, (-3,)))
    h = FpGroup.from_factors(0, [4])
    assert Element(g, (1,)) == Element(h, (1,))  # structurally equal parents
    k = FpGroup.from_factors(0, [8])
    assert Element(g, (1,)) != Element(k, (1,))


def test_element_enumeration_counts():
    g = FpGroup.from_factors(0, [2, 3])
    elts = list(g.elements())
    assert len(elts) == 6 == g.order()
    assert len(set(elts)) == 6
    with pytest.raises(ValueError):
        list(FpGroup(0, 1).elements())


# -------------------------------------------------------------- morphisms


def test_make_morphism_examples():
    z4 = FpGroup.from_factors(4, [4])
    f = make_morphism(z4, z4, IntMatrix([[2]]))
    assert f(Element(z4, (1,))) == Element(z4, (2,))
    z2 = FpGroup.from_factors(4, [2])
    with pytest.raises(IllDefined):
        make_morphism(z2, z4, IntMatrix([[1]]))
    inj = make_morphism(z2, z4, IntMatrix([[2]]))
    assert not inj.is_zero()
    assert make_morphism(z2, z4, [[2]]) == inj  # a list matrix


def test_raw_ill_defined_maps_are_refused():
    # x -> x from Z/2 to Z/4, built raw, sends the relation 2e to 2 != 0
    z2 = FpGroup.from_factors(4, [2])
    z4 = FpGroup.from_factors(4, [4])
    raw = Morphism(z2, z4, IntMatrix([[1]]))
    assert not raw.is_well_defined()
    message = "^morphism does not respect the relations$"
    with pytest.raises(IllDefined, match=message):
        hom_group(z2, z4).element_of(raw)
    with pytest.raises(IllDefined, match=message):
        induced_hom_map(hom_group(z4, z4), hom_group(z2, z4), precompose=raw)


def _ill_defined_factor_calls():
    # the raw map above as the other three factors (precomposition is in
    # the test above); their products have no remainder to betray it, so
    # only the factor map's own is_well_defined sees the fault
    z2 = FpGroup.from_factors(4, [2])
    z4 = FpGroup.from_factors(4, [4])
    raw, id4 = Morphism(z2, z4, IntMatrix([[1]])), Morphism.identity(z4)
    return [
        lambda: induced_hom_map(hom_group(z4, z2), hom_group(z4, z4),
                                postcompose=raw),
        lambda: induced_tensor_map(tensor_group(z2, z4),
                                   tensor_group(z4, z4), raw, id4),
        lambda: induced_tensor_map(tensor_group(z4, z2),
                                   tensor_group(z4, z4), id4, raw),
    ]


@pytest.mark.parametrize("call", _ill_defined_factor_calls(),
                         ids=["postcompose", "tensor_left", "tensor_right"])
def test_an_ill_defined_factor_map_is_refused(call):
    # induced maps are not checked at grid size: the factor maps are
    with pytest.raises(IllDefined,
                       match="^morphism does not respect the relations$"):
        call()


def _mismatched_parents():
    z2 = FpGroup.from_factors(4, [2])
    z4 = FpGroup.from_factors(4, [4])
    one = Element(z2, (1,))
    whole = subquotient(z4, Subgroup.full(z4), Subgroup.zero(z4))
    id2, id4 = Morphism.identity(z2), Morphism.identity(z4)
    hom44, ten44 = hom_group(z4, z4), tensor_group(z4, z4)
    return [
        (lambda: Morphism.identity(z4)(one),
         "element is not in the morphism's source"),
        (lambda: preimage_element(Morphism.identity(z4), one),
         "element is not in the morphism's target"),
        (lambda: intersect(Subgroup.full(z4), Subgroup.full(z2)),
         "subgroups of different groups"),
        (lambda: subquotient(z4, Subgroup.full(z2), Subgroup.zero(z2)),
         "subgroups of a different group"),
        (lambda: whole.project(one), "element is not in the ambient group"),
        (lambda: tensor_group(z4, z4).pure(one, Element(z4, (1,))),
         "factors are not in the tensor's factors"),
        (lambda: Element(z4, (1,)) + one, "elements live in different groups"),
        (lambda: id4 + id2, "morphism sum endpoints do not match"),
        (lambda: one in Subgroup.full(z4),
         "element is not in the parent group"),
        (lambda: whole.representative(one),
         "element is not a class of this subquotient"),
        (lambda: hom44.realize(one), "element is not in this hom group"),
        (lambda: hom44.element_of(id2), "morphism endpoints do not match"),
        (lambda: induced_hom_map(hom44, hom44, precompose=id2),
         "precomposition map endpoints do not match"),
        (lambda: induced_hom_map(hom44, hom44, postcompose=id2),
         "postcomposition map endpoints do not match"),
        (lambda: induced_tensor_map(ten44, ten44, id2, id4),
         "left factor map endpoints do not match"),
        (lambda: induced_tensor_map(ten44, ten44, id4, id2),
         "right factor map endpoints do not match"),
        (lambda: id4.compose(id2), "composition endpoints do not match"),
        (lambda: Subgroup.full(z4).includes(Subgroup.full(z2)),
         "subgroups of different groups"),
        (lambda: whole.class_of(one),
         "representative lives in the wrong cell"),
        (lambda: whole.zero_class() + subquotient(
            z4, Subgroup.full(z4), Subgroup.zero(z4)).zero_class(),
         "classes from different homology sites"),
    ]


@pytest.mark.parametrize("call, message", _mismatched_parents(),
                         ids=["call", "preimage_element", "intersect",
                              "subquotient", "project", "pure", "element_sum",
                              "morphism_sum", "contains", "representative",
                              "realize", "element_of", "precompose",
                              "postcompose", "tensor_left", "tensor_right",
                              "compose", "includes", "class_of",
                              "class_sum"])
def test_parent_mismatches_are_named(call, message):
    with pytest.raises(ParentMismatch, match="^%s$" % message):
        call()


def test_morphism_algebra():
    g = FpGroup.from_factors(0, [4])
    f = make_morphism(g, g, IntMatrix([[2]]))
    assert f.compose(f) == make_morphism(g, g, IntMatrix([[4]]))
    assert f.compose(f).is_zero()
    assert f + f == make_morphism(g, g, IntMatrix([[4]]))
    assert Morphism.identity(g).compose(f) == f
    assert f.compose(Morphism.identity(g)) == f
    h = FpGroup.from_factors(0, [2])
    with pytest.raises(ParentMismatch):
        f.compose(make_morphism(g, h, IntMatrix([[1]])))
    # other endpoints, or no morphism at all, are unequal, not an error
    assert make_morphism(g, h, IntMatrix([[0]])) != f - f
    assert f != 2


@pytest.mark.parametrize("source, target, defined",
                         [(4, 2, True), (2, 4, False)])
def test_is_well_defined_is_decided_once(monkeypatch, source, target,
                                         defined):
    # 1 -> 1 from Z/source to Z/target respects relations iff target | source
    f = Morphism(FpGroup.from_factors(0, [source]),
                 FpGroup.from_factors(0, [target]), IntMatrix([[1]]))
    assert f.is_well_defined() is defined
    calls = []
    real = FpGroup._kills

    def counting(self, columns):
        calls.append(columns)
        return real(self, columns)

    monkeypatch.setattr(FpGroup, "_kills", counting)
    assert f.is_well_defined() is defined
    assert calls == []


@pytest.mark.parametrize("source, target, relations, defined, reduced", [
    # 4 | 8: the m*e_i columns map to 0 in Z/4, only relations are reduced
    (FpGroup.free(8, 1), FpGroup.free(4, 1), [[1]], True, 0),
    (FpGroup.from_factors(8, [2, 4]), FpGroup.from_factors(4, [2, 4]),
     [[1, 0], [0, 1]], True, 2),
    # 8 does not divide 4: the column 4*e_0 is reduced, and is 4 != 0 in Z/8
    (FpGroup.free(4, 1), FpGroup.free(8, 1), [[1]], False, 1),
    (FpGroup.from_factors(0, [4]), FpGroup.free(8, 1), [[2]], True, 1),
], ids=["z8_to_z4", "relations_only", "z4_to_z8", "over_z"])
def test_well_definedness_skips_columns_the_target_kills(
        monkeypatch, source, target, relations, defined, reduced):
    calls = [0]
    real = backend.reduce_columns

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(backend, "reduce_columns", counting)
    f = Morphism(source, target, IntMatrix(relations))
    assert f.is_well_defined() is defined
    assert calls[0] == reduced


def test_kernel_image_examples():
    z4 = FpGroup.from_factors(0, [4])
    f = make_morphism(z4, z4, IntMatrix([[2]]))
    ker, img = kernel_image(f)
    two = Subgroup(z4, [(2,)])
    assert ker == two and img == two
    z6 = FpGroup.from_factors(0, [6])
    ker, img = kernel_image(Morphism.identity(z6))
    assert ker.is_zero()
    assert img == Subgroup.full(z6)
    z = FpGroup(0, 1)
    ker, img = kernel_image(make_morphism(z, z, IntMatrix([[6]])))
    assert ker.is_zero()
    assert img == Subgroup(z, [(6,)])
    assert not img.contains(Element(z, (3,)))


def test_kernel_image_exactness_by_enumeration():
    rng = seeded(11)
    for _ in range(25):
        g = scrambled_group(rng, 0, [rng.choice([2, 4, 8]),
                                     rng.choice([2, 3, 4])])
        h = scrambled_group(rng, 0, [rng.choice([4, 6, 8])])
        hg = hom_group(g, h)
        if hg.group.is_trivial():
            continue
        elt = rng.choice([e for e in hg.group.elements()])
        f = hg.realize(elt)
        ker, img = kernel_image(f)
        for x in g.elements():
            assert ker.contains(x) == f(x).is_zero()
        for y in h.elements():
            has_preimage = any(f(x) == y for x in g.elements())
            assert img.contains(y) == has_preimage


# ------------------------------------------------------------- subgroups


def test_subgroup_membership_and_equality():
    g = FpGroup.from_factors(0, [4, 4])
    s = Subgroup(g, [(2, 0), (0, 2)])
    assert Element(g, (2, 2)) in s
    assert Element(g, (1, 0)) not in s
    assert s == Subgroup(g, [(2, 2), (2, 0)])
    assert s != Subgroup(g, [(2, 0)])
    assert s.includes(Subgroup(g, [(2, 2)]))
    h = FpGroup.from_factors(0, [4])
    with pytest.raises(ParentMismatch):
        s.includes(Subgroup(h, [(2,)]))
    # another parent, or no subgroup at all, is unequal, not an error
    assert Subgroup(h, [(2,)]) != Subgroup(g, [(2, 0)])
    assert s != [(2, 0), (0, 2)]


def test_subgroup_checks_its_generators():
    g = FpGroup.from_factors(0, [4, 4])
    other = FpGroup.from_factors(0, [4])
    with pytest.raises(ParentMismatch, match="generator is not in the parent"):
        Subgroup(g, [Element(other, (1,))])
    with pytest.raises(ValueError):
        Subgroup(g, [(1, 0, 0)])
    with pytest.raises(TypeError):
        Subgroup(g, [(1.5, 0)])
    with pytest.raises(ValueError, match="rows mismatch"):
        Subgroup(g, IntMatrix([[1, 0, 0]]))
    assert Subgroup(g, IntMatrix([[2], [0]])) == Subgroup(g, [(2, 0)])
    empty = Subgroup(g, [])
    assert empty.is_zero()
    assert empty == Subgroup.zero(g)


def test_intersect_examples():
    g = FpGroup(0, 2)
    s1 = Subgroup(g, [(1, 0)])
    s2 = Subgroup(g, [(0, 1)])
    assert intersect(s1, s2).is_zero()
    assert intersect(s1, s1) == s1
    z4 = FpGroup.from_factors(4, [4])
    s = Subgroup(z4, [(2,)])
    meet = intersect(s, s)
    assert meet == s
    assert meet.contains(Element(z4, (2,)))


def test_intersect_by_enumeration():
    rng = seeded(13)
    for _ in range(20):
        g = scrambled_group(rng, 0, [rng.choice([4, 8]), rng.choice([2, 6])])
        elts = list(g.elements())
        s1 = Subgroup(g, [rng.choice(elts) for _ in range(2)])
        s2 = Subgroup(g, [rng.choice(elts) for _ in range(2)])
        meet = intersect(s1, s2)
        for x in elts:
            assert meet.contains(x) == (s1.contains(x) and s2.contains(x))


# ----------------------------------------------------------- subquotients


def test_subquotient_z_example():
    z = FpGroup(0, 1)
    q = subquotient(z, Subgroup(z, [(2,)]), Subgroup(z, [(6,)]))
    assert q.group.invariant_factors == (3,)
    x = Element(z, (4,))
    cls = q.project(x)
    assert q.representative(cls) == x
    assert q.project(Element(z, (6,))).is_zero()
    with pytest.raises(NotContained):
        q.project(Element(z, (3,)))


def test_subquotient_order4_example():
    g = FpGroup.from_factors(4, [4, 4])
    num = Subgroup(g, [(2, 0), (0, 2)])
    den = Subgroup(g, [(2, 2)])
    # oracle: enumerate the numerator and count cosets
    assert count_cosets(g, num, den) == 2
    q = subquotient(g, num, den)
    assert q.group.invariant_factors == (2,)
    assert q.project(Element(g, (2, 2))).is_zero()
    assert not q.project(Element(g, (2, 0))).is_zero()


def test_subquotient_degenerate_cases():
    g = FpGroup.from_factors(0, [4, 6])
    full = Subgroup.full(g)
    zero = Subgroup.zero(g)
    some = Subgroup(g, [(1, 3)])
    assert subquotient(g, some, some).group.is_trivial()
    q = subquotient(g, full, zero)
    assert q.group.invariant_factors == g.invariant_factors
    assert q.group.free_rank == g.free_rank
    with pytest.raises(NotContained):
        subquotient(g, Subgroup(g, [(2, 0)]), Subgroup(g, [(1, 0)]))


def test_subquotient_matches_coset_count():
    rng = seeded(17)
    for _ in range(20):
        g = scrambled_group(rng, 0, [rng.choice([4, 8, 9]),
                                     rng.choice([2, 4])])
        elts = list(g.elements())
        num = Subgroup(g, [rng.choice(elts) for _ in range(2)])
        # a combination of num's generators is automatically inside num
        combo = (rng.randint(0, 3) * num.generators[0]
                 + rng.randint(0, 3) * num.generators[1])
        den = Subgroup(g, [combo])
        q = subquotient(g, num, den)
        assert q.group.order() == count_cosets(g, num, den)
        for x in elts:
            if num.contains(x):
                assert q.representative(q.project(x)) == x


def test_subquotient_project_lift_inverse_on_classes():
    g = FpGroup.from_factors(6, [6, 6])
    num = Subgroup(g, [(2, 0), (0, 3)])
    den = Subgroup(g, [(4, 3)])
    q = subquotient(g, num, den)
    assert q.group.order() == count_cosets(g, num, den)
    for cls in q.group.elements():
        assert q.project(q.representative(cls)) == cls


# -------------------------------------------------------------- hom groups


HOM_CASES = [
    ((4,), (6,), (2,)),
    ((4,), (4,), (4,)),
    ((2, 4), (8,), (2, 4)),
    ((2, 2), (2, 4), (2, 2, 2, 2)),
    ((6,), (9,), (3,)),
    ((3, 9), (27,), (3, 9)),
    ((2, 4, 4), (8, 2), (2, 2, 2, 4, 2, 4)),
]


def test_hom_group_sizes_match_enumeration():
    rng = seeded(19)
    for src_f, tgt_f, _ in HOM_CASES:
        g = scrambled_group(rng, 0, list(src_f))
        h = scrambled_group(rng, 0, list(tgt_f))
        sigs = enumerate_hom_signatures(g, h)
        hg = hom_group(g, h)
        assert hg.group.order() == len(sigs)
        realized = {morphism_signature(hg.realize(e))
                    for e in hg.group.elements()}
        assert realized == sigs


def test_hom_frozen_examples():
    z4 = FpGroup.from_factors(0, [4])
    z6 = FpGroup.from_factors(0, [6])
    # oracle inline: maps 1 -> k with 4k = 0 mod 6, i.e. k in {0, 3}
    assert sum(1 for k in range(6) if (4 * k) % 6 == 0) == 2
    assert hom_group(z4, z6).group.invariant_factors == (2,)
    assert hom_group(z4, z4).group.invariant_factors == (4,)
    expected = {factors: invariant_factors_oracle(
        [gcd(a, b) for a in factors[0] for b in factors[1]])
        for factors in [((4,), (6,))]}
    assert expected[((4,), (6,))] == (2,)


def test_hom_with_free_pieces():
    z = FpGroup(0, 1)
    h = FpGroup.from_factors(0, [4, 6, 0])
    hg = hom_group(z, h)
    assert hg.group.invariant_factors == h.invariant_factors
    assert hg.group.free_rank == h.free_rank
    # Hom(Z/a, Z) = 0
    z4 = FpGroup.from_factors(0, [4])
    assert hom_group(z4, FpGroup(0, 2)).group.is_trivial()
    # Hom(Z^2, Z) = Z^2
    assert hom_group(FpGroup(0, 2), z).group.free_rank == 2
    # realize on Hom(Z, H) hits the identity-like generators
    for e in [x for x in [Element(hg.group, c) for c in
                          [(1, 0, 0), (0, 1, 0)]]]:
        f = hg.realize(e)
        assert f.is_well_defined()


def test_realize_is_additive_and_well_defined():
    rng = seeded(23)
    g = scrambled_group(rng, 0, [4, 6])
    h = scrambled_group(rng, 0, [8, 3])
    hg = hom_group(g, h)
    elts = list(hg.group.elements())
    for _ in range(20):
        e1, e2 = rng.choice(elts), rng.choice(elts)
        assert hg.realize(e1).is_well_defined()
        assert hg.realize(e1 + e2) == hg.realize(e1) + hg.realize(e2)


def test_element_of_inverts_realize():
    rng = seeded(29)
    for src_f, tgt_f, _ in HOM_CASES[:5]:
        g = scrambled_group(rng, 0, list(src_f))
        h = scrambled_group(rng, 0, list(tgt_f))
        hg = hom_group(g, h)
        for e in hg.group.elements():
            assert hg.element_of(hg.realize(e)) == e
        # and realize inverts element_of, starting from enumerated matrices
        for sig in list(enumerate_hom_signatures(g, h))[:8]:
            f = make_morphism(g, h, IntMatrix.from_columns(
                sig, rows=h.ambient_rank))
            assert morphism_signature(hg.realize(hg.element_of(f))) \
                == morphism_signature(f)


def test_hom_invariant_factor_table():
    for src_f, tgt_f, expected in HOM_CASES:
        g = FpGroup.from_factors(0, list(src_f))
        h = FpGroup.from_factors(0, list(tgt_f))
        assert (hom_group(g, h).group.invariant_factors
                == invariant_factors_oracle(list(expected)))


def test_induced_hom_map_functoriality():
    z2 = FpGroup.from_factors(0, [2])
    z4 = FpGroup.from_factors(0, [4])
    z8z2 = FpGroup.from_factors(0, [8, 2])
    u = make_morphism(z2, z4, IntMatrix([[2]]))
    v = make_morphism(z8z2, z4, IntMatrix([[1, 2]]))
    hom_b = hom_group(z4, z8z2)
    hom_a = hom_group(z2, z8z2)
    hom_c = hom_group(z4, z4)
    pre = induced_hom_map(hom_b, hom_a, precompose=u)
    post = induced_hom_map(hom_b, hom_c, postcompose=v)
    for e in hom_b.group.elements():
        phi = hom_b.realize(e)
        assert hom_a.realize(pre(e)) == phi.compose(u)
        assert hom_c.realize(post(e)) == v.compose(phi)
    # composing induced maps agrees with inducing the composite
    hom_ac = hom_group(z2, z4)
    both = induced_hom_map(hom_b, hom_ac, precompose=u, postcompose=v)
    step = induced_hom_map(hom_a, hom_ac, postcompose=v).compose(pre)
    assert both == step


# ------------------------------------------------------------ tensor groups


def test_tensor_frozen_examples():
    z4 = FpGroup.from_factors(0, [4])
    z6 = FpGroup.from_factors(0, [6])
    assert tensor_shape_oracle(z4, z6) == ((2,), 0)
    assert tensor_group(z4, z6).group.invariant_factors == (2,)
    z = FpGroup(0, 1)
    h = FpGroup.from_factors(0, [4, 6, 0])
    tg = tensor_group(z, h)
    assert tg.group.invariant_factors == h.invariant_factors
    assert tg.group.free_rank == h.free_rank
    z2 = FpGroup.from_factors(0, [2])
    z3 = FpGroup.from_factors(0, [3])
    assert tensor_group(z2, z3).group.is_trivial()


def test_tensor_matches_presentation_oracle():
    rng = seeded(31)
    for _ in range(30):
        gf = [rng.choice([0, 2, 3, 4, 6, 8]) for _ in range(rng.randint(0, 2))]
        hf = [rng.choice([0, 2, 3, 4, 9]) for _ in range(rng.randint(0, 2))]
        g = scrambled_group(rng, 0, gf)
        h = scrambled_group(rng, 0, hf)
        tg = tensor_group(g, h)
        assert ((tg.group.invariant_factors, tg.group.free_rank)
                == tensor_shape_oracle(g, h))


def test_tensor_is_symmetric():
    rng = seeded(37)
    for _ in range(20):
        gf = [rng.choice([2, 3, 4, 6, 8, 0]) for _ in range(rng.randint(1, 2))]
        hf = [rng.choice([2, 3, 4, 9, 0]) for _ in range(rng.randint(1, 2))]
        g = scrambled_group(rng, 0, gf)
        h = scrambled_group(rng, 0, hf)
        a = tensor_group(g, h).group
        b = tensor_group(h, g).group
        assert a.invariant_factors == b.invariant_factors
        assert a.free_rank == b.free_rank


def test_pure_is_bilinear():
    rng = seeded(41)
    g = scrambled_group(rng, 0, [4, 6])
    h = scrambled_group(rng, 0, [8, 2])
    tg = tensor_group(g, h)
    for _ in range(25):
        x1 = Element(g, [rng.randint(-9, 9) for _ in range(2)])
        x2 = Element(g, [rng.randint(-9, 9) for _ in range(2)])
        y = Element(h, [rng.randint(-9, 9) for _ in range(2)])
        k = rng.randint(-3, 3)
        assert tg.pure(x1 + x2, y) == tg.pure(x1, y) + tg.pure(x2, y)
        assert tg.pure(x1, k * y) == k * tg.pure(x1, y)
        assert tg.pure(k * x1, y) == tg.pure(x1, k * y)


def test_induced_tensor_map_on_pure_tensors():
    z4 = FpGroup.from_factors(0, [4])
    z8 = FpGroup.from_factors(0, [8])
    z2 = FpGroup.from_factors(0, [2])
    f = make_morphism(z4, z8, IntMatrix([[2]]))
    g = make_morphism(z2, z2, IntMatrix([[1]]))
    t1 = tensor_group(z4, z2)
    t2 = tensor_group(z8, z2)
    fg = induced_tensor_map(t1, t2, f, g)
    for x in z4.elements():
        for y in z2.elements():
            assert fg(t1.pure(x, y)) == t2.pure(f(x), g(y))


def random_element(rng, group):
    return Element(group, [rng.randint(-9, 9)
                           for _ in range(group.ambient_rank)])


@pytest.mark.parametrize("m", [0, 4, 8, 9, 12])
def test_induced_maps_match_the_per_generator_definition(m):
    """Column k of an induced Hom map is element_of(post . realize(e_k) .
    pre), reduced mod m, and the induced tensor map sends pure(x, y) to
    pure(f(x), g(y)); on scrambled groups with Z summands over Z, so that
    Hom(Z, Z/b), the vanishing Hom(Z/a, Z) and Z (x) Z occur, and with
    free summands over Z/m."""
    rng = seeded("induced-maps-%d" % m)
    for _ in range(12):
        g, h, g2, h2 = (random_factor_group(rng, m) for _ in range(4))
        src, dst = hom_group(g, h), hom_group(g2, h2)
        pre, post = random_morphism(rng, g2, g), random_morphism(rng, h, h2)
        got = induced_hom_map(src, dst, pre, post)
        for e, col in zip(src.group.generators(), got.matrix.columns()):
            want = dst.element_of(post.compose(src.realize(e).compose(pre)))
            assert col == tuple(x % m if m else x for x in want.coords)
        ts, td = tensor_group(g, h), tensor_group(g2, h2)
        f, f2 = random_morphism(rng, g, g2), random_morphism(rng, h, h2)
        got = induced_tensor_map(ts, td, f, f2)
        assert got.matrix == reference_tensor_map(ts, td, f, f2).matrix
        for _ in range(4):
            x, y = random_element(rng, g), random_element(rng, h)
            assert got(ts.pure(x, y)) == td.pure(f(x), f2(y))


# ------------------------------------------------- preimages and inverses


def test_preimage_examples():
    z4 = FpGroup.from_factors(0, [4])
    f = make_morphism(z4, z4, IntMatrix([[2]]))
    got = preimage_element(f, Element(z4, (2,)))
    assert got is not None and f(got) == Element(z4, (2,))
    assert preimage_element(f, Element(z4, (1,))) is None
    zmap = Morphism.zero(z4, z4)
    got = preimage_element(zmap, z4.zero())
    assert got is not None and zmap(got).is_zero()


def test_preimage_matches_enumeration():
    rng = seeded(43)
    for _ in range(20):
        g = scrambled_group(rng, 0, [rng.choice([4, 6]), rng.choice([2, 8])])
        h = scrambled_group(rng, 0, [rng.choice([4, 8, 12])])
        hg = hom_group(g, h)
        elts = list(hg.group.elements())
        f = hg.realize(rng.choice(elts))
        for y in h.elements():
            got = preimage_element(f, y)
            brute = any(f(x) == y for x in g.elements())
            assert (got is not None) == brute
            if got is not None:
                assert f(got) == y


def _solver_with_wrong_witness(monkeypatch, only=None):
    """Make the lattice solver shift a witness by a basis vector that
    changes its image, so the returned preimage is wrong: every witness,
    or only the one of call number `only` (counted from 0)."""
    real = abgroup.solve_mod
    calls = count()

    def wrong(a, b, m=0, relations=None):
        call = next(calls)
        x = real(a, b, m, relations)
        if x is None or only not in (None, call):
            return x
        for k in range(a.cols):
            # column k outside the target lattice moves the image
            if real(IntMatrix.zeros(a.rows, 0), a.column(k), m,
                    relations) is None:
                return tuple(v + (j == k) for j, v in enumerate(x))
        return x

    monkeypatch.setattr(abgroup, "solve_mod", wrong)


def test_preimage_rejects_a_wrong_witness(monkeypatch):
    z4 = FpGroup.from_factors(4, [4])
    f = make_morphism(z4, z4, IntMatrix([[2]]))
    _solver_with_wrong_witness(monkeypatch)
    with pytest.raises(InternalChaseFailure, match="wrong preimage"):
        preimage_element(f, Element(z4, (2,)))
    # an internal bug stays loud on the command line: no exit code 2
    with pytest.raises(InternalChaseFailure, match="wrong preimage"):
        main(["tate", "--ring", "4", "--module", "2", "--other", "2",
              "--kind", "ext", "--range", "1..1", "--both-ways"])


def test_project_rejects_a_wrong_witness(monkeypatch):
    z4 = FpGroup.from_factors(4, [4])
    q = subquotient(z4, Subgroup(z4, [(1,)]), Subgroup(z4, []))
    assert q.representative(q.project(Element(z4, (1,)))) == Element(z4, (1,))
    _solver_with_wrong_witness(monkeypatch)
    with pytest.raises(InternalChaseFailure, match="wrong class"):
        q.project(Element(z4, (1,)))


def _rank4_grid():
    """Hom of two seeded rank-2 exact complexes over Z/4: its E2 maps at
    (0, 0), first direction first, solve two batches of four columns."""
    return hom_bicomplex(random_exact_complex(4, 0, blocks=2),
                         random_exact_complex(4, 10, blocks=2,
                                              convention=COHOMOLOGICAL))


def _calls_made(monkeypatch, owner, name, run):
    """How many times run() calls owner.name."""
    calls = count()
    real = getattr(owner, name)

    def counted(*args):
        next(calls)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, counted)
        run()
    return next(calls)


def test_invert_isomorphism_checks_every_column(monkeypatch):
    z3 = FpGroup(0, 3)
    f = make_morphism(z3, z3, IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    assert _calls_made(monkeypatch, abgroup, "solve_mod",
                       lambda: invert_isomorphism(f)) == 3
    for k in range(3):
        with monkeypatch.context() as patch:
            _solver_with_wrong_witness(patch, only=k)
            with pytest.raises(InternalChaseFailure, match="wrong preimage"):
                invert_isomorphism(f)


def test_induced_maps_check_every_column(monkeypatch):
    x = _rank4_grid()
    calls = _calls_made(monkeypatch, abgroup, "solve_mod",
                        lambda: iterated_homology(x, (0, 0), I_THEN_II))
    assert calls == 8
    for k in range(calls):
        with monkeypatch.context() as patch:
            _solver_with_wrong_witness(patch, only=k)
            with pytest.raises(InternalChaseFailure, match="wrong class"):
                iterated_homology(x, (0, 0), I_THEN_II)


def test_invert_isomorphism_makes_no_elements(monkeypatch):
    # the inverse is solved as coordinate columns, not generator by generator
    z3 = FpGroup(0, 3)
    f = make_morphism(z3, z3, IntMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    assert _calls_made(monkeypatch, Element, "__init__",
                       lambda: invert_isomorphism(f)) == 0


def test_induced_maps_make_no_elements(monkeypatch):
    x = _rank4_grid()
    assert _calls_made(monkeypatch, Element, "__init__",
                       lambda: iterated_homology(x, (0, 0), I_THEN_II)) == 0


def test_invert_isomorphism():
    z5 = FpGroup.from_factors(0, [5])
    f = make_morphism(z5, z5, IntMatrix([[2]]))
    finv = invert_isomorphism(f)
    assert finv.compose(f) == Morphism.identity(z5)
    zz = FpGroup(0, 2)
    g = make_morphism(zz, zz, IntMatrix([[2, 1], [1, 1]]))
    ginv = invert_isomorphism(g)
    assert g.compose(ginv) == Morphism.identity(zz)
    z4 = FpGroup.from_factors(0, [4])
    with pytest.raises(ValueError):
        invert_isomorphism(make_morphism(z4, z4, IntMatrix([[2]])))
    sq = FpGroup.from_factors(0, [2, 2])
    z2 = FpGroup.from_factors(0, [2])
    with pytest.raises(ValueError):
        invert_isomorphism(make_morphism(sq, z2, IntMatrix([[1, 0]])))


def test_invert_isomorphism_names_each_failure():
    # a ValueError still, so callers that catch ValueError keep working
    z4, z2 = FpGroup.from_factors(0, [4]), FpGroup.from_factors(0, [2])
    sq = FpGroup.from_factors(0, [2, 2])
    for f, reason in (
            (make_morphism(z4, z4, IntMatrix([[2]])), "not surjective"),
            (make_morphism(FpGroup(0, 1), z2, IntMatrix([[1]])),
             "not injective"),
            (make_morphism(sq, z2, IntMatrix([[1, 0]])),
             "not an isomorphism")):
        with pytest.raises(NotAnIsomorphism, match=reason):
            invert_isomorphism(f)
    assert issubclass(NotAnIsomorphism, ValueError)


def test_direct_sum_shape_and_maps():
    g = FpGroup.from_factors(0, [4])
    h = FpGroup.from_factors(0, [6, 0])
    total, (inj_g, inj_h), (proj_g, proj_h) = direct_sum(g, h)
    assert total.invariant_factors == (2, 12)
    assert total.free_rank == 1
    assert proj_g.compose(inj_g) == Morphism.identity(g)
    assert proj_h.compose(inj_h) == Morphism.identity(h)
    assert proj_g.compose(inj_h).is_zero()
    x = Element(g, (3,))
    assert proj_g(inj_g(x)) == x


# ------------------------------------------ triviality read off the echelon


def triviality_cases(rng):
    """Seeded groups over Z and over Z/4, 8, 9, 12: scrambled presentations
    (unit factors included, so that some are trivial), rank 0, free
    modules, wide and tall relation matrices, subquotients, and over Z/m
    the H' and H'' of grids broken by suites._zero_first_diff."""
    for m in (0, 4, 8, 9, 12):
        yield FpGroup(m, 0)
        yield FpGroup.free(m, rng.randint(1, 3))
        for _ in range(12):
            yield scrambled_group(rng, m, [rng.choice([1, 1, 2, 3, 4, 5, 9])
                                           for _ in range(rng.randint(0, 3))])
            rows = rng.randint(1, 3)
            yield FpGroup(m, rows, random_matrix(rng, rows,
                                                 rng.randint(0, 4)))
            g = random_factor_group(rng, m)
            num = Subgroup(g, [[rng.randint(-9, 9)
                                for _ in range(g.ambient_rank)]
                               for _ in range(rng.randint(1, 3))])
            den = Subgroup(g, [num.matrix.mul_vector(
                [rng.randint(-3, 3) for _ in range(num.matrix.cols)])
                for _ in range(rng.randint(0, 2))])
            yield subquotient(g, num, den).group
        if m:
            for _ in range(2):
                _, x, (i, j) = suites._random_pair(rng, m, True)
                for a, b in ((i, j), (i - 1, j), (i, j - 1), (i + 1, j)):
                    for axis in (PRIME, SECOND):
                        yield directional_homology(x, (a, b), axis)


def order_cases(rng, m):
    """Seeded groups over Z/m (Z for m = 0): rank 0 with and without
    relation columns, free modules, scrambled presentations with unit and
    Z factors, and random relations with a zero column and a zero row
    spliced in; a zero row is a generator that over Z/m only the pivot m
    reaches, and over Z a Z summand."""
    yield FpGroup(m, 0)
    yield FpGroup(m, 0, IntMatrix.zeros(0, 2))
    yield FpGroup.free(m, rng.randint(1, 3))
    for _ in range(12):
        yield scrambled_group(rng, m, [rng.choice([0, 1, 1, 2, 3, 4, 6, 9])
                                       for _ in range(rng.randint(1, 3))])
        rows, cols = rng.randint(1, 3), rng.randint(0, 4)
        body = random_matrix(rng, rows, cols, bound=12).to_lists()
        for row in body:
            row.insert(rng.randint(0, cols), 0)
        body.insert(rng.randint(0, rows), [0] * (cols + 1))
        yield FpGroup(m, rows + 1, IntMatrix(body, cols=cols + 1))
        yield FpGroup(m, rows, random_matrix(rng, rows, rows + cols))


@pytest.mark.parametrize("m", [0, 2, 4, 8, 9, 12, 36])
def test_order_agrees_with_the_smith_form(m):
    # the echelon counts; the Smith form, an independent route, describes
    orders = []
    for g in order_cases(seeded(20261019 + m), m):
        want = None if g.free_rank else prod(g.invariant_factors)
        assert g.order() == want, g
        assert g.is_trivial() == (not g.cyclic_decomposition().orders), g
        # over Z/m a trivial group's empty form is read off the echelon, so
        # the minor gcds of the relations, which share no elimination code
        # with it, check that answer
        assert not m or g.is_trivial() == all(
            d == 1 for d in full_relation_factors(g)), g
        orders.append(want)
    assert 1 in orders
    assert any(o is None if m == 0 else o > 1 for o in orders)
    if m == 0:
        assert any(o and o > 1 for o in orders)


def test_is_trivial_agrees_with_the_smith_form():
    verdicts = []
    for g in triviality_cases(seeded(20261018)):
        trivial = g.is_trivial()
        assert trivial == (not g.cyclic_decomposition().orders), g
        assert not g.modulus or trivial == all(
            d == 1 for d in full_relation_factors(g)), g
        verdicts.append(trivial)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20


def test_z_mod_m_work_never_reaches_the_z_smith_loop(monkeypatch):
    # the one Smith loop runs over each group's own ring: a group's cyclic
    # form calls it with the group's modulus on the relations alone, never
    # over Z on the full relations [R | m*I]
    calls = []
    decomposing = []
    real_snf = backend.snf_transforms
    real_decomposition = FpGroup.cyclic_decomposition

    def recording(a, m=0):
        calls.append((decomposing[-1] if decomposing else None, a, m))
        return real_snf(a, m)

    def decomposition(g):
        decomposing.append(g)
        try:
            return real_decomposition(g)
        finally:
            decomposing.pop()

    def on_own_relations(call):
        g, a, m = call
        return (g is not None and m == g.modulus
                and a == g.relations.to_lists())

    monkeypatch.setattr(FpGroup, "cyclic_decomposition", decomposition)
    monkeypatch.setattr(backend, "snf_transforms", recording)
    c = random_exact_complex(12, 3, blocks=2)
    grids = (hom_bicomplex(c, random_exact_complex(
                 12, 4, blocks=2, convention=COHOMOLOGICAL)),
             tensor_bicomplex(c, random_exact_complex(12, 4, blocks=2)))
    for grid in grids:
        assert grid.cell(0, 0).ambient_rank == 4
        for bd in ((0, 0), (1, 0), (0, 1), (1, 1)):
            got = core_homology(grid, bd).group
            alt = core_homology_alt(grid, bd).group
            assert got.invariant_factors == alt.invariant_factors
    text = serialize_complex(c)
    assert serialize_complex(parse_complex(text)) == text
    module = FpGroup.from_factors(8, [2, 4])
    other = FpGroup.from_factors(8, [4])
    grid_calls = len(calls)
    for kind in (EXT, TOR):
        assert balance_report(8, module, other, range(-2, 3), kind)["all_pass"]
    assert grid_calls and len(calls) > grid_calls
    assert {m for _, _, m in calls[:grid_calls]} == {12}
    assert {m for _, _, m in calls[grid_calls:]} == {8}
    assert all(map(on_own_relations, calls))
    del calls[:]
    assert FpGroup.from_factors(0, [2, 3]).invariant_factors == (6,)
    assert [m for _, _, m in calls] == [0]
    assert all(map(on_own_relations, calls))
