"""Builders: resolutions, random instances, grid assembly, witnesses.

Oracles, written before the implementations they check:
  * strand kernels/images by enumeration in Z/m pin the resolution shape
    and the Z_0 witness targets.
  * rows and columns of the Hom and tensor grids, and the one-variable
    functors, are compared bit for bit with `reference_functor_complex`
    (tests/helpers.py), which builds each degree from the per-generator
    definition of the induced map and shares none of the package's lazy
    grid builder.
  * the window disc instance at the end of the Z' witness tests is the
    decisive case for the cycle degree: Hom(Z_0, D) is Z/4 there while
    Hom(Z_1, D) = 0, so any off-by-one dies loudly.
"""

import random
import re

import pytest

from bicohom import backend, constructions
from bicohom.abgroup import (FpGroup, HomGroup, Morphism, Subgroup,
                             induced_hom_map, invert_isomorphism,
                             make_morphism, subquotient)
from bicohom.bicomplexes import (PRIME, SECOND, check_exact_grid,
                                 core_homology, core_homology_alt,
                                 directional_homology)
from bicohom.complexes import (COHOMOLOGICAL, HOMOLOGICAL, Complex, Periodic,
                               Window, cycles, hom_from_module,
                               hom_into_module, homology, is_exact,
                               module_tensor_with, tensor_with_module)
from bicohom.constructions import (complete_injective_resolution,
                                   complete_projective_resolution,
                                   hom_bicomplex, random_exact_complex,
                                   tensor_bicomplex, zprime_witness,
                                   zsecond_witness)
from bicohom.errors import (ConventionViolation, HypothesisViolated,
                            InternalChaseFailure, NotAModule)
from bicohom.snf import IntMatrix
from bicohom.suites import _zero_first_diff
from helpers import periodic_strand, reference_functor_complex


def mult_kernel(m, a):
    return sorted(x for x in range(m) if (a * x) % m == 0)


def mult_image(m, a):
    return sorted({(a * x) % m for x in range(m)})


def packaged_cycles(c, n):
    """Z at one degree as a standalone group."""
    cell = c.cell(n)
    return subquotient(cell, cycles(c, n), Subgroup.zero(cell)).group


def assert_same_map(got, want):
    """Same endpoints and the same matrix, entry for entry."""
    assert got.source == want.source and got.target == want.target
    assert got.matrix == want.matrix


def strand_pair(m, entries):
    c = periodic_strand(m, entries)
    d = periodic_strand(m, entries, convention="cohomological")
    return c, d


# --------------------------------------------------------------- hom grids


def test_hom_bicomplex_strand_cells_and_maps():
    c, d = strand_pair(4, [2, 2])
    x = hom_bicomplex(c, d)
    x.check_axioms(0, 1, 0, 1)
    cell = x.cell(0, 0)
    assert cell.invariant_factors == (4,)
    one = cell.element((1,))
    # both differentials act as multiplication by 2
    assert x.dprime(0, 0)(one) == x.cell(1, 0).element((2,))
    assert x.dsecond(0, 0)(one) == x.cell(0, 1).element((2,))
    assert check_exact_grid(x, -1, 1, -1, 1) == []


def test_hom_bicomplex_rows_and_columns_match_functors():
    c, d = strand_pair(8, [2, 4])
    x = hom_bicomplex(c, d)
    for j in range(2):
        row = hom_into_module(c, d.cell(j))
        ref = reference_functor_complex("hom", c, d.cell(j))
        for i in range(2):
            assert x.cell(i, j) == row.cell(i) == ref.cell(i)
            assert_same_map(x.dprime(i, j), ref.diff(i))
            assert_same_map(row.diff(i), ref.diff(i))
    for i in range(2):
        col = hom_from_module(c.cell(i), d)
        ref = reference_functor_complex("hom", c.cell(i), d)
        for j in range(2):
            assert x.cell(i, j) == col.cell(j) == ref.cell(j)
            assert_same_map(x.dsecond(i, j), ref.diff(j))
            assert_same_map(col.diff(j), ref.diff(j))


def random_pair(kind, first_convention, second_convention):
    """Two seeded exact complexes over Z/8 with the given support kind."""
    return (random_exact_complex(8, 21, blocks=3, kind=kind,
                                 convention=first_convention),
            random_exact_complex(8, 22, blocks=3, kind=kind,
                                 convention=second_convention))


def around(c, sign=1):
    """c's stored degrees plus one on each side (wrapping when periodic),
    times sign."""
    degrees = c.degrees()
    return [sign * n for n in range(degrees[0] - 1, degrees[-1] + 2)]


@pytest.mark.parametrize("kind", ["periodic", "window"])
def test_hom_bicomplex_rows_and_columns_match_functors_on_both_supports(kind):
    c, d = random_pair(kind, HOMOLOGICAL, COHOMOLOGICAL)
    x = hom_bicomplex(c, d)
    for j in around(d):
        row = hom_into_module(c, d.cell(j))
        ref = reference_functor_complex("hom", c, d.cell(j))
        for i in around(c):
            assert x.cell(i, j) == row.cell(i) == ref.cell(i)
            assert_same_map(x.dprime(i, j), ref.diff(i))
            assert_same_map(row.diff(i), ref.diff(i))
    for i in around(c):
        col = hom_from_module(c.cell(i), d)
        ref = reference_functor_complex("hom", c.cell(i), d)
        for j in around(d):
            assert x.cell(i, j) == col.cell(j) == ref.cell(j)
            assert_same_map(x.dsecond(i, j), ref.diff(j))
            assert_same_map(col.diff(j), ref.diff(j))


@pytest.mark.parametrize("kind", ["periodic", "window"])
def test_tensor_bicomplex_rows_and_columns_match_functors(kind):
    c, d = random_pair(kind, HOMOLOGICAL, HOMOLOGICAL)
    x = tensor_bicomplex(c, d)
    # cell (i, j) is C_{-i} (x) D_{-j}: row j is C (x) D_{-j} read at -i
    for j in around(d, -1):
        row = tensor_with_module(c, d.cell(-j))
        ref = reference_functor_complex("tensor", c, d.cell(-j))
        for i in around(c, -1):
            assert x.cell(i, j) == row.cell(-i) == ref.cell(-i)
            assert_same_map(x.dprime(i, j), ref.diff(-i))
            assert_same_map(row.diff(-i), ref.diff(-i))
    for i in around(c, -1):
        col = module_tensor_with(c.cell(-i), d)
        ref = reference_functor_complex("tensor", c.cell(-i), d)
        for j in around(d, -1):
            assert x.cell(i, j) == col.cell(-j) == ref.cell(-j)
            assert_same_map(x.dsecond(i, j), ref.diff(-j))
            assert_same_map(col.diff(-j), ref.diff(-j))


def test_hom_bicomplex_validation():
    c, d = strand_pair(4, [2, 2])
    with pytest.raises(ValueError):
        hom_bicomplex(d, d)  # first factor must be homological
    with pytest.raises(ValueError):
        hom_bicomplex(c, c)
    with pytest.raises(ValueError):
        hom_bicomplex(periodic_strand(9, [3, 3]), d)  # moduli clash
    zero = hom_bicomplex(Complex.zero(HOMOLOGICAL, 4),
                         Complex.zero(COHOMOLOGICAL, 4))
    assert zero.cell(0, 0).is_trivial()


def test_hom_bicomplex_of_random_exact_frees_is_exact():
    for seed in (11, 12):
        c = random_exact_complex(8, seed, blocks=2)
        d = random_exact_complex(8, seed + 100, blocks=2,
                                 convention=COHOMOLOGICAL)
        x = hom_bicomplex(c, d)
        x.check_axioms(0, 1, 0, 1)
        assert check_exact_grid(x, -1, 1, -1, 1) == []


# ------------------------------------------------------------ tensor grids


def test_tensor_bicomplex_strand_cells_and_maps():
    c = periodic_strand(4, [2, 2])
    x = tensor_bicomplex(c, periodic_strand(4, [2, 2]))
    x.check_axioms(0, 1, 0, 1)
    cell = x.cell(0, 0)
    assert cell.invariant_factors == (4,)
    one = cell.element((1,))
    assert x.dprime(0, 0)(one) == x.cell(1, 0).element((2,))
    assert x.dsecond(0, 0)(one) == x.cell(0, 1).element((2,))
    assert check_exact_grid(x, -1, 1, -1, 1) == []


def test_tensor_bicomplex_reflects_windows():
    z4 = FpGroup.free(4, 1)
    disc = Complex.window(HOMOLOGICAL, 4, 0, 1, [z4, z4],
                          {1: Morphism.identity(z4)})
    point = Complex.window(HOMOLOGICAL, 4, 0, 0, [FpGroup.from_factors(4,
                                                                       [2])])
    x = tensor_bicomplex(disc, point)
    assert x.support_i == Window(-1, 0)
    assert x.cell(-1, 0).invariant_factors == (2,)  # C_1 (x) Z/2
    assert x.cell(0, 0).invariant_factors == (2,)
    assert x.cell(1, 0).is_trivial()
    # rows (the disc direction) are exact, columns are not
    assert directional_homology(x, (0, 0), PRIME).is_trivial()
    assert directional_homology(x, (-1, 0), PRIME).is_trivial()
    assert directional_homology(x, (0, 0), SECOND).invariant_factors == (2,)
    with pytest.raises(ValueError):
        tensor_bicomplex(disc, hom_into_module(disc, z4))


def test_tensor_bicomplex_of_random_exact_frees_is_exact():
    c = random_exact_complex(9, 5, blocks=2)
    d = random_exact_complex(9, 6, blocks=1)
    assert check_exact_grid(tensor_bicomplex(c, d), -1, 1, -1, 1) == []


# ------------------------------------------------- sharing in the lazy grid


def rank4_grid(kind, seed):
    """A Hom or tensor grid of two rank-2 strand sums over Z/12: each
    factor's two cells are one object, so every cell has rank 4."""
    c = random_exact_complex(12, seed, blocks=2)
    second = COHOMOLOGICAL if kind == "hom" else HOMOLOGICAL
    d = random_exact_complex(12, seed + 1, blocks=2, convention=second)
    return (hom_bicomplex if kind == "hom" else tensor_bicomplex)(c, d)


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_strand_sum_grids_share_cells_and_differentials(kind):
    x = rank4_grid(kind, 3)
    assert x.cell(0, 0) is x.cell(1, 1) is x.cell(1, 0)
    assert x.dprime(0, 0) is x.dprime(0, 1)
    assert x.dsecond(0, 0) is x.dsecond(1, 0)
    # the two parities use different factor differentials
    assert x.dprime(0, 0) is not x.dprime(1, 0)
    assert x.dsecond(0, 0) is not x.dsecond(0, 1)


def test_distinct_factor_cells_get_distinct_pair_groups():
    c, d = strand_pair(4, [2, 2])
    assert c.cell(0) is not c.cell(1) and c.cell(0) == c.cell(1)
    x = hom_bicomplex(c, d)
    cells = [x.cell(i, j) for i in range(2) for j in range(2)]
    assert len({id(g) for g in cells}) == 4
    assert all(g == cells[0] for g in cells)


def test_a_grid_of_a_complex_with_itself_keeps_its_axes_apart():
    # d' and d'' join the same pair groups here, so only the axis in the
    # memo key tells them apart
    c = random_exact_complex(12, 3, blocks=2)
    x = tensor_bicomplex(c, c)
    for i in range(2):
        for j in range(2):
            assert_same_map(x.dprime(i, j), reference_functor_complex(
                "tensor", c, c.cell(-j)).diff(-i))
            assert_same_map(x.dsecond(i, j), reference_functor_complex(
                "tensor", c.cell(-i), c).diff(-j))


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_a_rank4_grid_core_makes_13_echelons(monkeypatch, kind):
    x = rank4_grid(kind, 3)
    calls = []
    real = backend.col_echelon

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(backend, "col_echelon", counting)
    for bidegree in ((0, 0), (1, 0), (0, 1), (1, 1)):
        core_homology(x, bidegree)
        core_homology_alt(x, bidegree)
    assert len(calls) == 13


def functor_grid(kind, m, seed, blocks, support="periodic"):
    """A seeded Hom or tensor grid over Z/m with the sites that hold its
    factors' stored degrees and one more on each side."""
    second = COHOMOLOGICAL if kind == "hom" else HOMOLOGICAL
    c = random_exact_complex(m, seed, blocks=blocks, kind=support)
    d = random_exact_complex(m, seed + 1, blocks=blocks, kind=support,
                             convention=second)
    sign = 1 if kind == "hom" else -1
    x = (hom_bicomplex if kind == "hom" else tensor_bicomplex)(c, d)
    return x, [(i, j) for i in around(c, sign) for j in around(d, sign)]


@pytest.mark.parametrize("blocks", [2, 3])
@pytest.mark.parametrize("m", [4, 8, 9, 12])
def test_induced_differentials_pass_the_grid_size_check(m, blocks):
    # the grid no longer checks its differentials at grid size (the factor
    # maps are checked instead); rebuilt unproved, each must pass it
    for kind in ("hom", "tensor"):
        for support in ("periodic", "window"):
            x, sites = functor_grid(kind, m, 10 * m + blocks, blocks,
                                    support)
            for i, j in sites:
                for f in (x.dprime(i, j), x.dsecond(i, j)):
                    assert Morphism(f.source, f.target,
                                    f.matrix).is_well_defined()


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_grid_differentials_are_checked_at_factor_size(monkeypatch, kind):
    # building every differential of a rank-64 grid runs no _kills on a
    # grid cell inside is_well_defined: only rank-8 factor maps are checked
    x, sites = functor_grid(kind, 12, 5, 8)
    assert x.cell(0, 0).ambient_rank == 64
    checking, ranks = [], []
    check, kills = Morphism.is_well_defined, FpGroup._kills

    def is_well_defined(f):
        checking.append(f)
        try:
            return check(f)
        finally:
            checking.pop()

    def counted_kills(group, columns):
        if checking:
            ranks.append(group.ambient_rank)
        return kills(group, columns)

    monkeypatch.setattr(Morphism, "is_well_defined", is_well_defined)
    monkeypatch.setattr(FpGroup, "_kills", counted_kills)
    for i, j in sites:
        x.dprime(i, j)
        x.dsecond(i, j)
    assert max(ranks, default=0) <= 8


# -------------------------------------------------------------- resolutions


def test_complete_projective_resolution_z2_over_z4():
    m = FpGroup.from_factors(4, [2])
    p, witness = complete_projective_resolution(4, m)
    assert isinstance(p.support, Periodic) and p.support.period == 2
    assert is_exact(p) == []
    assert p.cell(0).invariant_factors == (4,)  # free rank 1
    assert p.diff(0).matrix.to_lists() == [[2]]
    assert p.diff(1).matrix.to_lists() == [[2]]
    # ker(.2) = {0, 2} in Z/4, matching the enumeration oracle
    assert mult_kernel(4, 2) == [0, 2] and mult_image(4, 2) == [0, 2]
    assert witness.source.invariant_factors == (2,)
    assert witness.target is m
    inverse = invert_isomorphism(witness)
    assert inverse.compose(witness) == Morphism.identity(witness.source)
    assert witness.compose(inverse) == Morphism.identity(m)


def test_complete_projective_resolution_free_module():
    m = FpGroup.free(4, 1)
    p, witness = complete_projective_resolution(4, m)
    assert p.diff(0).is_zero()  # multiplication by 4
    assert p.diff(1).matrix.to_lists() == [[1]]
    assert is_exact(p) == []
    assert witness.source.invariant_factors == (4,)
    invert_isomorphism(witness)


def test_complete_projective_resolution_z3_over_z9():
    p, witness = complete_projective_resolution(
        9, FpGroup.from_factors(9, [3]))
    assert p.diff(0).matrix.to_lists() == [[3]]
    assert p.diff(1).matrix.to_lists() == [[3]]
    assert witness.source.invariant_factors == (3,)
    assert mult_kernel(9, 3) == [0, 3, 6]


def test_complete_injective_resolution_examples():
    e, witness = complete_injective_resolution(4,
                                               FpGroup.from_factors(4, [2]))
    assert e.convention == COHOMOLOGICAL
    assert e.diff(0).matrix.to_lists() == [[2]]
    assert witness.source.invariant_factors == (2,)
    invert_isomorphism(witness)
    zero, _ = complete_injective_resolution(4, FpGroup(4, 0))
    assert zero.cell(0).is_trivial() and zero.cell(1).is_trivial()
    # per-factor strands over Z/6: d alternates with m/d
    ehalf, _ = complete_injective_resolution(6, FpGroup.from_factors(6, [2]))
    assert ehalf.diff(0).matrix.to_lists() == [[2]]
    assert ehalf.diff(1).matrix.to_lists() == [[3]]
    ethird, _ = complete_injective_resolution(6, FpGroup.from_factors(6,
                                                                      [3]))
    assert ethird.diff(0).matrix.to_lists() == [[3]]
    assert ethird.diff(1).matrix.to_lists() == [[2]]
    # Z/2 (+) Z/3 canonicalizes to the free module Z/6: one 0/1 strand
    esum, wit = complete_injective_resolution(6,
                                              FpGroup.from_factors(6,
                                                                   [2, 3]))
    assert esum.cell(0).invariant_factors == (6,)
    assert esum.diff(0).is_zero()
    assert wit.source.invariant_factors == (6,)


def test_resolutions_reject_non_modules():
    with pytest.raises(NotAModule):
        complete_projective_resolution(4, FpGroup.from_factors(0, [2]))
    with pytest.raises(NotAModule):
        complete_projective_resolution(4, FpGroup.from_factors(2, [2]))
    with pytest.raises(NotAModule):
        complete_injective_resolution(0, FpGroup(0, 1))


# --------------------------------------------------------- random instances


@pytest.mark.parametrize("kind", ["periodic", "window"])
def test_random_exact_complex_differentials_are_reduced(kind):
    # the seeded unimodular conjugation must not leave entries outside
    # [0, m) for every later product to carry
    for m in (4, 8, 9, 12):
        for seed in range(8):
            for convention in (HOMOLOGICAL, COHOMOLOGICAL):
                c = random_exact_complex(m, seed, blocks=3, kind=kind,
                                         convention=convention)
                for n in c.diff_degrees():
                    entries = sum(c.diff(n).matrix.to_lists(), [])
                    assert all(0 <= e < m for e in entries), (m, seed, n)


def test_random_exact_complex_deterministic():
    a = random_exact_complex(8, 42, blocks=3)
    b = random_exact_complex(8, 42, blocks=3)
    for n in range(2):
        assert a.diff(n).matrix.to_lists() == b.diff(n).matrix.to_lists()
    other = random_exact_complex(8, 43, blocks=3)
    assert any(a.diff(n).matrix.to_lists() != other.diff(n).matrix.to_lists()
               for n in range(2))


def _transvection(n, i, j, k):
    """I + k*E_ij as a matrix."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[i][j] = k
    return IntMatrix(rows, cols=n)


def _unimodular_pair_by_products(rng, n):
    """The same eight draws as _unimodular_pair, each multiplied in as a
    transvection matrix: on the left of U, its inverse on the right of
    U^-1."""
    u = uinv = IntMatrix.identity(n)
    for _ in range(8 if n > 1 else 0):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        k = rng.randint(-2, 2)
        u = _transvection(n, i, j, k) @ u
        uinv = uinv @ _transvection(n, i, j, -k)
    return u, uinv


def test_unimodular_pair_is_the_transvection_product():
    for n in range(6):
        for seed in range(6):
            rng, oracle = random.Random(seed), random.Random(seed)
            for _ in range(2):  # the second pair checks the draws line up
                u, uinv = constructions._unimodular_pair(rng, n)
                assert (u, uinv) == _unimodular_pair_by_products(oracle, n)
                assert u @ uinv == IntMatrix.identity(n)
            assert rng.random() == oracle.random()


def test_unimodular_pair_multiplies_no_matrices(monkeypatch):
    calls = []
    real = IntMatrix.__matmul__
    monkeypatch.setattr(IntMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or real(a, b))
    constructions._unimodular_pair(random.Random(3), 5)
    assert calls == []


def test_random_exact_complex_shapes():
    for seed in (0, 1, 2):
        for m in (4, 9, 12):
            c = random_exact_complex(m, seed, blocks=2)
            assert isinstance(c.support, Periodic)
            assert c.cell(0).invariant_factors == (m, m)
            assert is_exact(c) == []
            w = random_exact_complex(m, seed, blocks=2, kind="window",
                                     convention=COHOMOLOGICAL)
            assert isinstance(w.support, Window)
            assert is_exact(w) == []
    empty = random_exact_complex(4, 7, blocks=0)
    assert empty.cell(0).is_trivial()
    assert random_exact_complex(4, 7, blocks=0, kind="window") \
        .cell(0).is_trivial()
    with pytest.raises(ValueError):
        random_exact_complex(1, 0)
    with pytest.raises(ValueError):
        random_exact_complex(4, 0, kind="spiral")


def test_an_inexact_construction_is_refused():
    # the guard every built complex passes: its is_exact report, named
    c, _ = _zero_first_diff(random_exact_complex(4, 4, blocks=2,
                                                 kind="window"))
    with pytest.raises(ConventionViolation, match=re.escape(
            "random exact complex failed its exactness check: "
            "[(1, 'Z/4'), (2, 'Z/4')]")):
        constructions._checked_exact(c, "random exact complex")


# ----------------------------------------------------------- Z' / Z'' maps


def test_zprime_witness_on_strands():
    c, d = strand_pair(4, [2, 2])
    for bidegree in ((0, 0), (1, 0), (0, 1), (-1, 2)):
        forward, backward = zprime_witness(c, d, bidegree)
        assert forward.source.invariant_factors == (2,)
        assert forward.target.invariant_factors == (2,)
        assert backward.compose(forward) == \
            Morphism.identity(forward.source)
        assert forward.compose(backward) == \
            Morphism.identity(forward.target)


def test_zprime_witness_cycle_degree_is_shifted():
    z4 = FpGroup.free(4, 1)
    disc = Complex.window(HOMOLOGICAL, 4, 0, 1, [z4, z4],
                          {1: Morphism.identity(z4)})
    point = Complex.window(COHOMOLOGICAL, 4, 0, 0, [z4])
    # at (1, 0): Z' is all of Hom(C_1, D^0) = Z/4 and Z_0(C) = Z/4
    forward, _ = zprime_witness(disc, point, (1, 0))
    assert forward.source.invariant_factors == (4,)
    assert forward.target.invariant_factors == (4,)
    # at (0, 0): precomposition with the identity is injective, so Z' = 0,
    # matching Hom(Z_{-1}, -) = 0; the unshifted label would claim Z/4
    forward, _ = zprime_witness(disc, point, (0, 0))
    assert forward.source.is_trivial()
    assert forward.target.is_trivial()


def test_zprime_witness_requires_exactness():
    lump = Complex.window(HOMOLOGICAL, 4, 0, 0,
                          [FpGroup.from_factors(4, [2])])
    point = Complex.window(COHOMOLOGICAL, 4, 0, 0, [FpGroup.free(4, 1)])
    with pytest.raises(HypothesisViolated):
        zprime_witness(lump, point, (0, 0))


@pytest.mark.parametrize("bidegree, degree, found", [
    ((0, 0), 0, "Z/2"),   # i inexact, i - 1 exact
    ((2, 0), 1, "Z/4"),   # i exact, i - 1 inexact
    ((1, 0), 1, "Z/4"),   # both inexact: degree i is checked first
])
def test_zprime_witness_names_the_inexact_degree(bidegree, degree, found):
    # zero differentials: H_0 = Z/2 and H_1 = Z/4, exact elsewhere
    c = Complex.window(HOMOLOGICAL, 4, 0, 1,
                       [FpGroup.from_factors(4, [2]),
                        FpGroup.from_factors(4, [4])])
    point = Complex.window(COHOMOLOGICAL, 4, 0, 0, [FpGroup.free(4, 1)])
    with pytest.raises(HypothesisViolated,
                       match="^the first factor must be exact at degree "
                             "%d; found %s$" % (degree, found)):
        zprime_witness(c, point, bidegree)


def test_zsecond_witness_on_strands():
    c, d = strand_pair(9, [3, 3])
    for bidegree in ((0, 0), (1, 1), (2, -1)):
        forward, backward = zsecond_witness(c, d, bidegree)
        assert forward.source.invariant_factors == (3,)
        assert forward.target.invariant_factors == (3,)
        assert backward.compose(forward) == \
            Morphism.identity(forward.source)
        assert forward.compose(backward) == \
            Morphism.identity(forward.target)


def test_zsecond_witness_needs_no_exactness():
    z4 = FpGroup.free(4, 1)
    disc = Complex.window(HOMOLOGICAL, 4, 0, 1, [z4, z4],
                          {1: Morphism.identity(z4)})
    point = Complex.window(COHOMOLOGICAL, 4, 0, 0, [z4])  # not exact
    forward, _ = zsecond_witness(disc, point, (1, 0))
    assert forward.source.invariant_factors == (4,)
    assert forward.target.invariant_factors == (4,)


@pytest.mark.parametrize("witness", [zprime_witness, zsecond_witness])
def test_witness_backward_map_is_one_induced_map(monkeypatch, witness):
    # forward realizes and reads back each generator of Z; backward is one
    # induced_hom_map out of the target Hom group, with no per-generator
    # realize or element_of of its own
    calls = []
    for name in ("realize", "element_of"):
        def counted(self, x, _name=name, _orig=getattr(HomGroup, name)):
            calls.append(_name)
            return _orig(self, x)
        monkeypatch.setattr(HomGroup, name, counted)

    def induced(src_hom, dst_hom, *maps, **named):
        calls.append(src_hom)
        return induced_hom_map(src_hom, dst_hom, *maps, **named)
    monkeypatch.setattr(constructions, "induced_hom_map", induced)
    c = random_exact_complex(12, 5, blocks=2)
    d = random_exact_complex(12, 6, blocks=2, convention=COHOMOLOGICAL)
    forward, backward = witness(c, d, (1, 0))
    n = forward.source.ambient_rank
    assert n and forward.target.ambient_rank
    assert calls.count("realize") == calls.count("element_of") == n
    # the grid's own differential is built out of a hom cell, not out of it
    assert len([h for h in calls if isinstance(h, HomGroup)
                and h.group is forward.target]) == 1
    assert backward.compose(forward) == Morphism.identity(forward.source)


@pytest.mark.parametrize("witness", [zprime_witness, zsecond_witness])
def test_a_backward_map_that_is_no_inverse_is_an_internal_fault(
        monkeypatch, witness):
    # the backward map is the one induced map with a named pre- or
    # postcomposition; planted as zero, its composites with forward
    # cannot be the identity on Z/2
    def zero_lift(src_hom, dst_hom, *maps, **named):
        f = induced_hom_map(src_hom, dst_hom, *maps, **named)
        return f - f if named else f
    monkeypatch.setattr(constructions, "induced_hom_map", zero_lift)
    c, d = strand_pair(4, [2, 2])
    with pytest.raises(InternalChaseFailure,
                       match="^%s: the composites are not the identity$"
                             % witness.__name__):
        witness(c, d, (1, 0))


def test_a_cycle_with_no_preimage_is_an_internal_fault(monkeypatch):
    # exactness at i - 1 promises every cycle a d_i-preimage; a solver
    # planted to find none must stop the witness, not return a wrong map
    monkeypatch.setattr(constructions, "_solve", lambda *args: None)
    c, d = strand_pair(4, [2, 2])
    with pytest.raises(InternalChaseFailure, match="^%s$" % re.escape(
            "no differential preimage for a cycle at degree 0")):
        zprime_witness(c, d, (1, 0))


# ------------------------------------------------- the three descriptions


def test_core_matches_both_one_variable_descriptions():
    """core H at (i, j) against H^j(Hom(Z_{i-1}(C), D)) and
    H^i(Hom(C, Z^j(D))), compared as isomorphism classes."""
    cases = [(4, [2], [2]), (8, [2], [4]), (9, [3], [3]), (12, [2, 6], [4])]
    for m, mf, nf in cases:
        p, _ = complete_projective_resolution(m, FpGroup.from_factors(m, mf))
        e, _ = complete_injective_resolution(m, FpGroup.from_factors(m, nf))
        x = hom_bicomplex(p, e)
        for i in range(-1, 2):
            for j in range(-1, 2):
                core = core_homology(x, (i, j)).group
                via_rows = homology(
                    hom_from_module(packaged_cycles(p, i - 1), e), j).group
                via_cols = homology(
                    hom_into_module(p, packaged_cycles(e, j)), i).group
                assert core.invariant_factors == via_rows.invariant_factors
                assert core.invariant_factors == via_cols.invariant_factors
