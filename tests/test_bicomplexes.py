"""Bicomplex grids: frozen examples with enumeration oracles.

Oracles, written before the implementations they check:
  * core sets: for finite cells, Z' ∩ Z'' and both candidate denominators
    d'(Z'') and d''(Z') are listed by enumerating cell elements, so core
    orders and the two-route equality are checked against raw counting.
  * iterated homology of the 2x2 integer grid below is worked out by hand;
    the two orders genuinely disagree there, which pins the order tokens.
  * core_homology decides exactness from a functor grid's factors where
    it can; `check_exact_grid` on a separate copy of the grid says where
    it must refuse, and with which text.
"""

import json
from math import gcd

import pytest

from bicohom import abgroup, backend, bicomplexes, tate
from bicohom.abgroup import (FpGroup, HClass, Homology, Morphism, Subgroup,
                             _invariants_of_cyclics, hom_group,
                             induced_hom_map, kernel_image, make_morphism,
                             subquotient)
from bicohom.bicomplexes import (Bicomplex, BoundaryData,
                                 DoubleComplex, I_THEN_II, II_THEN_I, PRIME,
                                 SECOND, boundary_subgroups, check_exact_grid,
                                 core_equality_check, core_homology,
                                 core_homology_alt, core_type,
                                 diagonal_shift, directional_homology,
                                 from_double_complex,
                                 iterated_homology, to_double_complex)
from bicohom.complexes import (COHOMOLOGICAL, HOMOLOGICAL, Complex,
                               Periodic, Window, direct_sum, homology,
                               is_exact)
from bicohom.errors import (BadArgument, ConventionViolation,
                            HypothesisViolated, InternalChaseFailure,
                            NotContained, ParentMismatch)
from bicohom.constructions import (complete_injective_resolution,
                                   complete_projective_resolution,
                                   complete_resolution,
                                   hom_bicomplex, random_exact_complex,
                                   tensor_bicomplex)
from bicohom.formats import parse_complex
from bicohom.snf import IntMatrix
from bicohom.tate import EXT, TOR, balance_grid
from bicohom.suites import _zero_first_diff
from helpers import ALT_REFUSAL, invariant_factors_oracle, periodic_strand


def hom_grid(c, d):
    """Hom(C_i, D^j) with precomposition (d') and postcomposition (d'')."""
    homs = {}

    def hom_at(i, j):
        key = (i, j)
        if key not in homs:
            homs[key] = hom_group(c.cell(i), d.cell(j))
        return homs[key]

    return Bicomplex(
        max(c.modulus, d.modulus), c.support, d.support,
        lambda i, j: hom_at(i, j).group,
        lambda i, j: induced_hom_map(hom_at(i, j), hom_at(i + 1, j),
                                     precompose=c.diff(i + 1)),
        lambda i, j: induced_hom_map(hom_at(i, j), hom_at(i, j + 1),
                                     postcompose=d.diff(j)))


def strand_square(m, entries):
    """Hom of an m-strand into its cohomological twin; exact rows/columns
    whenever the strand itself is exact."""
    c = periodic_strand(m, entries)
    d = periodic_strand(m, entries, convention="cohomological")
    return hom_grid(c, d)


def core_side_sets(x, i, j):
    """(Z' ∩ Z'', d'(Z''), d''(Z')) at (i, j), by raw enumeration."""
    cell = x.cell(i, j)
    dp, ds = x.dprime(i, j), x.dsecond(i, j)
    num = {e for e in cell.elements()
           if dp(e).is_zero() and ds(e).is_zero()}
    left = x.cell(i - 1, j)
    den_prime = {x.dprime(i - 1, j)(z) for z in left.elements()
                 if x.dsecond(i - 1, j)(z).is_zero()}
    below = x.cell(i, j - 1)
    den_second = {x.dsecond(i, j - 1)(w) for w in below.elements()
                  if x.dprime(i, j - 1)(w).is_zero()}
    return num, den_prime, den_second


def z_cell():
    return FpGroup.free(0, 1)


# ------------------------------------------------------------ construction


def test_from_grid_validation():
    z2 = FpGroup.from_factors(2, [2])
    ident = Morphism.identity(z2)
    with pytest.raises(ValueError, match="^need at least one cell$"):
        Bicomplex.from_grid(2, {})
    with pytest.raises(ValueError):
        Bicomplex.from_grid(2, {(0, 0): z2, (1, 1): z2})  # not a rectangle
    with pytest.raises(ConventionViolation,
                       match=r"^d' o d' is nonzero at \(0, 0\)$"):
        # d' o d' = identity over a 3-cell row
        Bicomplex.from_grid(2, {(i, 0): z2 for i in range(3)},
                            dprimes={(0, 0): ident, (1, 0): ident})
    with pytest.raises(ConventionViolation,
                       match=r"^d'' o d'' is nonzero at \(0, 0\)$"):
        # d'' o d'' = identity over a 3-cell column
        Bicomplex.from_grid(2, {(0, j): z2 for j in range(3)},
                            dseconds={(0, 0): ident, (0, 1): ident})


def test_mixed_square_separates_conventions():
    # all cells Z; d''d' = +1 while d'd'' = -1, so the square anticommutes
    z = z_cell()
    cells = {(i, j): z for i in range(2) for j in range(2)}
    dprimes = {(0, 0): make_morphism(z, z, IntMatrix([[1]])),
               (0, 1): make_morphism(z, z, IntMatrix([[-1]]))}
    dseconds = {(0, 0): Morphism.identity(z),
                (1, 0): Morphism.identity(z)}
    with pytest.raises(ConventionViolation):
        Bicomplex.from_grid(0, cells, dprimes, dseconds)
    dc = DoubleComplex.from_grid(0, cells, dprimes, dseconds)
    assert dc.dprime(0, 1).matrix[(0, 0)] == -1
    # and the honestly commuting version fails the anticommuting check
    flipped = dict(dprimes)
    flipped[(0, 1)] = make_morphism(z, z, IntMatrix([[1]]))
    with pytest.raises(ConventionViolation):
        DoubleComplex.from_grid(0, cells, flipped, dseconds)
    Bicomplex.from_grid(0, cells, flipped, dseconds)


def test_provider_output_is_validated():
    z4 = FpGroup.from_factors(4, [4])
    half = FpGroup(4, 1, IntMatrix([[2]]))  # Z/2 presented inside Z/4
    wrong_endpoints = Bicomplex(
        4, Window(0, 1), Window(0, 0),
        lambda i, j: z4,
        lambda i, j: Morphism.identity(half),
        lambda i, j: None)
    with pytest.raises(ConventionViolation,
                       match=r"^d' at \(0, 0\) has wrong endpoints$"):
        wrong_endpoints.dprime(0, 0)
    # x -> x from Z/2 to Z/4 sends the relation 2e to 2 != 0: ill-defined
    cells = {(0, 0): half, (1, 0): z4}
    leaky = Bicomplex(
        4, Window(0, 1), Window(0, 0),
        lambda i, j: cells[(i, j)],
        lambda i, j: Morphism(half, z4, IntMatrix([[1]]))
        if (i, j) == (0, 0) else None,
        lambda i, j: None)
    with pytest.raises(ConventionViolation,
                       match=r"^d' at \(0, 0\) ignores relations$"):
        leaky.dprime(0, 0)
    leaky_up = Bicomplex(
        4, Window(0, 0), Window(0, 1),
        lambda i, j: cells[(j, i)],
        lambda i, j: None,
        lambda i, j: Morphism(half, z4, IntMatrix([[1]]))
        if (i, j) == (0, 0) else None)
    with pytest.raises(ConventionViolation,
                       match=r"^d'' at \(0, 0\) ignores relations$"):
        leaky_up.dsecond(0, 0)
    wrong_modulus = Bicomplex(
        4, Window(0, 0), Window(0, 0),
        lambda i, j: FpGroup.from_factors(2, [2]),
        lambda i, j: None, lambda i, j: None)
    with pytest.raises(ConventionViolation):
        wrong_modulus.cell(0, 0)


def test_support_extension():
    z2 = FpGroup.from_factors(2, [2])
    grid = Bicomplex.from_grid(2, {(0, 0): z2})
    assert grid.cell(5, -3).is_trivial()
    assert grid.dprime(0, 0).is_zero()
    # the core reads the zero cells at (-1, 0) and (0, -1)
    assert core_homology(grid, (0, 0)).group.invariant_factors == (2,)


def test_lazy_memoization():
    calls = {"cell": 0, "dp": 0, "ds": 0}
    x = strand_square(4, [2, 2])

    def counting_cell(i, j):
        calls["cell"] += 1
        return FpGroup.from_factors(4, [4])

    counted = Bicomplex(4, Periodic(2), Periodic(2), counting_cell,
                        x._diff_fns[PRIME], x._diff_fns[SECOND])
    first = counted.cell(0, 0)
    assert counted.cell(0, 0) is first
    assert counted.cell(2, -2) is first  # canonical wrap, no recompute
    assert calls["cell"] == 1
    d = counted.dprime(0, 0)
    assert counted.dprime(2, 4) is d


def test_a_memoised_differential_fetches_no_cell(monkeypatch):
    fetched = []
    real = bicomplexes._Grid.cell

    def counting(grid, i, j):
        fetched.append((i, j))
        return real(grid, i, j)

    monkeypatch.setattr(bicomplexes._Grid, "cell", counting)
    x = strand_square(4, [2, 2])
    for axis in ("dprime", "dsecond"):
        d = getattr(x, axis)(0, 1)
        del fetched[:]
        # the same canonical site again: a memo hit fetches no endpoint
        assert getattr(x, axis)(2, -1) is d
        assert fetched == []
    # outside the support the differential is still a zero morphism
    z2 = FpGroup.from_factors(2, [2])
    edge = Bicomplex.from_grid(2, {(0, 0): z2})
    for _ in range(2):
        for f in (edge.dprime(0, 0), edge.dsecond(-1, 0)):
            assert f.is_zero()
        assert edge.dprime(0, 0).source is z2
        assert edge.dsecond(0, -1).target is z2
    # a cell of the wrong modulus is refused on the way to its differential
    wrong_modulus = Bicomplex(
        4, Window(0, 1), Window(0, 0),
        lambda i, j: FpGroup.from_factors(2, [2]),
        lambda i, j: None, lambda i, j: None)
    with pytest.raises(ConventionViolation,
                       match=r"^cell \(0, 0\) has modulus 2, grid has 4$"):
        wrong_modulus.dprime(0, 0)


# ----------------------------------------------------- directional homology


def test_boundary_subgroups_of_strand_square():
    x = strand_square(4, [2, 2])
    data = boundary_subgroups(x, (0, 0))
    assert isinstance(data, BoundaryData)
    cell = x.cell(0, 0)
    two = Subgroup(cell, [cell.element((2,))])
    assert data.zprime == two and data.bprime == two
    assert data.zsecond == two and data.bsecond == two
    assert directional_homology(x, (0, 0), PRIME).is_trivial()
    assert directional_homology(x, (0, 0), SECOND).is_trivial()
    with pytest.raises(ValueError):
        directional_homology(x, (0, 0), "diagonal")


def test_check_exact_grid():
    assert check_exact_grid(strand_square(4, [2, 2]), 0, 1, 0, 1) == []
    assert check_exact_grid(strand_square(9, [3, 3]), -1, 2, -1, 2) == []
    lone = Bicomplex.from_grid(2, {(0, 0): FpGroup.from_factors(2, [2])})
    report = check_exact_grid(lone, 0, 0, 0, 0)
    assert report == [((0, 0), PRIME, "Z/2"), ((0, 0), SECOND, "Z/2")]


# ------------------------------------------------------------ core invariant


def test_core_homology_strand_square():
    x = strand_square(4, [2, 2])
    core = core_homology(x, (0, 0))
    assert core.group.invariant_factors == (2,)
    num, den_prime, _ = core_side_sets(x, 0, 0)
    assert core.group.order() == len(num) // len(den_prime)
    cell = x.cell(0, 0)
    cls = core.class_of(cell.element((2,)))
    assert not cls.is_zero()
    assert cls.value() == core.group.element((1,))
    assert core.zero_class().is_zero()
    # lift of a class is a legitimate representative of the same class
    again = core.class_of(core.representative(cls.value()))
    assert again == cls
    # periodic sites canonicalize: (2, -2) is the same site object
    assert core_homology(x, (2, -2)) is core


def test_core_homology_z9_square():
    x = strand_square(9, [3, 3])
    core = core_homology(x, (1, 0))
    assert core.group.invariant_factors == (3,)
    num, den_prime, den_second = core_side_sets(x, 1, 0)
    assert den_prime == den_second
    assert core.group.order() == len(num) // len(den_prime)


def test_core_denominator_routes_agree():
    # the core over d'(Z'') against its numerator over d''(Z'), class by
    # class
    for m, entries in ((4, [2, 2]), (9, [3, 3]), (8, [2, 4])):
        x = strand_square(m, entries)
        assert core_equality_check(x, (0, 0))
        main = core_homology(x, (0, 0))
        alt = subquotient(x.cell(0, 0), main.numerator,
                          bicomplexes._pushed_cycles(x, 0, 0, SECOND))
        assert main.group.invariant_factors == alt.group.invariant_factors
        assert main.denominator == alt.denominator
        num, den_prime, den_second = core_side_sets(x, 0, 0)
        assert den_prime == den_second
        for e in num:
            assert (main.class_of(e).is_zero()
                    == alt.class_of(e).is_zero())


def test_core_requires_local_exactness():
    z2 = FpGroup.from_factors(2, [2])
    column = Bicomplex.from_grid(2, {(0, 0): z2, (0, 1): z2})
    # at (0, 1) the equality consumes H' = 0 at (0, 0), which fails
    with pytest.raises(HypothesisViolated) as err:
        core_homology(column, (0, 1))
    assert "H'" in str(err.value)
    with pytest.raises(HypothesisViolated):
        core_equality_check(column, (0, 1))
    # at (0, 0) both consumed sites sit in the zero-extended margin
    assert core_homology(column, (0, 0)).group.invariant_factors == (2,)


def test_biclass_semantics():
    x = strand_square(4, [2, 2])
    core = core_homology(x, (0, 0))
    cell = x.cell(0, 0)
    with pytest.raises(NotContained):
        core.class_of(cell.element((1,)))  # d' does not kill 1
    with pytest.raises(ParentMismatch):
        core.class_of(FpGroup.from_factors(4, [2]).element((1,)))
    a = core.class_of(cell.element((2,)))
    assert a + a == core.zero_class()
    assert (-a) == a
    other = core_homology(x, (1, 0)).zero_class()
    with pytest.raises(ParentMismatch):
        a + other
    # the core invariant is the homology type of complexes, site-checked
    assert isinstance(core, Homology)
    # the second route answers only grids of exact free factors
    with pytest.raises(BadArgument, match=ALT_REFUSAL):
        core_homology_alt(x, (0, 0))
    assert isinstance(a, HClass)
    strand = periodic_strand(4, [0])  # zero differential: all are cycles
    flat = homology(strand, 0).class_of(strand.cell(0).element((2,)))
    with pytest.raises(ParentMismatch):
        a + flat
    assert a != flat and flat != a


# ----------------------------------------------------------- diagonal shift


def test_diagonal_shift_roundtrip():
    x = strand_square(4, [2, 2])
    core = core_homology(x, (0, 0))
    cls = core.class_of(x.cell(0, 0).element((2,)))
    moved = diagonal_shift(cls, "+")
    assert moved.homology.index == (1, 1)  # canonical label of (1, -1)
    assert not moved.is_zero()
    assert moved.representative == x.cell(1, 1).element((2,))
    back = diagonal_shift(moved, "-")
    assert back == cls
    # the other way around as well
    assert diagonal_shift(diagonal_shift(cls, "-"), "+") == cls
    assert diagonal_shift(core.zero_class(), "+").is_zero()
    with pytest.raises(ValueError):
        diagonal_shift(cls, "sideways")


def test_diagonal_shift_additive():
    x = strand_square(9, [3, 3])
    core = core_homology(x, (0, 0))
    cell = x.cell(0, 0)
    a = core.class_of(cell.element((3,)))
    b = core.class_of(cell.element((6,)))
    assert diagonal_shift(a + b, "+") == \
        diagonal_shift(a, "+") + diagonal_shift(b, "+")
    walked = a
    for _ in range(3):
        walked = diagonal_shift(walked, "+")
    for _ in range(3):
        walked = diagonal_shift(walked, "-")
    assert walked == a


def test_diagonal_shift_requires_exactness():
    lone = Bicomplex.from_grid(2, {(0, 0): FpGroup.from_factors(2, [2])})
    core = core_homology(lone, (0, 0))  # margins are exact, core exists
    cls = core.class_of(lone.cell(0, 0).element((1,)))
    with pytest.raises(HypothesisViolated):
        diagonal_shift(cls, "+")  # H'' at (0, 0) is Z/2, not zero
    with pytest.raises(HypothesisViolated):
        diagonal_shift(cls, "-")


@pytest.mark.parametrize("direction, mark", [("+", "''"), ("-", "'")])
def test_diagonal_shift_hypothesis_message(direction, mark):
    lone = Bicomplex.from_grid(2, {(1, 2): FpGroup.from_factors(2, [2])})
    cls = core_homology(lone, (1, 2)).class_of(
        lone.cell(1, 2).element((1,)))
    with pytest.raises(HypothesisViolated) as err:
        diagonal_shift(cls, direction)
    assert str(err.value) == (
        "diagonal_shift(%s) needs H%s = 0 at (1, 2) but found Z/2"
        % (direction, mark))


@pytest.mark.parametrize("direction, line", [("+", "column"), ("-", "row")])
def test_diagonal_shift_loud_without_preimage(monkeypatch, direction, line):
    x = strand_square(4, [2, 2])
    cls = core_homology(x, (0, 0)).class_of(x.cell(0, 0).element((2,)))
    monkeypatch.setattr(bicomplexes, "preimage_element",
                        lambda f, elt: None)
    with pytest.raises(InternalChaseFailure) as err:
        diagonal_shift(cls, direction)
    assert str(err.value) == (
        "certified-exact %s has no preimage at (0, 0)" % line)


def test_diagonal_shift_refuses_a_push_outside_the_landing_numerator(
        monkeypatch):
    # a planted "preimage" of (1,) whose d'' lands outside Z' ∩ Z'' at
    # (-1, 1): `_chase` passes it on, and the landing class's HClass
    # constructor refuses it
    x = strand_square(8, [2, 4])
    core = core_homology(x, (0, 0))
    cls = core.class_of(
        core.parent.element(core.numerator.matrix.columns()[0]))
    monkeypatch.setattr(bicomplexes, "preimage_element",
                        lambda f, elt: f.source.element((1,)))
    with pytest.raises(NotContained) as err:
        diagonal_shift(cls, "-")
    assert str(err.value) == "representative is outside the numerator"


def planted_z16_walk(monkeypatch, step, plant):
    """The Ext balance grid of Z/2 (+) Z/4 against Z/4 over Z/16, whose
    cores at (n, 0) and (0, n) are Z/2 (+) Z/4, with the walk's chase
    step number `step` (from 1) passing on plant(pushed columns)."""
    grid, _ = balance_grid(
        EXT, complete_projective_resolution(16, FpGroup.from_factors(
            16, [2, 4]))[0],
        complete_injective_resolution(16, FpGroup.from_factors(16, [4]))[0])
    assert tate._walk_is_isomorphism(grid, 2) is True
    real, steps = tate._chase, []

    def planted(core, columns, direction):
        landing, pushed = real(core, columns, direction)
        steps.append(direction)
        return landing, plant(pushed) if len(steps) == step else pushed

    monkeypatch.setattr(tate, "_chase", planted)
    return grid


def test_the_walk_refuses_a_last_push_outside_the_target_numerator(
        monkeypatch):
    # the second step from (2, 0) lands at (0, 2), whose numerator is
    # generated by (4, 0) and (0, 4); a first coordinate of 1 leaves it,
    # and the target core's `_classes` refuses it
    grid = planted_z16_walk(monkeypatch, 2,
                            lambda pushed: [(1,) + c[1:] for c in pushed])
    with pytest.raises(InternalChaseFailure,
                       match=r"^walk from \(2, 0\) to \(0, 2\): ") as err:
        tate._walk_is_isomorphism(grid, 2)
    assert isinstance(err.value.__cause__, NotContained)


def test_the_walk_refuses_a_non_cycle_at_an_inner_step(monkeypatch):
    # (1, 0) at (1, 1) is no d'-cycle: d' sends it to (2, 0).  The first
    # step passes it on unchecked; the second step's row solve finds no
    # preimage for it
    grid = planted_z16_walk(monkeypatch, 1,
                            lambda pushed: [(1, 0)] * len(pushed))
    assert grid.dprime(1, 1).matrix.columns()[0] == (2, 0)
    with pytest.raises(InternalChaseFailure) as err:
        tate._walk_is_isomorphism(grid, 2)
    assert str(err.value) == "certified-exact row has no preimage at (1, 1)"


@pytest.mark.parametrize("m", [8, 9, 12])
@pytest.mark.parametrize("kind", [EXT, TOR])
def test_balance_grids_satisfy_the_grid_axioms(m, kind):
    # the walk's inner steps stay in Z' ∩ Z'' because d o d = 0 and the
    # mixed square commutes; check both over one period of the functor
    # grids the balance walk uses, for modules of 2-4 cyclic summands
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    resolve = (complete_injective_resolution if kind == EXT
               else complete_projective_resolution)
    moved = 0
    for na in (2, 3, 4):
        for nb in (2, 3, 4):
            a = FpGroup.from_factors(m, [divisors[k % len(divisors)]
                                         for k in range(na)])
            b = FpGroup.from_factors(m, [divisors[(k + 1) % len(divisors)]
                                         for k in range(nb)])
            x, _ = balance_grid(kind, complete_projective_resolution(m, a)[0],
                                resolve(m, b)[0])
            x.check_axioms(0, x.support_i.period - 1,
                           0, x.support_j.period - 1)
            moved += not (x.dprime(0, 0).is_zero() and
                          x.dsecond(0, 0).is_zero())
    assert moved == 9


def exact_grids(m):
    """A seeded Hom grid and a seeded tensor grid over Z/m, both with
    exact rows and columns everywhere."""
    c = random_exact_complex(m, m, blocks=2)
    return (hom_bicomplex(c, random_exact_complex(
                m, m + 1, blocks=2, convention=COHOMOLOGICAL)),
            tensor_bicomplex(c, random_exact_complex(m, m + 1, blocks=2)))


@pytest.mark.parametrize("m", [4, 8, 9, 12])
def test_chase_of_a_numerator_matches_each_generators_shift(m):
    moved = 0
    for x in exact_grids(m):
        for i in range(-1, 2):
            for j in range(-1, 2):
                core = core_homology(x, (i, j))
                columns = core.numerator.matrix.columns()
                for direction in "+-":
                    landing, pushed = bicomplexes._chase(core, columns,
                                                         direction)
                    assert len(pushed) == len(columns)
                    for col, out in zip(columns, pushed):
                        one = diagonal_shift(core.class_of(
                            core.parent.element(col)), direction)
                        assert one.homology is landing
                        assert one.representative.coords == out
                        assert one == landing.class_of(
                            landing.parent.element(out))
                        moved += not one.is_zero()
    # Z/4 and Z/8 grids carry nonzero core classes; Z/9 and Z/12 do not
    assert (moved > 0) == (m in (4, 8))


def test_diagonal_shift_rejects_a_bad_direction():
    x = strand_square(4, [2, 2])
    cls = core_homology(x, (0, 0)).class_of(x.cell(0, 0).element((2,)))
    with pytest.raises(ValueError) as err:
        diagonal_shift(cls, "sideways")
    assert str(err.value) == "direction must be '+' or '-'"


# -------------------------------------------------------- iterated homology


def test_iterated_homology_vanishes_on_exact_grid():
    x = strand_square(4, [2, 2])
    for i in range(2):
        for j in range(2):
            assert iterated_homology(x, (i, j), I_THEN_II).is_trivial()
            assert iterated_homology(x, (i, j), II_THEN_I).is_trivial()
    with pytest.raises(ValueError):
        iterated_homology(x, (0, 0), "II-then-III")


def test_iterated_homology_orders_differ():
    # Z --2--> Z on the bottom row, Z --1--> Z on the left column:
    #   I-then-II sees Z/2 at (1, 0) and Z at (0, 1);
    #   II-then-I sees Z   at (1, 0) and 0 at (0, 1).
    z = z_cell()
    cells = {(0, 0): z, (1, 0): z, (0, 1): z, (1, 1): FpGroup(0, 0)}
    x = Bicomplex.from_grid(
        0, cells,
        dprimes={(0, 0): make_morphism(z, z, IntMatrix([[2]]))},
        dseconds={(0, 0): Morphism.identity(z)})
    assert iterated_homology(x, (1, 0), I_THEN_II).invariant_factors == (2,)
    assert iterated_homology(x, (0, 1), I_THEN_II).describe() == "Z"
    assert iterated_homology(x, (1, 0), II_THEN_I).describe() == "Z"
    assert iterated_homology(x, (0, 1), II_THEN_I).is_trivial()
    assert iterated_homology(x, (0, 0), I_THEN_II).is_trivial()
    assert iterated_homology(x, (0, 0), II_THEN_I).is_trivial()


# ------------------------------------------------- double-complex conversion


def test_double_complex_conversion_involution():
    z = z_cell()
    cells = {(i, j): z for i in range(2) for j in range(2)}
    dprimes = {(0, 0): make_morphism(z, z, IntMatrix([[1]])),
               (0, 1): make_morphism(z, z, IntMatrix([[-1]]))}
    dseconds = {(0, 0): Morphism.identity(z),
                (1, 0): Morphism.identity(z)}
    dc = DoubleComplex.from_grid(0, cells, dprimes, dseconds)
    x = from_double_complex(dc)
    x.check_axioms(0, 1, 0, 1)
    # d'' picked up a sign exactly on the odd row
    assert x.dsecond(0, 0).matrix[(0, 0)] == 1
    assert x.dsecond(1, 0).matrix[(0, 0)] == -1
    assert x.dprime(0, 0) == dc.dprime(0, 0)
    back = to_double_complex(x)
    for i in range(2):
        for j in range(2):
            assert back.cell(i, j) == dc.cell(i, j)
            assert back.dprime(i, j) == dc.dprime(i, j)
            assert back.dsecond(i, j) == dc.dsecond(i, j)
    with pytest.raises(ConventionViolation):
        from_double_complex(x)
    with pytest.raises(ConventionViolation):
        to_double_complex(dc)


def test_odd_period_conversion_doubles_the_period():
    # one periodic cell Z^2 with nilpotent d''; parity of the first index
    # is only well defined after doubling the period
    cell = FpGroup.free(0, 2)
    nil = make_morphism(cell, cell, IntMatrix([[0, 1], [0, 0]]))
    dc = DoubleComplex(0, Periodic(1), Periodic(1),
                       lambda i, j: cell,
                       lambda i, j: None,
                       lambda i, j: nil)
    x = from_double_complex(dc)
    assert x.support_i.period == 2
    assert x.dsecond(0, 0) == nil
    assert x.dsecond(1, 0) == -nil
    assert x.dsecond(2, 0) == nil
    x.check_axioms(0, 2, 0, 2)
    back = to_double_complex(x)
    for i in range(4):
        assert back.dsecond(i, 0) == nil


# --------------------------------------------------------- mixed supports


def test_periodic_by_window_edges():
    c = periodic_strand(4, [2, 2])
    z4 = FpGroup.from_factors(4, [4])
    two = make_morphism(z4, z4, IntMatrix([[2]]))
    d = Complex.window("cohomological", 4, 0, 2, [z4, z4, z4],
                       {0: two, 1: two})
    x = hom_grid(c, d)
    x.check_axioms(0, 1, 0, 2)
    core = core_homology(x, (0, 1))
    assert core.group.invariant_factors == (2,)
    num, den_prime, den_second = core_side_sets(x, 0, 1)
    assert den_prime == den_second
    assert core.group.order() == len(num) // len(den_prime)
    # at the window's j = 0 edge the column homology below is nonzero
    with pytest.raises(HypothesisViolated):
        core_homology(x, (0, 0))
    report = check_exact_grid(x, 0, 1, 0, 2)
    assert len(report) == 4
    assert all(axis == SECOND for _, axis, _ in report)
    assert {site for site, _, _ in report} == \
        {(0, 0), (1, 0), (0, 2), (1, 2)}


# ------------------------------------------- H' and H'' of functor grids


def functor_grid_cases(kind):
    """(factors, grid) over Z/4, 8, 9 and 12, periodic and window; half
    the grids have a factor broken by _zero_first_diff."""
    second = COHOMOLOGICAL if kind == "hom" else "homological"
    build = hom_bicomplex if kind == "hom" else tensor_bicomplex
    for case, (m, support) in enumerate(
            (m, support) for m in (4, 8, 9, 12)
            for support in ("periodic", "window")):
        for broken in (None, ("first", "second")[case % 2]):
            c = random_exact_complex(m, case, blocks=2, kind=support)
            d = random_exact_complex(m, case + 50, blocks=2, kind=support,
                                     convention=second)
            if broken == "first":
                c = _zero_first_diff(c)[0]
            elif broken == "second":
                d = _zero_first_diff(d)[0]
            yield (m, support, broken, c, d), build(c, d)


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_directional_homology_of_functor_grids_has_the_closed_form(kind):
    # the cells are free over Z/m, which is self-injective, so at (i, j) of
    # Hom(C, D) H' = H_i(C)^(rank D^j) and H'' = H^j(D)^(rank C_i); C (x) D
    # has the same at (-i, -j).  Half the grids have a factor broken by
    # _zero_first_diff, which gives the formula nonzero groups to match.
    sign = 1 if kind == "hom" else -1
    nonzero = 0
    for (m, support, broken, c, d), x in functor_grid_cases(kind):
        for i in range(-2, 3):
            for j in range(-2, 3):
                ci, dj = sign * i, sign * j
                for axis, h, rank in (
                        (PRIME, homology(c, ci), d.cell(dj).ambient_rank),
                        (SECOND, homology(d, dj), c.cell(ci).ambient_rank)):
                    got = directional_homology(x, (i, j), axis)
                    want = invariant_factors_oracle(
                        list(h.group.invariant_factors) * rank)
                    assert got.invariant_factors == want, \
                        (m, support, broken, i, j, axis)
                    nonzero += bool(want)
    assert nonzero >= 100


# ------------------------------------------ exactness certified by factors


def grid_refusal(x, i, j):
    """The refusal of core_homology at (i, j) as read off check_exact_grid:
    the first of H'' at (i - 1, j) and H' at (i, j - 1) that the grid
    finds nonzero, named as core_outcome names it; None when both
    vanish."""
    found = {(site, axis): text for site, axis, text
             in check_exact_grid(x, i - 1, i, j - 1, j)}
    for axis, site, mark in ((SECOND, (i - 1, j), "''"),
                             (PRIME, (i, j - 1), "'")):
        if (site, axis) in found:
            return "HypothesisViolated", (
                "core_homology needs H%s = 0 at (%d, %d) but found %s"
                % ((mark,) + site + (found[site, axis],)))
    return None


def core_outcome(x, i, j):
    """None, or the name and text of core_homology's refusal at (i, j)."""
    try:
        core_homology(x, (i, j))
    except HypothesisViolated as exc:
        return type(exc).__name__, str(exc)
    return None


def assert_gate_matches_grid(gate, oracle, span):
    """core_homology on `gate` refuses exactly where check_exact_grid on
    the separate grid `oracle` says it must, with the same text; returns
    how many sites were refused."""
    refused = 0
    for i in span:
        for j in span:
            want = grid_refusal(oracle, i, j)
            assert core_outcome(gate, i, j) == want, (i, j)
            refused += want is not None
    return refused


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_the_factor_certificate_refuses_where_the_grid_does(kind):
    refused = 0
    oracles = (x for _, x in functor_grid_cases(kind))
    for (_, _, broken, _, _), x in functor_grid_cases(kind):
        got = assert_gate_matches_grid(x, next(oracles), range(-2, 3))
        assert broken or not got
        refused += got
    assert refused >= 20


Z4_EXTENSION = json.dumps({
    # 0 -> Z/2 -> Z/4 -> Z/2 -> 0: exact, with two cells that are not free
    "modulus": 4, "convention": "homological",
    "support": {"window": {"lo": 0, "hi": 2}},
    "cells": {"0": {"factors": [2]}, "1": {"factors": [4]},
              "2": {"factors": [2]}},
    "diffs": {"1": [[1]], "2": [[2]]}})


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_a_non_free_factor_cell_is_decided_on_the_grid(kind):
    # both factors are exact, so the closed form would call every site
    # exact; but Z/2 is neither projective nor injective over Z/4, and
    # Hom(Z/2, D) and Z/2 (x) D of an exact D with a Z/4 --2--> Z/4 strand
    # are not exact
    c = parse_complex(Z4_EXTENSION)
    second = COHOMOLOGICAL if kind == "hom" else "homological"
    d = random_exact_complex(4, 0, blocks=2, convention=second)
    assert is_exact(c) == [] and is_exact(d) == []
    build = hom_bicomplex if kind == "hom" else tensor_bicomplex
    assert assert_gate_matches_grid(build(c, d), build(c, d),
                                    range(-3, 4)) >= 4


def z_multiplication():
    """Z --2--> Z at degrees 1, 0: H_0 = Z/2 and H_1 = 0."""
    z = FpGroup.free(0, 1)
    return Complex.window("homological", 0, 0, 1, [z, z],
                          {1: make_morphism(z, z, IntMatrix([[2]]))})


def test_a_grid_over_the_integers_is_decided_on_the_grid():
    # Z is not self-injective: Hom(C, Z) has H' = Ext(H_0(C), Z) = Z/2 at
    # (1, 0), where H_1(C) = 0 would certify it
    c = z_multiplication()
    z = FpGroup.free(0, 1)
    d = Complex.window(COHOMOLOGICAL, 0, 0, 0, [z])
    x = hom_bicomplex(c, d)
    assert homology(c, 1).group.is_trivial()
    assert not directional_homology(x, (1, 0), PRIME).is_trivial()
    assert assert_gate_matches_grid(hom_bicomplex(c, d), x,
                                    range(-2, 4)) >= 1


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_a_double_complex_wrap_is_decided_on_the_grid(kind):
    # the wrap keeps no factors, so even its exact sites go to the grid
    refused = 0
    oracles = (x for _, x in functor_grid_cases(kind))
    for (_, _, broken, _, _), x in functor_grid_cases(kind):
        wrap = from_double_complex(to_double_complex(x))
        assert wrap._factors is None
        got = assert_gate_matches_grid(wrap, next(oracles), range(-2, 3))
        assert broken or not got
        refused += got
    assert refused >= 20


def test_a_grid_with_an_inexact_factor_is_decided_on_the_grid(monkeypatch):
    # D is exact and free, so H'' = H^j(D)^(rank C_i) vanishes everywhere;
    # but C is faulted, so the gate reads both of its sites on the grid
    c = random_exact_complex(4, 0, blocks=2, kind="window")
    d = random_exact_complex(4, 1, blocks=2, convention=COHOMOLOGICAL)
    faulted, victim = _zero_first_diff(c)
    x = hom_bicomplex(faulted, d)
    reads, real = [], bicomplexes.directional_homology
    monkeypatch.setattr(bicomplexes, "directional_homology",
                        lambda x, bd, axis: reads.append((axis, bd))
                        or real(x, bd, axis))
    outcomes = set()
    for i in range(victim - 2, victim + 3):
        for j in range(-2, 3):
            del reads[:]
            try:
                bicomplexes._require_core_exact(x, i, j, "core_homology")
            except HypothesisViolated:
                outcomes.add("refused")
                continue
            assert reads == [(SECOND, (i - 1, j)), (PRIME, (i, j - 1))]
            outcomes.add("passed")
    assert outcomes == {"refused", "passed"}


# ------------------------------------------------ the core read off factors


def type_cases(kind):
    """(label, grid) for Hom or tensor grids of exact free factors over
    Z/4, 6, 8, 9, 12 and 36: seeded strand sums and disc sums, a direct sum
    of two strand sums, and the period-1 strand Z/4 --2--> Z/4 alone and
    summed into a strand sum."""
    second = COHOMOLOGICAL if kind == "hom" else HOMOLOGICAL
    build = hom_bicomplex if kind == "hom" else tensor_bicomplex
    for m in (4, 6, 8, 9, 12, 36):
        for seed in range(3):
            for shape in ("periodic", "window"):
                c = random_exact_complex(m, seed, blocks=2, kind=shape)
                d = random_exact_complex(m, seed + 50, blocks=2, kind=shape,
                                         convention=second)
                yield (m, seed, shape), build(c, d)
            c = direct_sum(random_exact_complex(m, seed + 10, blocks=2),
                           random_exact_complex(m, seed + 20, blocks=1))
            d = random_exact_complex(m, seed + 60, blocks=2,
                                     convention=second)
            yield (m, seed, "sum"), build(c, d)
    one = periodic_strand(4, [2])
    yield (4, None, "period 1"), build(one, periodic_strand(4, [2], second))
    yield (4, None, "period 1 summed"), build(
        direct_sum(one, random_exact_complex(4, 5, blocks=2)),
        random_exact_complex(4, 6, blocks=2, convention=second))


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_core_type_is_the_grid_core(kind):
    nonzero = 0
    for label, x in type_cases(kind):
        for i in range(-2, 3):
            for j in range(-2, 3):
                got = core_homology(x, (i, j)).group
                assert got.free_rank == 0
                assert core_type(x, (i, j)) == got.invariant_factors, \
                    (label, i, j)
                nonzero += bool(got.invariant_factors)
    assert nonzero >= 400


@pytest.mark.parametrize("m, a_orders, b_orders", [
    (4, [2], [2]), (6, [2], [3]), (8, [2, 4], [4]), (9, [3], [3, 9]),
    (12, [2, 6], [4, 6]), (12, [3, 2], [2, 6]), (36, [6, 12], [4, 18]),
])
def test_cores_of_resolution_grids_have_the_planted_closed_form(
        m, a_orders, b_orders):
    # kernel-free: Tate Ext and Tor of Z/a and Z/b over Z/m are cyclic of
    # order gcd(a, b) gcd(m/a, b) / b in every degree, and both grids of
    # the complete resolutions of A and B carry them in every bidegree
    want = _invariants_of_cyclics(gcd(a, b) * gcd(m // a, b) // b
                                  for a in a_orders for b in b_orders)
    a = FpGroup.from_factors(m, a_orders)
    b = FpGroup.from_factors(m, b_orders)
    p = complete_resolution(m, a, HOMOLOGICAL)
    for x in (hom_bicomplex(p, complete_resolution(m, b, COHOMOLOGICAL)),
              tensor_bicomplex(p, complete_resolution(m, b, HOMOLOGICAL))):
        for i in range(-1, 2):
            for j in range(-1, 2):
                assert core_type(x, (i, j)) == want
                assert core_homology(x, (i, j)).group.invariant_factors \
                    == want, (i, j)
    assert want or m == 6


def test_core_type_answers_only_grids_of_exact_free_factors():
    c = random_exact_complex(4, 0, blocks=2)
    d = random_exact_complex(4, 1, blocks=2, convention=COHOMOLOGICAL)
    assert core_type(hom_bicomplex(c, d), (0, 0)) is not None
    z = FpGroup.free(0, 1)
    undecided = [
        strand_square(4, [2, 2]),
        Bicomplex.from_grid(4, {(0, 0): FpGroup.free(4, 1)}),
        hom_bicomplex(_zero_first_diff(c)[0], d),
        hom_bicomplex(c, _zero_first_diff(d)[0]),
        hom_bicomplex(z_multiplication(), Complex.window(COHOMOLOGICAL, 0,
                                                         0, 0, [z])),
        hom_bicomplex(parse_complex(Z4_EXTENSION), d),
        from_double_complex(to_double_complex(hom_bicomplex(c, d))),
    ]
    for x in undecided:
        assert core_type(x, (0, 0)) is None
        with pytest.raises(BadArgument, match=ALT_REFUSAL):
            core_homology_alt(x, (1, 1))


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_alt_answers_by_core_type_with_no_smith_form(monkeypatch, kind):
    # the merged orders are a divisibility chain and become the answer's
    # cyclic form as they are
    for label, x in type_cases(kind):
        core_type(x, (0, 0))
        calls = []
        real = abgroup.smith_normal_form
        monkeypatch.setattr(abgroup, "smith_normal_form",
                            lambda *args: calls.append(args) or real(*args))
        alt = core_homology_alt(x, (0, 0)).group
        got = alt.invariant_factors, alt.free_rank
        monkeypatch.setattr(abgroup, "smith_normal_form", real)
        want = core_homology(x, (0, 0)).group
        assert got == (want.invariant_factors, want.free_rank), label
        assert alt.order() == want.order() and calls == [], label


# ------------------------------------------- one kernel/image per differential


def rank4_grid(kind):
    """A fresh Hom or tensor grid over Z/12 with rank-4 cells."""
    c = random_exact_complex(12, 3, blocks=2)
    if kind == "hom":
        d = random_exact_complex(12, 4, blocks=2, convention=COHOMOLOGICAL)
        return hom_bicomplex(c, d)
    return tensor_bicomplex(c, random_exact_complex(12, 4, blocks=2))


def run_core_queries(x):
    for bd in ((0, 0), (1, 0), (0, 1), (1, 1)):
        core_homology(x, bd)
        core_homology_alt(x, bd)
        assert core_equality_check(x, bd)


def memoised_diffs(x):
    return [f for memo in x._diffs.values() for f in memo.values()]


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_each_differential_kernel_is_built_once(monkeypatch, kind):
    x = rank4_grid(kind)
    seen = []
    real = abgroup.kernel_basis

    def counting(a, *args):
        seen.append(a)
        return real(a, *args)

    monkeypatch.setattr(abgroup, "kernel_basis", counting)
    run_core_queries(x)
    diffs = memoised_diffs(x)
    assert max(sum(a is f.matrix for a in seen) for f in diffs) == 1
    for f in diffs:
        ker, img = kernel_image(f)
        again = kernel_image(f)
        assert again[0] is ker and again[1] is img


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_grid_differentials_are_reduced_mod_m(kind):
    x = rank4_grid(kind)
    run_core_queries(x)
    entries = {e for f in memoised_diffs(x)
               for row in f.matrix.to_lists() for e in row}
    assert entries and min(entries) >= 0 and max(entries) < 12


def count_gates(monkeypatch):
    """(op name, sites) of every _require_exact call from now on."""
    calls, real = [], bicomplexes._require_exact

    def counting(x, sites, op_name):
        calls.append((op_name, list(sites)))
        return real(x, sites, op_name)

    monkeypatch.setattr(bicomplexes, "_require_exact", counting)
    return calls


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_core_homology_alt_runs_no_gate_of_its_own(monkeypatch, kind):
    # alt answers by core_type, which runs no gate: the factors certify
    # every site; a grid without factors is refused before any site is read
    x = rank4_grid(kind)
    calls = count_gates(monkeypatch)
    core_homology(x, (0, 0))
    core_homology_alt(x, (0, 0))
    assert [name for name, _ in calls] == ["core_homology"]
    del calls[:]
    core_homology_alt(rank4_grid(kind), (0, 0))
    assert calls == []
    with pytest.raises(BadArgument, match=ALT_REFUSAL):
        core_homology_alt(from_double_complex(to_double_complex(
            rank4_grid(kind))), (0, 0))
    assert calls == []


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_the_chase_checks_only_the_line_it_solves_along(monkeypatch, kind):
    # the other site, H'' at (i-1, j) or H' at (i, j-1), passed the source
    # core's gate
    x = rank4_grid(kind)
    zero = core_homology(x, (0, 0)).zero_class()
    calls = count_gates(monkeypatch)
    for direction in "+-":
        diagonal_shift(zero, direction)
    assert [c for c in calls if c[0].startswith("diagonal_shift")] == [
        ("diagonal_shift(+)", [(SECOND, 0, 0)]),
        ("diagonal_shift(-)", [(PRIME, 0, 0)])]


# ------------------------------------------- exactness without a Smith form


@pytest.mark.parametrize("kind", ["hom", "tensor"])
def test_exactness_is_certified_without_a_smith_form(monkeypatch, kind):
    x = rank4_grid(kind)
    for i in range(-2, 3):
        for j in range(-2, 3):
            x.cell(i, j)
    calls = []
    real = backend.snf_transforms

    def counting(a, m=0):
        calls.append((a, m))
        return real(a, m)

    monkeypatch.setattr(backend, "snf_transforms", counting)
    bicomplexes._require_core_exact(x, 0, 0, "core_homology")
    assert calls == []
