"""`abgroup.ker_mod_im`: the one builder of ker(out) / im(into).

Over Z/m the builder decides a vanishing quotient by counting:
|cell| == |cell / Z| * |src(into) / ker(into)| means |Z| == |B|, and B <= Z
then forces Z == B.  It then hands back the zero group on Z's generators
without building a kernel basis.

Oracles:
  * agreement: at every site of seeded exact complexes and Hom/tensor
    grids over Z/4, 8, 9 and 12, and of copies faulted by
    `suites._zero_first_diff`, `abgroup.subquotient` called directly on
    the same Z and B gives the same group invariants;
  * the texts of the `HypothesisViolated` refusals on the faulted grids
    are pinned by a digest taken before the builder existed;
  * a hand-built pair whose orders match while B is not inside Z must
    still raise `NotContained`;
  * kernel_basis call counts pin the work, so losing the counting path
    fails here and not only in the benchmark.  A Hom grid certifies its
    exactness from its factors and calls no ker_mod_im at all, so the
    counting path is pinned on a `from_grid` copy of its cells.
"""

import hashlib

import pytest

from bicohom import abgroup, bicomplexes
from bicohom.abgroup import (FpGroup, kernel_image, ker_mod_im,
                             make_morphism, subquotient)
from bicohom.bicomplexes import (PRIME, SECOND, _STEP, Bicomplex,
                                 core_homology, diagonal_shift)
from bicohom.complexes import COHOMOLOGICAL, HOMOLOGICAL, Complex, homology
from bicohom.constructions import (hom_bicomplex, random_exact_complex,
                                   tensor_bicomplex)
from bicohom.errors import HypothesisViolated, NotContained
from bicohom.snf import IntMatrix
from bicohom.suites import _zero_first_diff

MODULI = (4, 8, 9, 12)


def same_group(got, want):
    assert got.is_trivial() == want.is_trivial()
    assert got.invariant_factors == want.invariant_factors
    assert got.free_rank == want.free_rank


def assert_agrees(cell, out, into):
    got = ker_mod_im(out, into)
    want = subquotient(cell, kernel_image(out)[0], kernel_image(into)[1])
    same_group(got.group, want.group)
    return got.group.is_trivial()


def complexes_over(m):
    """Exact complexes of both kinds over Z/m and their faulted copies."""
    exact = [random_exact_complex(m, m, blocks=2),
             random_exact_complex(m, m + 1, blocks=2, kind="window")]
    return exact + [_zero_first_diff(c)[0] for c in exact]


def grids_over(m, kind):
    """Hom or tensor grids over Z/m: periodic exact, periodic faulted,
    window exact, window faulted, in that order."""
    grids = []
    for shape in ("periodic", "window"):
        c = random_exact_complex(m, m, blocks=2, kind=shape)
        for first in (c, _zero_first_diff(c)[0]):
            if kind == "hom":
                d = random_exact_complex(m, m + 1, blocks=2, kind=shape,
                                         convention=COHOMOLOGICAL)
                grids.append(hom_bicomplex(first, d))
            else:
                d = random_exact_complex(m, m + 1, blocks=2, kind=shape)
                grids.append(tensor_bicomplex(first, d))
    return grids


@pytest.mark.parametrize("m", MODULI)
def test_complex_sites_agree_with_subquotient(m):
    seen = set()
    for c in complexes_over(m):
        for n in range(-3, 4):
            seen.add(assert_agrees(c.cell(n), c.diff(n), c.diff(n - c.step)))
    assert seen == {True, False}


@pytest.mark.parametrize("kind", ["hom", "tensor"])
@pytest.mark.parametrize("m", MODULI)
def test_grid_sites_agree_with_subquotient(m, kind):
    seen = set()
    for x in grids_over(m, kind):
        for i in range(-2, 3):
            for j in range(-2, 3):
                for axis in (PRIME, SECOND):
                    di, dj = _STEP[axis]
                    seen.add(assert_agrees(x.cell(i, j), x._diff(i, j, axis),
                                           x._diff(i - di, j - dj, axis)))
    assert seen == {True, False}


def z_complex():
    """Z --2--> Z --0--> Z at degrees 2, 1, 0: homology 0, Z/2 and Z."""
    z = FpGroup.free(0, 1)
    return Complex.window(HOMOLOGICAL, 0, 0, 2, [z, z, z],
                          {2: make_morphism(z, z, IntMatrix([[2]]))})


def count_calls(monkeypatch, name):
    """The argument tuples of every call to abgroup.<name> from now on."""
    calls = []
    real = getattr(abgroup, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(abgroup, name, counting)
    return calls


def test_integer_sites_take_the_subquotient_route(monkeypatch):
    c = z_complex()
    calls = count_calls(monkeypatch, "subquotient")
    groups = [homology(c, n).group for n in (0, 1, 2)]
    assert len(calls) == 3
    assert [(g.invariant_factors, g.free_rank) for g in groups] == [
        ((), 1), ((2,), 0), ((), 0)]
    for n in (0, 1, 2):
        assert_agrees(c.cell(n), c.diff(n), c.diff(n + 1))


def fault_texts():
    """Every HypothesisViolated text of core_homology and both diagonal
    shifts over a 9x9 window of the faulted window grids."""
    texts = []
    for m in MODULI:
        for kind in ("hom", "tensor"):
            x = grids_over(m, kind)[-1]
            for i in range(-4, 5):
                for j in range(-4, 5):
                    try:
                        h = core_homology(x, (i, j))
                    except HypothesisViolated as exc:
                        texts.append("%d %s %d %d core: %s"
                                     % (m, kind, i, j, exc))
                        continue
                    for direction in "+-":
                        try:
                            diagonal_shift(h.zero_class(), direction)
                        except HypothesisViolated as exc:
                            texts.append("%d %s %d %d %s: %s"
                                         % (m, kind, i, j, direction, exc))
    return texts


def test_refusal_texts_on_faulted_grids_are_unchanged():
    texts = fault_texts()
    assert len(texts) == 104
    assert texts[0] == ("4 hom 0 4 +: core_homology needs H' = 0 at (1, 2) "
                        "but found Z/4 (+) Z/4")
    assert "4 hom 1 2 -: diagonal_shift(-) needs H' = 0 at (1, 2) but " \
        "found Z/4 (+) Z/4" in texts
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == ("19f0c89f0c6c622cf0f060a5c1a0d3a4"
                      "bf15206bca2ad62c46dff3df6dc091ff")


def test_matching_orders_do_not_hide_a_boundary_outside_the_cycles():
    # cell (Z/2)^2; Z = ker(first coordinate) = <e2> and B = <e1> both have
    # order 2, so the count reads |Z| == |B| although B is not inside Z
    m = 2
    cell = FpGroup.free(m, 2)
    line = FpGroup.free(m, 1)
    out = make_morphism(cell, line, IntMatrix([[1, 0]]))
    into = make_morphism(line, cell, IntMatrix([[1], [0]]))
    assert not out.compose(into).is_zero()
    with pytest.raises(NotContained,
                       match="^denominator is not inside the numerator$"):
        ker_mod_im(out, into)
    with pytest.raises(NotContained,
                       match="^denominator is not inside the numerator$"):
        subquotient(cell, kernel_image(out)[0], kernel_image(into)[1])


def rank4_hom_grid():
    c = random_exact_complex(12, 3, blocks=2)
    d = random_exact_complex(12, 4, blocks=2, convention=COHOMOLOGICAL)
    return hom_bicomplex(c, d)


def test_core_homology_builds_no_kernel_for_a_vanishing_site(monkeypatch):
    # a from_grid copy of the Hom grid's cells and differentials keeps no
    # factors, so its exactness is decided on the grid by ker_mod_im
    x = rank4_hom_grid()
    span = range(-2, 3)
    copy = Bicomplex.from_grid(
        12, {(i, j): x.cell(i, j) for i in span for j in span},
        {(i, j): x.dprime(i, j) for i in span[:-1] for j in span},
        {(i, j): x.dsecond(i, j) for i in span for j in span[:-1]})
    calls = count_calls(monkeypatch, "kernel_basis")
    core_homology(copy, (0, 0))
    # the kernels of the grid's four distinct differentials (d' and d''
    # out of each parity, shared by the sites of that parity) and the
    # core's own subquotient; the two vanishing H' and H'' are counted,
    # not built
    assert len(calls) == 5


def test_a_functor_grid_certifies_exactness_from_its_factors(monkeypatch):
    x = rank4_hom_grid()
    kernels = count_calls(monkeypatch, "kernel_basis")
    grid_sized = []
    real = bicomplexes.ker_mod_im

    def counting(out, into, *args):
        grid_sized.append(out.source.ambient_rank)
        return real(out, into, *args)

    monkeypatch.setattr(bicomplexes, "ker_mod_im", counting)
    core_homology(x, (0, 0))
    # the factors certify H'' at (-1, 0) and H' at (0, -1) from their
    # memoised homology, so only the kernels the core reads are built: d'
    # out of (0, 0), the one d'' of the even columns, and the core's own
    # subquotient
    assert len(kernels) == 3
    assert grid_sized == []


def test_random_exact_complex_builds_no_homology_kernel(monkeypatch):
    calls = count_calls(monkeypatch, "kernel_basis")
    random_exact_complex(12, 5)
    # the two differentials' kernels; the two vanishing homology groups
    # of its exactness check are counted, not built (4 without the count)
    assert len(calls) == 2


def test_a_vanishing_homology_is_the_zero_group_on_the_cycles():
    c = random_exact_complex(12, 5)
    for n in (0, 1):
        h = homology(c, n)
        t = h.numerator.matrix.cols
        assert h.group == FpGroup(12, t, IntMatrix.identity(t))
        assert h.group.is_trivial()
        cycle = h.representative(h.group.generators()[0])
        assert h.class_of(cycle).is_zero()
