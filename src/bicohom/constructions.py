"""Builders on top of the grid machinery.

Hom and tensor bicomplexes, and the hom cells and differentials of the
kernel witnesses, are read off the lazy grid of `complexes._lazy_functor`;
each witness's backward map is one `induced_hom_map`.  The Hom squares
commute on the nose (both composites send f to d_D . f . d_C), which is
the reason the grid convention carries no signs.
Complete resolutions over Z/m are 2-periodic strand sums read off the
canonical cyclic decomposition (`complete_resolution`); the public
builders pair each with an explicit isomorphism witness from the degree-0
cycles back to the module.  Randomized exact complexes of free modules
feed the property tests; they are deterministic in the seed and
re-checked for exactness before being returned.
"""

from random import Random

from . import backend
from .abgroup import (Element, FpGroup, Morphism, Subgroup, _shared_modulus,
                      _solve, hom_group, induced_hom_map, induced_tensor_map,
                      kernel_image, make_morphism, morphism_from_images,
                      subquotient, tensor_group)
from .bicomplexes import Bicomplex
from .complexes import (COHOMOLOGICAL, HOMOLOGICAL, Complex, _lazy_functor,
                        cycles, degree_step, is_exact)
from .errors import (BadArgument, ConventionViolation, HypothesisViolated,
                     InternalChaseFailure, NotAModule)
from .snf import IntMatrix


# -- bicomplexes from pairs of complexes ------------------------------------


def _functor_grid(cell_fn, map_fn, c, d, sign):
    """The Bicomplex of the lazy grid F(C_{sign i}, D_{sign j}); it keeps
    (c, d), whose free cells and exactness certify the whole grid's
    (`bicomplexes._exact_free`)."""
    at, dprime, dsecond = _lazy_functor(cell_fn, map_fn, c, d, sign)
    support_i, support_j = c.support, d.support
    if sign < 0:
        support_i, support_j = support_i.reflected(), support_j.reflected()
    grid = Bicomplex(_shared_modulus(c, d), support_i, support_j,
                     lambda i, j: at(i, j).group, dprime, dsecond)
    grid._factors = (c, d)
    return grid


def hom_bicomplex(c, d):
    """Hom(C_i, D^j) with d' = precomposition and d'' = postcomposition.

    Row j is the complex Hom(C, D^j) and column i is Hom(C_i, D); both
    differentials raise their index, so no reindexing is needed.
    """
    if c.convention != HOMOLOGICAL:
        raise BadArgument("hom_bicomplex expects a homological first factor")
    if d.convention != COHOMOLOGICAL:
        raise BadArgument("hom_bicomplex expects a cohomological second "
                          "factor")
    return _functor_grid(hom_group, induced_hom_map, c, d, 1)


def tensor_bicomplex(c, d):
    """C (x) D as a raising grid via cell(i, j) = C_{-i} (x) D_{-j}.

    Both factors are homological; their lowering differentials become the
    grid's d' and d'' under the reflection, and the squares commute since
    d' (x) id and id (x) d'' act on disjoint factors.
    """
    if c.convention != HOMOLOGICAL or d.convention != HOMOLOGICAL:
        raise BadArgument("tensor_bicomplex expects homological factors")
    return _functor_grid(tensor_group, induced_tensor_map, c, d, -1)


# -- complete resolutions over Z/m ------------------------------------------


def _zm_factors(m, module):
    if m < 2:
        raise NotAModule("complete resolutions need a modulus of at least 2")
    if module.modulus != m:
        raise NotAModule("the group's modulus context is %d, expected %d"
                         % (module.modulus, m))
    # the relations hold m*e_i for every generator, so each invariant
    # factor divides m
    return module.invariant_factors


def _strand_complex(m, factors, convention):
    """The 2-periodic free strand sum: d_0 = diag(d), d_1 = diag(m/d)."""
    k = len(factors)
    cell = FpGroup.free(m, k)
    d0 = make_morphism(cell, cell,
                       IntMatrix.diagonal(list(factors), rows=k, cols=k))
    d1 = make_morphism(cell, cell,
                       IntMatrix.diagonal([m // f for f in factors],
                                          rows=k, cols=k))
    return Complex.periodic(convention, m, 2, [cell, cell], {0: d0, 1: d1})


def _packaged(parent, subgroup):
    """A subgroup of parent as a group, with project and representative."""
    return subquotient(parent, subgroup, Subgroup.zero(parent))


def _cycle_witness(complex_, degree, module, m):
    """Package Z at `degree` as a group plus the iso onto the module.

    A cycle's i-th coordinate is a multiple of m/d_i; dividing out the
    scale sends the generator (m/d_i) e_i to the module's i-th cyclic
    generator.
    """
    packaged = _packaged(complex_.cell(degree), cycles(complex_, degree))
    basis = module.cyclic_decomposition().from_cyclic
    factors = module.invariant_factors
    lifted = map(packaged.parent.reduce, packaged.numerator.matrix.columns())
    return morphism_from_images(packaged.group, module, [basis.mul_vector(
        [z[i] // (m // f) for i, f in enumerate(factors)]) for z in lifted])


def _checked_exact(c, what):
    report = is_exact(c)
    if report:
        raise ConventionViolation("%s failed its exactness check: %r"
                                  % (what, report))
    return c


def complete_resolution(m, module, convention):
    """The checked strand sum alone: P when `convention` is homological,
    E when cohomological."""
    what = "complete %s resolution" % (
        "projective" if convention == HOMOLOGICAL else "injective")
    return _checked_exact(
        _strand_complex(m, _zm_factors(m, module), convention), what)


def complete_projective_resolution(m, module):
    """(P, witness) with P the 2-periodic free strand sum for the module's
    invariant factors and witness : Z_0(P) -> module an isomorphism.

    ker d_0 = ker diag(d) is exactly (+) (m/d) Z/m = (+) Z/d, so Z_0
    recovers the module; free factors d = m contribute a 0/1-alternating
    strand that is exact and invisible to every Tate group.
    """
    p = complete_resolution(m, module, HOMOLOGICAL)
    return p, _cycle_witness(p, 0, module, m)


def complete_injective_resolution(m, module):
    """(E, witness): the strand sum read cohomologically, d^0 = diag(d),
    with witness : Z^0(E) -> module.  Free = injective over Z/m."""
    e = complete_resolution(m, module, COHOMOLOGICAL)
    return e, _cycle_witness(e, 0, module, m)


# -- randomized exact complexes ---------------------------------------------


def _unimodular_pair(rng, n):
    """(U, U^-1) from eight random moves on the identity, in place: row i
    of U gains k times row j, column j of U^-1 loses k times column i."""
    u, uinv = backend.identity(n), backend.identity(n)
    for _ in range(8 if n > 1 else 0):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        k = rng.randint(-2, 2)
        backend._rows(u, i, j, 1, k, 0, 1)
        backend._cols(uinv, i, j, 1, 0, -k, 1)
    return IntMatrix(u, cols=n), IntMatrix(uinv, cols=n)


def _strand_sum(m, rng, blocks, convention):
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    picks = [rng.choice(divisors) for _ in range(blocks)]
    cell = FpGroup.free(m, blocks)
    d0 = IntMatrix.diagonal(picks, rows=blocks, cols=blocks)
    d1 = IntMatrix.diagonal([m // d for d in picks],
                            rows=blocks, cols=blocks)
    u0, u0inv = _unimodular_pair(rng, blocks)
    u1, u1inv = _unimodular_pair(rng, blocks)
    return Complex.periodic(
        convention, m, 2, [cell, cell],
        {0: morphism_from_images(cell, cell, (u1 @ d0 @ u0inv).columns()),
         1: morphism_from_images(cell, cell, (u0 @ d1 @ u1inv).columns())})


def _disc_sum(m, rng, blocks, convention):
    if blocks == 0:
        return Complex.zero(convention, m)
    bases = sorted(rng.randrange(0, blocks + 2) for _ in range(blocks))
    lo, hi = bases[0], bases[-1] + 1
    slots = {n: [] for n in range(lo, hi + 1)}
    for b, t in enumerate(bases):
        slots[t].append((b, 0))
        slots[t + 1].append((b, 1))
    cells = {n: FpGroup.free(m, len(slots[n])) for n in slots}
    pairs = {n: _unimodular_pair(rng, len(slots[n])) for n in slots}
    diffs = {}
    for n in slots:
        tgt = n + degree_step(convention)
        if tgt not in slots:
            continue
        # identity on each disc, aimed along the convention's direction
        row_tag, col_tag = (0, 1) if convention == HOMOLOGICAL else (1, 0)
        mat = [[1 if rs[0] == cs[0] and rs[1] == row_tag and cs[1] == col_tag
                else 0 for cs in slots[n]] for rs in slots[tgt]]
        conjugated = (pairs[tgt][0]
                      @ IntMatrix(mat, cols=len(slots[n])) @ pairs[n][1])
        diffs[n] = morphism_from_images(cells[n], cells[tgt],
                                        conjugated.columns())
    return Complex.window(convention, m, lo, hi, cells, diffs)


def random_exact_complex(m, seed, blocks=3, kind="periodic",
                         convention=HOMOLOGICAL):
    """A seeded exact complex of free Z/m modules.

    kind "periodic": a rank-`blocks` 2-periodic divisor strand sum;
    kind "window": `blocks` two-cell discs at seeded positions, genuinely
    zero outside.  Every degree is conjugated by a seeded unimodular
    change of basis, which preserves freeness and exactness but not the
    diagonal shape; exactness is re-checked before returning.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    rng = Random(seed)
    if kind == "periodic":
        c = _strand_sum(m, rng, blocks, convention)
    elif kind == "window":
        c = _disc_sum(m, rng, blocks, convention)
    else:
        raise ValueError("kind must be 'periodic' or 'window'")
    return _checked_exact(c, "random exact complex")


# -- kernel identification witnesses ----------------------------------------


def _hom_witness(hom_cell, diff, target_hom, restrict, lift, name):
    """The inverse pair between Z = ker diff, a subgroup of the hom cell
    Hom(C_i, D^j), and target_hom.  forward realizes a class of Z as f and
    reads the images restrict(f) of target_hom.source's generators;
    backward projects into Z the columns of lift: target_hom -> hom_cell,
    an induced map built by `induced_hom_map`.  Built independently, they
    are inverse iff backward o forward = 1 and the orders agree (between
    infinite groups: and forward o backward = 1).
    """
    z_side = _packaged(hom_cell.group, kernel_image(diff)[0])
    fwd_cols = [target_hom.element_of(morphism_from_images(
        target_hom.source, target_hom.target,
        restrict(hom_cell.realize(Element(hom_cell.group, z))))).coords
        for z in z_side.numerator.matrix.columns()]
    forward = morphism_from_images(z_side.group, target_hom.group, fwd_cols)
    backward = morphism_from_images(target_hom.group, z_side.group,
                                    z_side._classes(lift.matrix.columns()))
    n = forward.source.order()
    if backward.compose(forward) != Morphism.identity(forward.source) or (
            n != forward.target.order() if n is not None else
            forward.compose(backward) != Morphism.identity(forward.target)):
        raise InternalChaseFailure(
            "%s: the composites are not the identity" % name)
    return forward, backward


def zprime_witness(c, d, bidegree):
    """Mutually inverse maps between Z' of Hom(C, D) at (i, j) and
    Hom(Z_{i-1}(C), D^j).

    A d'-cocycle kills B_i(C), and exactness at i and i-1 lets d_i identify
    C_i/B_i(C) with Z_{i-1}(C); note the cycle degree really is i-1 --
    restricting along the differential lowers the degree by one, which
    periodic examples cannot see.  The backward map precomposes with d_i.
    """
    i, j = bidegree
    report = is_exact(c, i, i) or is_exact(c, i - 1, i - 1)
    if report:
        raise HypothesisViolated(
            "the first factor must be exact at degree %d; found %s"
            % report[0])
    cyc_side = _packaged(c.cell(i - 1), cycles(c, i - 1))
    d_i = c.diff(i).matrix
    preimages = _solve(d_i, cyc_side.numerator.matrix.columns(),
                       cyc_side.parent, "preimage")
    if preimages is None:
        raise InternalChaseFailure(
            "no differential preimage for a cycle at degree %d" % (i - 1,))
    onto_cycles = morphism_from_images(c.cell(i), cyc_side.group,
                                       cyc_side._classes(d_i.columns()))
    at, dprime, _ = _lazy_functor(hom_group, induced_hom_map, c, d, 1)
    target_hom = hom_group(cyc_side.group, d.cell(j))
    return _hom_witness(
        at(i, j), dprime(i, j), target_hom,
        lambda f: [f.matrix.mul_vector(w) for w in preimages],
        induced_hom_map(target_hom, at(i, j), precompose=onto_cycles),
        "zprime_witness")


def zsecond_witness(c, d, bidegree):
    """Mutually inverse maps between Z'' of Hom(C, D) at (i, j) and
    Hom(C_i, Z^j(D)).

    A d''-cocycle is exactly a morphism landing inside ker d^j, so this is
    a corestriction: no exactness hypothesis and no degree shift.  The
    backward map postcomposes with the inclusion of Z^j(D) into D^j.
    """
    i, j = bidegree
    cyc_side = _packaged(d.cell(j), cycles(d, j))
    inclusion = Morphism(cyc_side.group, d.cell(j), cyc_side.numerator.matrix)
    at, _, dsecond = _lazy_functor(hom_group, induced_hom_map, c, d, 1)
    target_hom = hom_group(c.cell(i), cyc_side.group)
    return _hom_witness(
        at(i, j), dsecond(i, j), target_hom,
        lambda f: cyc_side._classes(f.matrix.columns()),
        induced_hom_map(target_hom, at(i, j), postcompose=inclusion),
        "zsecond_witness")
