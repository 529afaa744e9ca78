"""Shared helpers for the test suite."""

import random
from collections import defaultdict
from math import gcd

from bicohom import backend
from bicohom.abgroup import (Element, FpGroup, Morphism, hom_group,
                             make_morphism, morphism_from_images, tensor_group)
from bicohom.complexes import COHOMOLOGICAL, HOMOLOGICAL, Complex
from bicohom.snf import IntMatrix, smith_normal_form


def invariant_factors_oracle(orders):
    """Merge cyclic orders into invariant factors via prime powers.

    Independent of the Smith machinery: factor each order, collect the
    prime powers, and recombine them largest-first.
    """
    powers = defaultdict(list)
    for d in orders:
        n, p = d, 2
        while n > 1:
            if n % p == 0:
                e = 1
                n //= p
                while n % p == 0:
                    n //= p
                    e += 1
                powers[p].append(p ** e)
            p += 1
    for v in powers.values():
        v.sort(reverse=True)
    depth = max((len(v) for v in powers.values()), default=0)
    merged = []
    for idx in range(depth):
        f = 1
        for v in powers.values():
            if idx < len(v):
                f *= v[idx]
        merged.append(f)
    merged.reverse()
    return tuple(merged)


def full_relation_factors(group):
    """The Smith diagonal over Z of [R | m*I], R the relations of a Z/m
    group, read off minor_gcds(R) alone, with no elimination code.

    A k-minor of [R | m*I] that uses j columns of m*I is +-m^j times a
    (k-j)-minor of R (or 0), and every (k-j)-minor of R arises so, hence
    d_k([R | m*I]) = gcd over j <= k of m^j * d_{k-j}(R) with d_0 = 1;
    the diagonal is d_k / d_{k-1}.
    """
    m, n = group.modulus, group.ambient_rank
    minors = [1] + backend.minor_gcds(group.relations.to_lists())
    dets = [1]
    for k in range(1, n + 1):
        dets.append(gcd(*(m ** j * minors[k - j] for j in range(k + 1)
                          if k - j < len(minors))))
    return tuple(dets[k] // dets[k - 1] for k in range(1, n + 1))


def periodic_strand(modulus, entries, convention="homological"):
    """Periodic rank-1 complex over Z/modulus whose differentials multiply
    by the given entries (entry j acts on the cell at degree j)."""
    period = len(entries)
    step = -1 if convention == "homological" else 1
    cells = [FpGroup(modulus, 1) for _ in range(period)]
    diffs = {j: make_morphism(cells[j], cells[(j + step) % period],
                              IntMatrix([[a]]))
             for j, a in enumerate(entries)}
    return Complex.periodic(convention, modulus, period, cells, diffs)


def disc_complex(modulus, factors, top, convention="homological"):
    """An exact two-cell complex: an identity map whose source sits at
    degree `top`."""
    g = FpGroup.from_factors(modulus, factors)
    lo, hi = (top - 1, top) if convention == "homological" else (top, top + 1)
    cells = {lo: g, hi: g}
    diffs = {top: Morphism.identity(g)}
    return Complex.window(convention, modulus, lo, hi, cells, diffs)


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)], cols=cols)


def random_dims_matrix(rng, max_dim=8, bound=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return random_matrix(rng, rows, cols, bound)


def random_unimodular(rng, n, steps=6):
    """Product of elementary operations, so the determinant is +-1."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += q * m[j][k]
    if n and rng.random() < 0.5:
        r = rng.randrange(n)
        for k in range(n):
            m[r][k] = -m[r][k]
    return IntMatrix(m, cols=n)


def scrambled_group(rng, modulus, factors):
    """A group isomorphic to the given cyclic-factor sum, but presented by a
    relation matrix conjugated with random unimodular factors."""
    n = len(factors)
    p = random_unimodular(rng, n)
    q = random_unimodular(rng, n)
    rel = p @ IntMatrix.diagonal(list(factors)) @ q
    return FpGroup(modulus, n, rel)


def seeded(seed):
    return random.Random(seed)


def random_factor_group(rng, m):
    """A scrambled sum of 1-3 seeded cyclic groups: over Z (m = 0) the
    orders come from 0 (a Z summand), 2, 3, 4 and 6; over Z/m from the
    divisors of m above 1."""
    pool = [0, 2, 3, 4, 6] if m == 0 else \
        [d for d in range(2, m + 1) if m % d == 0]
    return scrambled_group(rng, m, [rng.choice(pool)
                                    for _ in range(rng.randint(1, 3))])


def random_morphism(rng, source, target):
    """A seeded morphism source -> target, read off Hom(source, target)."""
    hg = hom_group(source, target)
    coords = [rng.randint(-5, 5) for _ in range(hg.group.ambient_rank)]
    return hg.realize(hg.group.element(coords))


# -- the Hom/tensor functor by its per-generator definition ----------------
# Each induced map is built one generator at a time through realize,
# compose and element_of (Hom) or pure (tensor), and each functor complex
# one degree at a time, so none of the package's lazy grid builder or its
# cyclic-coordinate formula is shared.  Kept as the oracle that the grids
# and the four module functors are compared with.

def reference_hom_map(src, dst, pre, post):
    """phi |-> post . phi . pre between hom groups, generator by generator."""
    cols = [dst.element_of(post.compose(src.realize(e).compose(pre))).coords
            for e in src.group.generators()]
    return morphism_from_images(src.group, dst.group, cols)


def reference_tensor_map(src, dst, f, g):
    """f (x) g sending the generator x_i (x) y_j of each pair (i, j) of
    cyclic summands to pure(f(x_i), g(y_j))."""
    s_from = src.source.cyclic_decomposition().from_cyclic
    t_from = src.target.cyclic_decomposition().from_cyclic
    cols = [dst.pure(f(Element(src.source, s_from.column(i))),
                     g(Element(src.target, t_from.column(j)))).coords
            for i, j in src._pairs]
    return morphism_from_images(src.group, dst.group, cols)


def reference_functor_complex(kind, first, second):
    """Hom (kind "hom", cohomological) or tensor (kind "tensor",
    homological) of one complex and one group, degree by degree.  Against
    the contravariant slot of Hom the differential into degree n + 1 is
    the complex's differential out of n + 1."""
    hom = kind == "hom"
    cell_fn = hom_group if hom else tensor_group
    map_fn = reference_hom_map if hom else reference_tensor_map
    convention = COHOMOLOGICAL if hom else HOMOLOGICAL
    step = 1 if hom else -1
    c_first = isinstance(first, Complex)
    c, group = (first, second) if c_first else (second, first)
    s = c.support
    ident = Morphism.identity(group)
    objs = {n: cell_fn(c.cell(n), group) if c_first
            else cell_fn(group, c.cell(n)) for n in s.degrees()}
    diffs = {}
    for n in s.degrees():
        if n + step in s:
            f = c.diff(n if c.step == step else n + step)
            maps = (f, ident) if c_first else (ident, f)
            diffs[n] = map_fn(objs[n], objs[s.canonical(n + step)[0]], *maps)
    return Complex(convention, max(first.modulus, second.modulus), s,
                   {n: o.group for n, o in objs.items()}, diffs)


# -- the Z-lattice construction that the modular kernel replaced ------------
# A problem mod m is solved over Z after adjoining m*e_i as extra lattice
# generators.  Kept only as an oracle for the differential tests.

def adjoin_modulus(rows, m):
    """Row-major lists of a matrix with the columns m*e_i appended (m > 0)."""
    n = len(rows)
    if not m:
        return [list(row) for row in rows]
    return [list(row) + [m if i == j else 0 for j in range(n)]
            for i, row in enumerate(rows)]


def oracle_reduce(rows, m, vec):
    """Canonical residue of vec modulo span(columns of rows) + m*Z^n."""
    h, pivots = backend.col_echelon(adjoin_modulus(rows, m))
    return tuple(backend.reduce_columns(h, pivots, vec))


def oracle_contains(basis, vec):
    """Whether vec lies in the integer span of the columns of basis."""
    return not any(oracle_reduce(basis.to_lists(), 0, vec))


def _oracle_kernel_columns(rows, ncols, keep):
    """First `keep` coordinates of an integer kernel basis of rows.

    Read off the Smith form D = U@A@V: the columns of V past the rank of D
    span the kernel, so no echelon code is shared with the route under test.
    """
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(keep))
                for j in range(keep)]
    res = smith_normal_form(IntMatrix(rows, cols=ncols))
    rank = sum(1 for e in res.diagonal if e)
    return [tuple(res.V[(i, j)] for i in range(keep))
            for j in range(rank, ncols)]


def oracle_kernel_basis(a, m, relations=None):
    """Columns spanning {x : a@x in span(relations) + m*Z^rows}, over Z."""
    rows = a.to_lists() if relations is None else \
        a.hstack(relations).to_lists()
    rows = adjoin_modulus(rows, m)
    ncols = len(rows[0]) if rows else a.cols
    return IntMatrix.from_columns(_oracle_kernel_columns(rows, ncols, a.cols),
                                  rows=a.cols)


def oracle_solve_mod(a, b, m, relations=None):
    """Whether a@x - b in span(relations) + m*Z^rows has a solution x."""
    rows = a.to_lists() if relations is None else \
        a.hstack(relations).to_lists()
    return not any(oracle_reduce(rows, m, b))


def oracle_lattice_intersect(b1, b2, m):
    """Columns spanning (span b1 + m*Z^n) ∩ (span b2 + m*Z^n), over Z."""
    n = b1.rows
    l1 = adjoin_modulus(b1.to_lists(), m)
    l2 = adjoin_modulus(b2.to_lists(), m)
    k1 = len(l1[0]) if l1 else 0
    stacked = [r1 + [-e for e in r2] for r1, r2 in zip(l1, l2)]
    xs = _oracle_kernel_columns(stacked, k1 + (len(l2[0]) if l2 else 0), k1)
    return IntMatrix.from_columns(
        [tuple(sum(l1[i][j] * x[j] for j in range(k1)) for i in range(n))
         for x in xs], rows=n)


# -- the dense Howell loop that the sparse kernel replaced ------------------
# Every column is a list of all its entries mod m from its first nonzero row
# down, zeros included.  Kept only as the reference that `col_echelon(a, m)`
# must equal exactly, h and pivots both.

def dense_howell(a, m):
    """Howell form of span(columns of a) + m*Z^rows (m > 0), dense."""
    nrows = len(a)
    waiting = [[] for _ in range(nrows)]
    for col in zip(*a):
        for k, x in enumerate(col):
            if x % m:
                waiting[k].append([e % m for e in col[k:]])
                break
    h = [[0] * nrows for _ in range(nrows)]
    for i in range(nrows):
        tails, waiting[i] = waiting[i], None
        if not tails:
            h[i][i] = m
            continue
        best = tails[0] if len(tails) == 1 else \
            min(tails, key=lambda col: gcd(col[0], m))
        e = best[0]
        u = 1 if m % e == 0 else backend._unit_to_divisor(e, m)
        piv = best if u == 1 else [u * x % m for x in best]
        p = piv[0]
        for col in tails:
            if col is best:
                continue
            e = col[0]
            if e % p == 0:
                q = e // p
                col = [(x - q * y) % m for x, y in zip(col, piv)]
            else:
                g, s, t = backend.xgcd(p, e)
                pg, eg = p // g, e // g
                piv, col = ([(s * y + t * x) % m for y, x in zip(piv, col)],
                            [(pg * x - eg * y) % m for y, x in zip(piv, col)])
                p = g
            for k, x in enumerate(col):
                if x:
                    waiting[i + k].append(col[k:])
                    break
        if p > 1 and any(piv[1:]):
            col = [(m // p) * x % m for x in piv]
            for k, x in enumerate(col):
                if x:
                    waiting[i + k].append(col[k:])
                    break
        for r, x in enumerate(piv, i):
            h[r][i] = x
    return h, [(i, i) for i in range(nrows)]
