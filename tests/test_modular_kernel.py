"""Differential tests: the stacked-echelon lattice kernel against the
Z-lattice construction it replaced, for m = 0 and for Howell forms mod m,
and the Smith form over Z/m against two oracles.

The oracle, kept in helpers, adjoins m*e_i and eliminates over Z, with
integer kernels taken from the Smith form; modulo m the kernel under test
never leaves [0, m].  Lattices are compared by mutual membership over Z,
solvers by agreement on solvability plus substitution, and group
reductions by identical canonical residues.

The cyclic decomposition of a Z/m group (`backend.snf_transforms(a, m)`,
the one Smith loop) shares no code with either of its oracles: the
prime-power merge of planted orders, and the Smith diagonal of [R | m*I]
read off the minor gcds of R (`helpers.full_relation_factors`), which use
no elimination code.  Its transition matrices are checked modulo each
order: to_cyclic inverts from_cyclic and kills every relation column.

The sparse Howell loop must return exactly what the dense loop it replaced
returns (`helpers.dense_howell`), an input with no rows or no columns
must get that answer without reaching the loop, and `reduce_columns`, which skips pivot
rows whose entry is 0, must still give the oracle's canonical residue.
"""

from math import prod

from hypothesis import given, settings, strategies as st

from bicohom import backend
from bicohom.abgroup import FpGroup, Subgroup
from bicohom.snf import IntMatrix, kernel_basis, lattice_intersect, solve_mod
from helpers import (dense_howell, full_relation_factors,
                     invariant_factors_oracle, oracle_contains,
                     oracle_kernel_basis, oracle_lattice_intersect,
                     oracle_reduce, oracle_solve_mod, random_unimodular,
                     scrambled_group, seeded)

MODULI = (0, 2, 4, 7, 8, 9, 12, 36)


@st.composite
def matrices(draw, rows=None, max_dim=5):
    """Matrices with entries of either sign and beyond m, some rows and
    columns forced to zero; `rows` fixes the row count."""
    nr = draw(st.integers(0, max_dim)) if rows is None else rows
    nc = draw(st.integers(0, max_dim))
    data = [[draw(st.integers(-40, 40)) for _ in range(nc)]
            for _ in range(nr)]
    for i in draw(st.sets(st.integers(0, max(nr - 1, 0)), max_size=2)):
        if i < nr:
            data[i] = [0] * nc
    for j in draw(st.sets(st.integers(0, max(nc - 1, 0)), max_size=2)):
        for row in data:
            if j < nc:
                row[j] = 0
    return IntMatrix(data, cols=nc)


def same_lattice(b1, b2):
    return (all(oracle_contains(b2, b1.column(j)) for j in range(b1.cols))
            and all(oracle_contains(b1, b2.column(j))
                    for j in range(b2.cols)))


def assert_echelon_shape(h):
    """Pivots (first nonzero of each column) positive, rows increasing."""
    last = -1
    for j in range(h.cols):
        col = h.column(j)
        r = next(i for i, e in enumerate(col) if e)
        assert r > last and col[r] > 0
        last = r


def assert_lattice_shape(h, m):
    if not m:
        assert_echelon_shape(h)
        return
    n = h.rows
    assert h.cols == n
    for i in range(n):
        assert m % h[(i, i)] == 0
        for j in range(n):
            assert 0 <= h[(i, j)] <= m
            if j > i:
                assert h[(i, j)] == 0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODULI), st.data())
def test_kernel_basis_matches_oracle(m, data):
    a = data.draw(matrices())
    relations = data.draw(st.none() | matrices(rows=a.rows))
    got = kernel_basis(a, m, relations)
    if a.rows:
        assert_lattice_shape(got, m)
    assert same_lattice(got, oracle_kernel_basis(a, m, relations))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODULI), st.data())
def test_lattice_intersect_matches_oracle(m, data):
    b1 = data.draw(matrices())
    b2 = data.draw(matrices(rows=b1.rows))
    got = lattice_intersect(b1, b2, m)
    assert_lattice_shape(got, m)
    assert same_lattice(got, oracle_lattice_intersect(b1, b2, m))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MODULI), st.data())
def test_solve_mod_matches_oracle(m, data):
    a = data.draw(matrices())
    relations = data.draw(st.none() | matrices(rows=a.rows))
    if data.draw(st.booleans()):
        # a right-hand side that is reachable by construction
        x0 = [data.draw(st.integers(-20, 20)) for _ in range(a.cols)]
        b = [e + m * data.draw(st.integers(-3, 3)) for e in a.mul_vector(x0)]
    else:
        b = [data.draw(st.integers(-40, 40)) for _ in range(a.rows)]
    x = solve_mod(a, b, m, relations)
    assert (x is not None) == oracle_solve_mod(a, b, m, relations)
    if x is not None:
        rest = [ax - e for ax, e in zip(a.mul_vector(x), b)]
        rows = [[] for _ in b] if relations is None \
            else relations.to_lists()
        assert not any(oracle_reduce(rows, m, rest))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(MODULI), st.data())
def test_group_reductions_match_oracle(m, data):
    rel = data.draw(matrices())
    g = FpGroup(m, rel.rows, rel)
    gens = data.draw(matrices(rows=rel.rows))
    sub = Subgroup(g, gens.columns())
    lattice = gens.hstack(rel)
    quotient = FpGroup(m, rel.rows, lattice)
    for _ in range(4):
        v = [data.draw(st.integers(-50, 50)) for _ in range(rel.rows)]
        assert g.reduce(v) == oracle_reduce(rel.to_lists(), m, v)
        residue = oracle_reduce(lattice.to_lists(), m, v)
        assert quotient.reduce(v) == residue
        assert sub.contains(g.element(v)) == (not any(residue))


def test_entries_never_exceed_the_modulus():
    # the 74x49 shape that stalled the Z-lattice route, entries far beyond m
    rows = [[(7 * i * i + 13 * j + 5) % 1000 - 500 for j in range(49)]
            for i in range(74)]
    h, pivots = backend.col_echelon(rows, 12)
    assert pivots == [(i, i) for i in range(74)]
    assert max(e for row in h for e in row) <= 12
    for k in range(0, 49, 7):
        col = [row[k] for row in rows]
        assert not any(backend.reduce_columns(h, pivots, col, 12))


HOWELL_MODULI = (2, 4, 8, 9, 12, 36, 72)


@st.composite
def sparse_rows(draw, m, max_dim=7):
    """Row lists of density 0-60%, entries of either sign, many of them m
    or a multiple of m, some rows and columns forced to zero; half of them
    the stacked [[a, R], [I, 0]] of a lattice step on a Z/m group."""
    density = draw(st.integers(0, 60))
    entry = st.integers(-2 * m, 2 * m) | st.sampled_from(
        [m, -m, 2 * m, -3 * m])

    def block(nr, nc):
        data = [[draw(entry) if draw(st.integers(1, 100)) <= density else 0
                 for _ in range(nc)] for _ in range(nr)]
        for i in draw(st.sets(st.integers(0, max(nr - 1, 0)), max_size=2)):
            if i < nr:
                data[i] = [0] * nc
        for j in draw(st.sets(st.integers(0, max(nc - 1, 0)), max_size=2)):
            for row in data:
                if j < nc:
                    row[j] = 0
        return data

    nr, nc = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    a = block(nr, nc)
    if not draw(st.booleans()):
        return a
    rel = block(nr, draw(st.integers(0, max_dim)))
    k = len(rel[0]) if rel else 0
    return [ra + rr for ra, rr in zip(a, rel)] + \
        [[int(i == j) for j in range(nc)] + [0] * k for i in range(nc)]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(HOWELL_MODULI), st.data())
def test_howell_matches_the_dense_loop(m, data):
    rows = data.draw(sparse_rows(m))
    copy = [list(row) for row in rows]
    assert backend.col_echelon(rows, m) == dense_howell(rows, m)
    assert rows == copy


def test_empty_shapes_are_answered_by_their_shape(monkeypatch):
    # no rows, or rows of no entries: the Howell form is m*I (empty for no
    # rows), as the dense loop gives; over Z the rows come back as they are
    # with no pivot
    reached = []
    real = backend._howell
    monkeypatch.setattr(backend, "_howell",
                        lambda a, m: reached.append(a) or real(a, m))
    for rows in range(5):
        a = [[] for _ in range(rows)]
        for m in HOWELL_MODULI:
            assert backend.col_echelon(a, m) == dense_howell(a, m)
        assert backend.col_echelon(a, 0) == ([[] for _ in range(rows)], [])
        assert a == [[] for _ in range(rows)]
    assert reached == []


def test_reduce_columns_skips_only_zero_pivot_rows():
    # pivot-row entries that are 0, negative, or nonzero multiples of m (of
    # the pivot over Z), so a skip taken on anything but 0 would leave an
    # entry outside [0, pivot); over Z the oracle reduces against a mixed
    # basis of the same lattice, so it runs another echelon
    rng = seeded(20261020)
    for m in (0,) + HOWELL_MODULI:
        for _ in range(40):
            nr, nc = rng.randint(1, 6), rng.randint(0, 6)
            rows = [[rng.randint(-2 * m - 3, 2 * m + 3)
                     if rng.random() < 0.3 else 0 for _ in range(nc)]
                    for _ in range(nr)]
            h, pivots = backend.col_echelon(rows, m)
            basis = rows if m else (IntMatrix(rows, cols=nc)
                                    @ random_unimodular(rng, nc)).to_lists()
            for _ in range(5):
                v = [rng.randint(-40, 40) for _ in range(nr)]
                for r, c in pivots:
                    step = m or h[r][c]
                    v[r] = rng.choice([0, 0, -rng.randint(1, 3 * step),
                                       rng.choice([-3, -1, 1, 2]) * step])
                residue = backend.reduce_columns(h, pivots, v, m)
                assert tuple(residue) == oracle_reduce(basis, m, v)
                assert all(0 <= residue[r] < h[r][c] for r, c in pivots)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_mod_never_reuses_a_stale_echelon(data):
    # one matrix object solved across moduli and relations in turn: its kept
    # echelon must answer exactly as a fresh copy of the matrix does
    a = data.draw(matrices())
    rel = data.draw(matrices(rows=a.rows))
    same_rel = IntMatrix(rel.to_lists(), cols=rel.cols)
    schedule = [(4, None), (8, None), (0, None), (4, rel), (4, same_rel),
                (4, None), (8, rel), (0, rel), (0, None), (8, same_rel)]
    for m, relations in schedule + schedule[::-1]:
        b = [data.draw(st.integers(-20, 20)) for _ in range(a.rows)]
        x = solve_mod(a, b, m, relations)
        assert x == solve_mod(IntMatrix(a.to_lists(), cols=a.cols), b, m,
                              relations)
        assert (x is not None) == oracle_solve_mod(a, b, m, relations)
        if x is not None:
            rest = [ax - e for ax, e in zip(a.mul_vector(x), b)]
            rows = [[] for _ in b] if relations is None \
                else relations.to_lists()
            assert not any(oracle_reduce(rows, m, rest))


# -- the Smith form over Z/m ------------------------------------------------

SMITH_MODULI = (2, 4, 6, 8, 9, 12, 18, 30, 36, 72)


def assert_cyclic_form(g):
    """g's orders are the Smith diagonal of [R | m*I] without its 1s, taken
    from the minor gcds of R; to_cyclic inverts from_cyclic and kills
    every relation modulo each order; a small g enumerates |g| distinct
    elements."""
    form = g.cyclic_decomposition()
    orders = form.orders
    assert orders == tuple(d for d in full_relation_factors(g) if d != 1)
    back = form.to_cyclic @ form.from_cyclic
    killed = form.to_cyclic @ g.relations
    for i, d in enumerate(orders):
        assert all((back[(i, j)] - (i == j)) % d == 0
                   for j in range(len(orders)))
        assert all(killed[(i, j)] % d == 0 for j in range(killed.cols))
    if prod(orders) <= 200:
        elements = list(g.elements())
        assert len(set(elements)) == len(elements) == g.order()


def planted_group(rng, m):
    """A Z/m group and the planted orders of its summands: a diagonal of
    divisors of m padded with zero rows (each a Z/m summand) and zero
    columns, conjugated by unimodular factors."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    factors = [rng.choice(divisors) for _ in range(rng.randint(0, 5))]
    zero_rows, zero_cols = rng.randint(0, 2), rng.randint(0, 2)
    n, k = len(factors) + zero_rows, len(factors) + zero_cols
    rel = (random_unimodular(rng, n)
           @ IntMatrix.diagonal(factors, rows=n, cols=k)
           @ random_unimodular(rng, k))
    return FpGroup(m, n, rel), factors + [m] * zero_rows


def test_smith_form_mod_m_matches_planted_orders():
    rng = seeded(20261019)
    for _ in range(300):
        m = rng.choice(SMITH_MODULI)
        g, planted = planted_group(rng, m)
        assert g.invariant_factors == invariant_factors_oracle(planted)
        assert_cyclic_form(g)
    for _ in range(100):
        m = rng.choice(SMITH_MODULI)
        factors = [rng.choice([d for d in range(2, m + 1) if m % d == 0])
                   for _ in range(rng.randint(0, 4))]
        g = scrambled_group(rng, m, factors)
        assert g.invariant_factors == invariant_factors_oracle(factors)
        assert_cyclic_form(g)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMITH_MODULI), st.data())
def test_smith_form_mod_m_matches_the_minor_gcds(m, data):
    rel = data.draw(matrices(max_dim=7))
    assert_cyclic_form(FpGroup(m, rel.rows, rel))
