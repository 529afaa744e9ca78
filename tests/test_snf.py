"""Smith/Hermite core: frozen examples plus property tests.

Oracles, written before the implementations they check:
  * gcd-of-minors: the product d_1*...*d_k of the first k diagonal entries of
    a Smith form equals gcd of all k-by-k minors of the input, up to sign.
    Computed by backend.minor_gcds, a level-by-level Laplace expansion
    over the row sets that extend the previous level's, which shares no
    code with the reduction; checked here against the gcd of det over
    every k-by-k submatrix, and against the permutation expansion of every
    minor, which calls no backend code at all.
  * substitution: any witness returned by solve_mod must satisfy the system
    exactly; insolubility is cross-checked against the Smith-form criterion
    (d_i must divide the transformed right-hand side), a second code path.
  * enumeration: for small moduli, kernels and solutions are compared with
    exhaustive search over [0, m)^cols.
"""

import math
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from bicohom import backend
from bicohom.snf import (IntMatrix, hermite_normal_form, kernel_basis,
                         lattice_intersect, smith_normal_form, solve_mod)
from helpers import random_dims_matrix, random_matrix, seeded
from test_kernel_frozen import FAMILIES, inputs


def assert_snf_invariants(a, res):
    d = res.D
    assert (res.U @ a @ res.V) == d
    assert abs(res.U.det()) == 1
    assert abs(res.V.det()) == 1
    assert (res.U @ res.Uinv) == IntMatrix.identity(a.rows)
    diag = res.diagonal
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[(i, j)] == 0
    for i, e in enumerate(diag):
        assert e >= 0
        if i + 1 < len(diag):
            nxt = diag[i + 1]
            if e == 0:
                assert nxt == 0
            else:
                assert nxt % e == 0


def assert_gcd_of_minors(a, res):
    chain = backend.minor_gcds(a.to_lists())
    prod = 1
    for k, g in enumerate(chain, start=1):
        prod *= res.diagonal[k - 1]
        assert prod == g, "k=%d: product %d vs minor gcd %d" % (k, prod, g)


# -- frozen examples ---------------------------------------------------------

def test_snf_diag_2_3():
    # gcd of entries is 1, |det| = 6
    a = IntMatrix([[2, 0], [0, 3]])
    res = smith_normal_form(a)
    assert res.diagonal == (1, 6)
    assert_snf_invariants(a, res)
    assert_gcd_of_minors(a, res)


def test_snf_2x2_full():
    a = IntMatrix([[2, 4], [6, 8]])
    res = smith_normal_form(a)
    assert res.diagonal == (2, 4)
    assert_snf_invariants(a, res)
    assert_gcd_of_minors(a, res)


def test_snf_zero_matrix():
    a = IntMatrix.zeros(2, 3)
    res = smith_normal_form(a)
    assert res.diagonal == (0, 0)
    assert_snf_invariants(a, res)


@pytest.mark.parametrize("m", [2, 4, 12, 36])
def test_snf_over_z_mod_m_holds_modulo_m(m):
    # the same loop over Z/m: every identity holds modulo m, entries stay
    # in [0, m), and the diagonal is a chain of divisors of m
    for family in FAMILIES:
        for rows in inputs(family):
            a = IntMatrix(rows, cols=len(rows[0]) if rows else 0)
            res = smith_normal_form(a, m)
            uav = (res.U @ a @ res.V).to_lists()
            assert all((x - y) % m == 0 for ur, dr in zip(
                uav, res.D.to_lists()) for x, y in zip(ur, dr))
            eye = (res.U @ res.Uinv).to_lists()
            assert all((e - (i == j)) % m == 0
                       for i, row in enumerate(eye) for j, e in enumerate(row))
            if a.rows and a.cols:
                assert all(0 <= e < m for mat in (res.U, res.V, res.Uinv)
                           for row in mat.to_lists() for e in row)
            diag = res.diagonal
            assert all(m % e == 0 for e in diag)
            assert all(q % p == 0 for p, q in zip(diag, diag[1:]))
    with pytest.raises(ValueError):
        smith_normal_form(IntMatrix([[1]]), -m)


def test_solve_mod_examples():
    # 2x == 2 (mod 4) has x = 1; 2x == 1 (mod 4) has none
    x = solve_mod(IntMatrix([[2]]), [2], 4)
    assert x is not None and (2 * x[0] - 2) % 4 == 0
    assert solve_mod(IntMatrix([[2]]), [1], 4) is None
    # over Z: (2,0) is not in the column lattice of [[6,4],[0,2]]
    # (second row forces y = 0, then 6x = 2 fails); (2,-2) is, with (1,-1)
    assert solve_mod(IntMatrix([[6, 4], [0, 2]]), [2, 0], 0) is None
    x = solve_mod(IntMatrix([[6, 4], [0, 2]]), [2, -2], 0)
    assert x is not None
    assert IntMatrix([[6, 4], [0, 2]]).mul_vector(x) == (2, -2)


def test_kernel_basis_example():
    # {x : 2x == 0 mod 4} = 2Z
    basis = kernel_basis(IntMatrix([[2]]), 4)
    got = {basis[(0, j)] for j in range(basis.cols)}
    # 2 must be representable, 1 must not
    assert solve_mod(basis, [2], 0) is not None
    assert solve_mod(basis, [1], 0) is None
    assert got == {2}


def test_lattice_intersect_example():
    # 2Z x 3Z intersected with {(u,v): u == v mod 2} is 2Z x 6Z
    b1 = IntMatrix([[2, 0], [0, 3]])
    b2 = IntMatrix([[1, 1], [1, -1]])
    inter = lattice_intersect(b1, b2)
    for v in [(2, 0), (0, 6)]:
        assert solve_mod(inter, v, 0) is not None
    for v in [(0, 3), (1, 1)]:
        assert solve_mod(inter, v, 0) is None


def test_zero_sized_matrices():
    for a in [IntMatrix([], cols=0), IntMatrix([], cols=3),
              IntMatrix([[], [], []], cols=0)]:
        res = smith_normal_form(a)
        assert_snf_invariants(a, res)
    assert kernel_basis(IntMatrix([], cols=3), 0) == IntMatrix.identity(3)
    assert kernel_basis(IntMatrix([[], []], cols=0), 5).cols == 0
    assert solve_mod(IntMatrix([], cols=2), [], 0) == (0, 0)


# -- randomized properties ---------------------------------------------------

def test_snf_random_properties():
    rng = seeded(20260814)
    for _ in range(120):
        a = random_dims_matrix(rng, max_dim=6)
        res = smith_normal_form(a)
        assert_snf_invariants(a, res)
        assert_gcd_of_minors(a, res)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_hypothesis(rows):
    a = IntMatrix(rows)
    res = smith_normal_form(a)
    assert_snf_invariants(a, res)
    assert_gcd_of_minors(a, res)


def brute_force_minor_gcds(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return [math.gcd(*[backend.det([[a[i][j] for j in cs] for i in rs])
                       for rs in combinations(range(rows), k)
                       for cs in combinations(range(cols), k)])
            for k in range(1, min(rows, cols) + 1)]


def test_minor_gcds_match_brute_force_on_the_frozen_kernel_families():
    edges = set()
    for family in FAMILIES:
        for a in inputs(family):
            rows = len(a)
            cols = len(a[0]) if rows else 0
            if rows > 6 or cols > 6:
                continue
            assert backend.minor_gcds(a) == brute_force_minor_gcds(a), a
            if rows == 0:
                edges.add("no rows")
            elif cols == 0:
                edges.add("no columns")
            elif any(not any(line) for line in a + list(zip(*a))):
                edges.add("zero line")
    assert edges == {"no rows", "no columns", "zero line"}


def test_minor_gcds_match_brute_force_where_no_level_stops_early():
    # minor_gcds stops a level at gcd 1; every k-minor of 2*A is divisible
    # by 2^k, so on these inputs each level visits every row set, and the
    # rank-deficient products 2*B*C end in identically zero levels
    rng = seeded(29)
    zero_levels = 0
    for _ in range(40):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        rank = rng.randint(1, min(rows, cols) - 1)
        b = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
        c = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        for mat in (backend.mat_mul(b, c), a):
            doubled = [[2 * e for e in row] for row in mat]
            chain = backend.minor_gcds(doubled)
            assert chain == brute_force_minor_gcds(doubled), doubled
            assert 1 not in chain
            zero_levels += chain[-1] == 0
    assert zero_levels >= 40


def _sign(perm):
    """(-1)^(number of inversions) of a permutation tuple."""
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def permutation_minor_gcds(a):
    """gcd of all k-minors, each the sum over permutations of signed
    products of entries: no backend code, no elimination, no Laplace."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    out = []
    for k in range(1, min(rows, cols) + 1):
        perms = [(p, _sign(p)) for p in permutations(range(k))]
        out.append(math.gcd(*[
            sum(s * math.prod(a[rs[t]][cs[p[t]]] for t in range(k))
                for p, s in perms)
            for rs in combinations(range(rows), k)
            for cs in combinations(range(cols), k)]))
    return out


def test_minor_gcds_match_the_permutation_expansion():
    # minor_gcds visits at level k only the row sets extending the ones
    # level k-1 visited; on the early-stop inputs row 0 has content 1, so
    # level 1 stops there and every later level skips most row sets, while
    # the chain still has some d_k > 1 for the skipped sets to hide
    rng = seeded(41)
    early_stops = 0
    for case in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        kind = case % 3
        if kind == 0:
            a = [[rng.randint(-9, 9) for _ in range(cols)]
                 for _ in range(rows)]
        elif kind == 1:
            inner = rng.randint(0, min(rows, cols) - 1)
            b = [[rng.randint(-4, 4) for _ in range(inner)]
                 for _ in range(rows)]
            c = [[rng.randint(-4, 4) for _ in range(cols)]
                 for _ in range(inner)]
            a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)]
                 if inner else [0] * cols for row in b]
        else:
            p = rng.choice((2, 3, 4, 6))
            a = [[rng.choice((-1, 1)) if j == 0 else rng.randint(-3, 3)
                  for j in range(cols)]]
            a += [[p * rng.randint(-3, 3) for _ in range(cols)]
                  for _ in range(rows - 1)]
        chain = backend.minor_gcds(a)
        assert chain == permutation_minor_gcds(a), a
        early_stops += chain[0] == 1 and any(d > 1 for d in chain[1:])
    assert early_stops >= 30


def _names(code):
    """Every global or attribute name read by code and the code nested in
    it (comprehensions and inner functions)."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names(const)
    return names


def test_minor_gcds_stays_off_the_elimination_kernel():
    # the snf suite checks the kernel against minor_gcds; sharing code with
    # it would let one bug pass both routes
    kernel = {"col_echelon", "_howell", "snf_transforms", "_rows", "_cols",
              "_pair_step", "det"}
    assert not _names(backend.minor_gcds.__code__) & kernel


def test_det_of_a_singular_matrix_with_a_zero_pivot_column():
    # no row can supply the first pivot, so the elimination stops at once
    assert backend.det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    assert IntMatrix([[0, 1], [0, 2]]).det() == 0
    assert backend.det([[0, 1], [1, 0]]) == -1  # a swap finds the pivot


def test_hermite_properties():
    rng = seeded(77)
    for _ in range(80):
        a = random_dims_matrix(rng, max_dim=6)
        h, w = hermite_normal_form(a)
        assert (a @ w) == h
        assert abs(w.det()) == 1
        # pivots positive at strictly increasing rows, zeros to their right
        last_row = -1
        for c in range(h.cols):
            col = h.column(c)
            nz = [i for i, e in enumerate(col) if e]
            if not nz:
                # all later columns must be zero too
                for c2 in range(c, h.cols):
                    assert not any(h.column(c2))
                break
            r = nz[0]
            assert r > last_row
            assert h[(r, c)] > 0
            for c2 in range(c + 1, h.cols):
                assert h[(r, c2)] == 0
            last_row = r


def test_solve_mod_random_roundtrip():
    rng = seeded(4242)
    for m in [0, 2, 4, 9, 12, 97]:
        for _ in range(40):
            a = random_dims_matrix(rng, max_dim=5)
            x0 = [rng.randint(-9, 9) for _ in range(a.cols)]
            b = list(a.mul_vector(x0))
            if m:
                b = [e + m * rng.randint(-3, 3) for e in b]
            x = solve_mod(a, b, m)
            assert x is not None
            ax = a.mul_vector(x)
            for lhs, rhs in zip(ax, b):
                assert (lhs - rhs) % m == 0 if m else lhs == rhs


def test_solve_mod_insoluble_agrees_with_smith_criterion():
    # when solve_mod says None, the Smith-form route must agree
    rng = seeded(515)
    checked_none = 0
    for _ in range(300):
        a = random_dims_matrix(rng, max_dim=4)
        b = [rng.randint(-9, 9) for _ in range(a.rows)]
        x = solve_mod(a, b, 0)
        res = smith_normal_form(a)
        ub = res.U.mul_vector(b)
        ok = True
        for i, e in enumerate(ub):
            d = res.diagonal[i] if i < len(res.diagonal) else 0
            if d == 0:
                if e != 0:
                    ok = False
            elif e % d != 0:
                ok = False
        assert ok == (x is not None)
        if x is None:
            checked_none += 1
        else:
            assert a.mul_vector(x) == tuple(b)
    assert checked_none > 20  # the sample must actually exercise both arms


def test_kernel_basis_complete_small_moduli():
    rng = seeded(909)
    for m in [2, 3, 4, 6]:
        for _ in range(25):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a = random_matrix(rng, rows, cols, bound=6)
            basis = kernel_basis(a, m)
            # soundness: every generator is killed mod m
            for j in range(basis.cols):
                col = basis.column(j)
                assert all(e % m == 0 for e in a.mul_vector(col))
            # completeness: every kernel element is an integer combination
            for x in product(range(m), repeat=cols):
                if all(e % m == 0 for e in a.mul_vector(x)):
                    assert solve_mod(basis, x, 0) is not None


def test_kernel_basis_integer_case():
    rng = seeded(911)
    for _ in range(60):
        a = random_dims_matrix(rng, max_dim=5)
        basis = kernel_basis(a, 0)
        for j in range(basis.cols):
            assert not any(a.mul_vector(basis.column(j)))
        # rank-nullity against the Smith form
        rank = sum(1 for d in smith_normal_form(a).diagonal if d)
        assert basis.cols == a.cols - rank


def test_lattice_intersect_random():
    rng = seeded(31337)
    for _ in range(50):
        rows = rng.randint(1, 4)
        b1 = random_matrix(rng, rows, rng.randint(0, 4), bound=5)
        b2 = random_matrix(rng, rows, rng.randint(0, 4), bound=5)
        inter = lattice_intersect(b1, b2)
        for j in range(inter.cols):
            v = inter.column(j)
            assert solve_mod(b1, v, 0) is not None
            assert solve_mod(b2, v, 0) is not None
        # spot-check completeness: members of both lattices must land inside
        for _ in range(10):
            x = [rng.randint(-4, 4) for _ in range(b1.cols)]
            v = b1.mul_vector(x)
            if solve_mod(b2, v, 0) is not None:
                assert solve_mod(inter, v, 0) is not None


def test_modulus_validation():
    with pytest.raises(ValueError):
        solve_mod(IntMatrix([[1]]), [1], -3)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


def test_constructors_refuse_inputs_that_do_not_fit():
    with pytest.raises(ValueError, match="ragged columns"):
        IntMatrix.from_columns([(1,), (2, 3)])
    with pytest.raises(ValueError, match="ragged columns"):
        IntMatrix.from_columns([(1, 2), (3,)])
    with pytest.raises(ValueError, match="more diagonal entries"):
        IntMatrix.diagonal([1, 2, 3], rows=2, cols=2)
    with pytest.raises(ValueError, match="negative column count -2"):
        IntMatrix([], cols=-2)
    with pytest.raises(ValueError, match="negative column count -3"):
        IntMatrix.zeros(0, -3)
    with pytest.raises(ValueError, match="negative column count -1"):
        IntMatrix.identity(-1)
    with pytest.raises(ValueError, match="negative row count -1"):
        IntMatrix.zeros(-1, 2)
    with pytest.raises(ValueError, match="negative row count -2"):
        IntMatrix.from_columns([], rows=-2)
    with pytest.raises(ValueError, match="negative row count -1"):
        IntMatrix.diagonal([], rows=-1, cols=2)


_M23 = IntMatrix([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("call, message", [
    (lambda: IntMatrix([[1, 2]], cols=3), "cols mismatch"),
    (lambda: _M23 @ _M23, r"dimension mismatch: 2x3 @ 2x3"),
    (lambda: _M23 + IntMatrix.identity(2), "shape mismatch"),
    (lambda: _M23.hstack(IntMatrix.identity(3)),
     "row count mismatch in hstack"),
    (lambda: _M23.vstack(IntMatrix.identity(2)),
     "column count mismatch in vstack"),
    (lambda: _M23.mul_vector([1, 2]), "vector length mismatch"),
    (lambda: _M23.det(), "det of a non-square matrix"),
    (lambda: kernel_basis(_M23, 4, IntMatrix.identity(3)),
     "relations need one row per row of the matrix"),
    (lambda: solve_mod(_M23, [1, 2, 3], 4), "right-hand side has wrong length"),
    (lambda: lattice_intersect(_M23, IntMatrix.identity(3), 4),
     "lattices live in different ambient ranks"),
], ids=["cols", "matmul", "add", "hstack", "vstack", "mul_vector", "det",
        "relations", "rhs", "intersect"])
def test_snf_refuses_inputs_that_do_not_fit(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: backend.mat_mul([[1, 2]], [[1, 2]]),
     "dimension mismatch in mat_mul"),
    (lambda: backend.det([[1, 2]]), "det of a non-square matrix"),
], ids=["mat_mul", "det"])
def test_backend_refuses_inputs_that_do_not_fit(call, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        call()


def test_entries_stay_exact_on_large_inputs():
    # arbitrary precision end to end: entries far beyond 64-bit
    big = 10 ** 40
    a = IntMatrix([[big, big + 1], [big - 1, big]])
    res = smith_normal_form(a)
    assert_snf_invariants(a, res)
    assert res.diagonal[0] == 1  # det = big^2 - (big^2 - 1) = 1
    assert res.diagonal[1] == 1


# -- internal results against checked copies ---------------------------------


def assert_like_a_checked_copy(r):
    """r is what the checked constructor builds from r's own entries: equal,
    with an equal hash, and stored as a tuple of int tuples (a list row
    would compare and hash differently without raising)."""
    copy = IntMatrix(r.to_lists(), cols=r.cols)
    assert r == copy and copy == r
    assert hash(r) == hash(copy)
    assert (r.rows, r.cols) == (copy.rows, copy.cols)
    assert type(r._data) is tuple
    assert all(type(row) is tuple and len(row) == r.cols
               and all(type(e) is int for e in row) for row in r._data)


def internal_results(rng, rows, cols):
    """Every internal result built from seeded rows x cols matrices."""
    a, b = random_matrix(rng, rows, cols), random_matrix(rng, rows, cols)
    c = random_matrix(rng, cols, rng.randint(0, 3))
    m = rng.choice([0, 4, 9, 12])
    res = smith_normal_form(a)
    yield from (a @ c, a + b, a - b, -a, a.hstack(b), a.vstack(b),
                res.U, res.D, res.V, res.Uinv)
    yield from (IntMatrix.identity(rows), IntMatrix.zeros(rows, cols),
                IntMatrix.diagonal(res.diagonal, rows=rows, cols=cols))
    yield from hermite_normal_form(a)
    yield kernel_basis(a, m)
    yield kernel_basis(a, m, random_matrix(rng, rows, rng.randint(0, 2)))
    yield lattice_intersect(a, b, m)
    yield a.take(cols=[j for j in range(cols) if rng.random() < 0.5])
    yield a.take(rows=[i for i in range(rows) if rng.random() < 0.5])


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5),
                                   (5, 2), (4, 4)])
def test_internal_results_equal_checked_copies(shape):
    rng = seeded(sum(shape) * 7 + shape[0])
    for _ in range(5):
        for r in internal_results(rng, *shape):
            assert_like_a_checked_copy(r)
