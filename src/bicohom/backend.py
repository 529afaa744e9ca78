"""Integer matrix kernels, pure Python.

Everything here works on plain lists of lists of Python ints, so entries are
arbitrary precision by construction.  This is the package's only kernel
implementation; the layers above import it as `bicohom.backend`.

Conventions:
  * matrices are row-major, dimensions may be zero in either direction;
  * over Z, snf_transforms and col_echelon(a, 0) change a matrix only by
    2x2 moves (a, b, c, e) of determinant s = +-1 on a pair of rows
    (_rows) or columns (_cols): a swap is (0, 1, 1, 0), a negation is
    (-1, 0, 0, -1) on one line taken as both of the pair, and the move
    that clears an entry against a pivot comes from _pair_step.
    snf_transforms undoes each row move on uinv by s*(e, -c, -b, a);
  * snf_transforms returns (u, d, v, uinv) with d = u*a*v, u*uinv = I,
    d diagonal, nonnegative, d[i] | d[i+1].  It serves m = 0 and the snf
    suite: Z/m groups decompose through snf_mod(a, m), which makes the same
    moves modulo m, scales a row by a unit, and keeps no v;
  * col_echelon(a, m) returns (h, pivots), pivots the (row, col) pairs of
    h's pivots at strictly increasing rows, each column zero above its
    pivot.  With m = 0, h is the column echelon form of the columns of a:
    pivots positive, each the only nonzero entry of its row among columns
    at or after its own.  With m > 0, h is the column Howell form of
    span(columns) + m*Z^rows (Howell 1986; Storjohann & Mulders 1998): a
    square lower-triangular basis with one pivot per row, each pivot a
    divisor of m, every entry in [0, m];
  * reduce_columns(h, pivots, v, m) returns the canonical residue of v
    modulo the lattice of such an h.
"""

BACKEND = "python"

from math import gcd as _gcd
from itertools import combinations as _combinations


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    # Maintain the invariants:
    #   x * a + y * b == r
    #   u * a + v * b == s
    r, s = a, b
    x, y = 1, 0
    u, v = 0, 1
    while s:
        q = r // s
        r, s = s, r - q * s
        x, u = u, x - q * u
        y, v = v, y - q * v
    if r < 0:
        return -r, -x, -y
    return r, x, y


def identity(n):
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a, b):
    m = len(a)
    inner = len(a[0]) if m else 0
    if inner != len(b) and m:
        raise ValueError("dimension mismatch in mat_mul")
    ncols = len(b[0]) if b else 0
    out = [[0] * ncols for _ in range(m)]
    for i in range(m):
        ai = a[i]
        oi = out[i]
        for t in range(inner):
            e = ai[t]
            if e:
                bt = b[t]
                for j in range(ncols):
                    btj = bt[j]
                    if btj:
                        oi[j] += e * btj
    return out


def _rows(mat, i, k, a, b, c, e):
    """Rows (i, k) of mat become (a*r_i + b*r_k, c*r_i + e*r_k).  A swap
    exchanges the two row lists, and a row the move keeps stays as it is."""
    ri, rk = mat[i], mat[k]
    if (a, b, c, e) == (0, 1, 1, 0):
        mat[i], mat[k] = rk, ri
        return
    if (a, b) != (1, 0):
        mat[i] = [a * x + b * y for x, y in zip(ri, rk)]
    if (c, e) != (0, 1):
        mat[k] = [c * x + e * y for x, y in zip(ri, rk)]


def _cols(mat, j, k, a, b, c, e):
    """Columns (j, k) of mat become (a*c_j + b*c_k, c*c_j + e*c_k)."""
    for row in mat:
        x, y = row[j], row[k]
        if x or y:
            row[j] = a * x + b * y
            row[k] = c * x + e * y


def _pair_step(p, e):
    """The determinant-1 move taking (p, e) to (g, 0): the subtraction
    (1, 0, -e/p, 1) with g = p if p | e, else one with g = gcd(p, e)."""
    if e % p == 0:
        return 1, 0, -(e // p), 1
    g, x, y = xgcd(p, e)
    return x, y, -(e // g), p // g


def snf_transforms(a):
    """Smith normal form with its transforms and the inverse of u.

    Returns (u, d, v, uinv) such that d == u*a*v with u, v unimodular, uinv
    the exact integer inverse of u, and d diagonal with nonnegative entries
    forming a divisibility chain.  A row move acts on d and u and, inverted,
    on the columns of uinv; a column move acts on d and v.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = identity(m)
    uinv = identity(m)
    v = identity(n)

    def row_move(i, k, a, b, c, e):
        _rows(d, i, k, a, b, c, e)
        _rows(u, i, k, a, b, c, e)
        s = a * e - b * c
        _cols(uinv, i, k, s * e, -s * c, -s * b, s * a)

    def col_move(j, k, a, b, c, e):
        _cols(d, j, k, a, b, c, e)
        _cols(v, j, k, a, b, c, e)

    kmax = min(m, n)
    t = 0
    while t < kmax:
        # pivot-size heuristic: smallest nonzero |entry| in the trailing block
        best = 0
        pr = pc = -1
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                e = di[j]
                if e:
                    e = -e if e < 0 else e
                    if best == 0 or e < best:
                        best, pr, pc = e, i, j
                        if best == 1:
                            break
            if best == 1:
                break
        if pr < 0:
            break
        if pr != t:
            row_move(pr, t, 0, 1, 1, 0)
        if pc != t:
            col_move(pc, t, 0, 1, 1, 0)
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    row_move(t, i, *_pair_step(d[t][t], d[i][t]))
            # this clears row t; it can refill column t below the pivot
            for j in range(t + 1, n):
                if d[t][j]:
                    col_move(t, j, *_pair_step(d[t][t], d[t][j]))
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            # pivot must divide the whole trailing block for the chain
            p = d[t][t]
            offender = -1
            for i in range(t + 1, m):
                di = d[i]
                for j in range(t + 1, n):
                    if di[j] % p:
                        offender = i
                        break
                if offender >= 0:
                    break
            if offender < 0:
                break
            row_move(t, offender, 1, 1, 0, 1)
        if d[t][t] < 0:
            row_move(t, t, -1, 0, 0, -1)
        t += 1
    return u, d, v, uinv


def _rows_mod(mat, i, k, a, b, c, e, m):
    """_rows modulo m, for a move that is not a swap."""
    ri, rk = mat[i], mat[k]
    if (a, b) != (1, 0):
        mat[i] = [(a * x + b * y) % m for x, y in zip(ri, rk)]
    if (c, e) != (0, 1):
        mat[k] = [(c * x + e * y) % m for x, y in zip(ri, rk)]


def snf_mod(a, m):
    """Smith form over Z/m (m >= 2) with the row transform and its inverse.

    Returns (d, u, uinv), u and uinv reduced mod m: u*uinv == I and u*a*v
    == diag(d) mod m for some v invertible mod m, which is not kept.  d has
    one entry per row, each a divisor of m (m for a row with no pivot),
    d[i] | d[i+1].  Diagonalizing first, each pivot is scaled by a unit to
    a divisor of m, so clearing only lowers it along the divisors of m; the
    sorted diagonal is then made a chain by 2x2 moves diag(p, q) -> diag(gcd,
    lcm).  uinv is kept transposed, so its column moves are row moves.
    """
    n = len(a)
    k = len(a[0]) if n else 0
    d = [[x % m for x in row] for row in a]
    u = identity(n)
    uinvt = identity(n)

    def row_move(i, j, a, b, c, e, mats=(d, u)):
        for mat in mats:
            _rows_mod(mat, i, j, a, b, c, e, m)
        _rows_mod(uinvt, i, j, e, -c, -b, a, m)

    diag = []
    for t in range(min(n, k)):
        # pivot: in the first row with a nonzero entry in the trailing
        # block, the entry sharing the least with m
        i = next((i for i in range(t, n) if any(d[i][t:])), None)
        if i is None:
            break
        row = d[i]
        j = min((j for j in range(t, k) if row[j]),
                key=lambda j: _gcd(row[j], m))
        for mat in (d, u, uinvt):
            mat[i], mat[t] = mat[t], mat[i]
        if j != t:
            for row in d[t:]:
                row[j], row[t] = row[t], row[j]
        if m % d[t][t]:
            w = _unit_to_divisor(d[t][t], m)
            for mat, s in ((d, w), (u, w), (uinvt, pow(w, -1, m))):
                mat[t] = [s * x % m for x in mat[t]]
        while True:
            for i in range(t + 1, n):
                if d[i][t]:
                    row_move(t, i, *_pair_step(d[t][t], d[i][t]))
            # a gcd move clearing row t can refill column t; a subtraction
            # cannot, as column t is zero below the pivot
            refilled = False
            for j in range(t + 1, k):
                if d[t][j]:
                    a, b, c, e = _pair_step(d[t][t], d[t][j])
                    refilled |= b != 0
                    for row in d[t:]:
                        y, z = row[t], row[j]
                        row[t] = (a * y + b * z) % m
                        row[j] = (c * y + e * z) % m
            if not refilled:
                break
        diag.append(d[t][t])
    diag += [m] * (n - len(diag))
    order = sorted(range(n), key=diag.__getitem__)
    for mat in (diag, u, uinvt):
        mat[:] = [mat[i] for i in order]
    for i in range(n):
        for j in range(i + 1, n):
            p, q = diag[i], diag[j]
            if q % p:
                g, _, y = xgcd(p, q)
                c = y * q // g % m
                row_move(i, j, 1, 1, -c, 1 - c, mats=(u,))
                diag[i], diag[j] = g, p * q // g
    return diag, u, [list(col) for col in zip(*uinvt)]


def col_echelon(a, modulus=0):
    """Column echelon form by unimodular column operations.

    Returns (h, pivots), pivots a list of (row, col) pairs; columns past the
    last pivot are zero.  Every column operation on h is unimodular, so
    echelonizing a stacked matrix [a; b] applies one transform w to both
    blocks: the top rows become a@w, the bottom rows b@w.  With m = 0, on
    each row a swap brings the first nonzero entry to the pivot column,
    _pair_step clears the rest of the row against it, and a negation makes
    it positive.

    With modulus m > 0, h is instead the Howell form of the lattice
    span(columns of a) + m*Z^rows: square, lower triangular, pivots ==
    [(i, i) for every row i], each pivot dividing m (m itself on a row the
    columns do not reach), every entry in [0, m].
    """
    if modulus:
        return _howell(a, modulus)
    m = len(a)
    n = len(a[0]) if m else 0
    h = [list(row) for row in a]
    pivots = []
    c = 0
    for r in range(m):
        if c == n:
            break
        jp = -1
        for j in range(c, n):
            if h[r][j]:
                jp = j
                break
        if jp < 0:
            continue
        if jp != c:
            _cols(h, jp, c, 0, 1, 1, 0)
        for j in range(c + 1, n):
            if h[r][j]:
                _cols(h, c, j, *_pair_step(h[r][c], h[r][j]))
        if h[r][c] < 0:
            _cols(h, c, c, -1, 0, 0, -1)
        pivots.append((r, c))
        c += 1
    return h, pivots


def _howell(a, m):
    """Howell form of span(columns of a) + m*Z^rows; see col_echelon.

    Rows are settled top to bottom.  `waiting` holds generators, reduced mod
    m, of the lattice vectors that vanish on every settled row, filed under
    the row of their first nonzero entry; each is kept as (first row,
    entries from that row down) and copied only when an operation touches
    it.  At row i the generators filed there are merged into one pivot
    column by unimodular column operations, the pivot is scaled by a unit
    mod m so that its head p divides m, and (m/p)*pivot, whose head is 0
    mod m, is filed for the rows below: it is what the pivot contributes to
    the lattice vectors that vanish on row i too.
    """
    nrows = len(a)
    waiting = {}

    def file(start, col):
        for k, x in enumerate(col):
            if x:
                waiting.setdefault(start + k, []).append((start, col))
                return

    for col in zip(*a):
        file(0, [e % m for e in col])
    h = [[0] * nrows for _ in range(nrows)]
    units = {}
    for i in range(nrows):
        heads = waiting.pop(i, None)
        if heads is None:
            h[i][i] = m
            continue
        tails = [col[i - start:] if start < i else col
                 for start, col in heads]
        best = tails[0] if len(tails) == 1 else \
            min(tails, key=lambda col: _gcd(col[0], m))
        e = best[0]
        if e not in units:
            units[e] = _unit_to_divisor(e, m)
        u = units[e]
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
                g, s, t = xgcd(p, e)
                pg, eg = p // g, e // g
                piv, col = ([(s * y + t * x) % m for y, x in zip(piv, col)],
                            [(pg * x - eg * y) % m for y, x in zip(piv, col)])
                p = g
            file(i, col)
        if p > 1:
            file(i, [(m // p) * x % m for x in piv])
        for k, x in enumerate(piv):
            if x:
                h[i + k][i] = x
    return h, [(i, i) for i in range(nrows)]


def _unit_to_divisor(e, m):
    """A unit u mod m with u*e == gcd(e, m) (mod m), for 0 < e < m."""
    g, u, _ = xgcd(e, m)
    # u is a unit mod m/g; some u + k*(m/g) is a unit mod m as well
    step = m // g
    u %= step
    while _gcd(u, m) != 1:
        u += step
    return u


def reduce_columns(h, pivots, vec, modulus=0):
    """Canonically reduce vec modulo the column lattice of an echelon h.

    Returns the residue: the unique representative with 0 <= residue[r] <
    pivot at every pivot row r.  vec lies in the lattice iff the residue is
    all zero.  With modulus m > 0 (h a Howell form modulo m) the lattice
    includes m*Z^rows: each pivot-row entry is taken mod m before its pivot
    acts, which keeps every entry of order m.
    """
    nrows = len(h)
    v = list(vec)
    for r, c in pivots:
        p = h[r][c]
        if modulus:
            v[r] %= modulus
        q = v[r] // p
        if q:
            for i in range(r, nrows):
                hic = h[i][c]
                if hic:
                    v[i] -= q * hic
    return v


def det(a):
    """Exact determinant of a square integer matrix (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    if len(a[0]) != n:
        raise ValueError("det of a non-square matrix")
    mat = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = mat[k][k]
        for i in range(k + 1, n):
            mik = mat[i][k]
            mi, mk = mat[i], mat[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pkk - mik * mk[j]) // prev
            mi[k] = 0
        prev = pkk
    return sign * mat[n - 1][n - 1]


def minor_gcds(a):
    """gcd of all k-by-k minors for k = 1 .. min(rows, cols).

    Minor determinants are built one size at a time by Laplace expansion
    along the last row of each row set, reusing the previous level instead of
    recomputing determinants from scratch.  Once some level is identically
    zero all larger levels are too.  A level is a list of (last row, minors
    over the column sets in combinations order), each row set extending its
    prefix's entry; the cofactor indices of every column set are computed
    once per level.  As the snf suite's independent route, it calls no
    elimination code and no det.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    kmax = min(m, n)
    # row r, then its negation: a cofactor of sign -1 reads column c + n
    signed = [row + [-e for e in row] for row in a]
    out = []
    prev = [(-1, [1])]
    index = {(): 0}
    for k in range(1, kmax + 1):
        colsets = list(_combinations(range(n), k))
        terms = [[(c + n * ((k - 1 + t) % 2), index[cols[:t] + cols[t + 1:]])
                  for t, c in enumerate(cols)] for cols in colsets]
        cur = []
        g = 0
        for last, minors in prev:
            for r in range(last + 1, m):
                sr = signed[r]
                row = []
                for tl in terms:
                    total = 0
                    for c, i in tl:
                        e = sr[c]
                        if e:
                            p = minors[i]
                            if p:
                                total += e * p
                    row.append(total)
                # every minor is kept for the next level; the gcd stops at 1
                if g != 1:
                    g = _gcd(g, *row)
                cur.append((r, row))
        out.append(g)
        if g == 0:
            out.extend([0] * (kmax - k))
            return out
        prev = cur
        index = {cols: i for i, cols in enumerate(colsets)}
    return out
