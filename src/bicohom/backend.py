"""Integer matrix kernels, pure Python.

Everything here works on plain lists of lists of Python ints, so entries are
arbitrary precision by construction.  This is the package's only kernel
implementation; the layers above import it as `bicohom.backend`.

Conventions:
  * matrices are row-major, dimensions may be zero in either direction;
  * snf_transforms returns (u, d, v, uinv, vinv) with d = u*a*v,
    u*uinv = I, v*vinv = I, d diagonal, nonnegative, d[i] | d[i+1];
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
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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


def snf_transforms(a):
    """Smith normal form with all four transforms.

    Returns (u, d, v, uinv, vinv) such that d == u*a*v with u, v unimodular,
    uinv, vinv their exact integer inverses, and d diagonal with nonnegative
    entries forming a divisibility chain.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = identity(m)
    uinv = identity(m)
    v = identity(n)
    vinv = identity(n)

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]
        for row in uinv:
            row[i], row[k] = row[k], row[i]

    def swap_cols(j, k):
        for row in d:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def negate_row(i):
        d[i] = [-e for e in d[i]]
        u[i] = [-e for e in u[i]]
        for row in uinv:
            row[i] = -row[i]

    def row_addmul(i, k, q):
        # row_i += q * row_k; inverse transform: uinv col_k -= q * col_i
        di, dk = d[i], d[k]
        for j in range(n):
            if dk[j]:
                di[j] += q * dk[j]
        ui, uk = u[i], u[k]
        for j in range(m):
            if uk[j]:
                ui[j] += q * uk[j]
        for row in uinv:
            if row[i]:
                row[k] -= q * row[i]

    def col_addmul(j, k, q):
        # col_j += q * col_k; inverse transform: vinv row_k -= q * row_j
        for row in d:
            if row[k]:
                row[j] += q * row[k]
        for row in v:
            if row[k]:
                row[j] += q * row[k]
        vj, vk = vinv[j], vinv[k]
        for t in range(n):
            if vj[t]:
                vk[t] -= q * vj[t]

    def row_eliminate(t, i):
        # zero d[i][t] against the pivot d[t][t]
        p, e = d[t][t], d[i][t]
        if e % p == 0:
            row_addmul(i, t, -(e // p))
            return
        g, x, y = xgcd(p, e)
        pg, eg = p // g, e // g
        # rows (t, i) <- (x*t + y*i, -eg*t + pg*i), determinant 1
        dt, di = d[t], d[i]
        for j in range(n):
            aj, bj = dt[j], di[j]
            dt[j] = x * aj + y * bj
            di[j] = pg * bj - eg * aj
        ut, ui = u[t], u[i]
        for j in range(m):
            aj, bj = ut[j], ui[j]
            ut[j] = x * aj + y * bj
            ui[j] = pg * bj - eg * aj
        # uinv cols (t, i): c_t <- pg*c_t + eg*c_i ; c_i <- -y*c_t + x*c_i
        for row in uinv:
            at, bi = row[t], row[i]
            row[t] = pg * at + eg * bi
            row[i] = x * bi - y * at

    def col_eliminate(t, j):
        # zero d[t][j] against the pivot d[t][t]
        p, e = d[t][t], d[t][j]
        if e % p == 0:
            col_addmul(j, t, -(e // p))
            return
        g, x, y = xgcd(p, e)
        pg, eg = p // g, e // g
        for row in d:
            at, bj = row[t], row[j]
            row[t] = x * at + y * bj
            row[j] = pg * bj - eg * at
        for row in v:
            at, bj = row[t], row[j]
            row[t] = x * at + y * bj
            row[j] = pg * bj - eg * at
        # vinv rows (t, j): r_t <- pg*r_t + eg*r_j ; r_j <- -y*r_t + x*r_j
        vt, vj = vinv[t], vinv[j]
        for c in range(n):
            at, bj = vt[c], vj[c]
            vt[c] = pg * at + eg * bj
            vj[c] = x * bj - y * at

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
            swap_rows(pr, t)
        if pc != t:
            swap_cols(pc, t)
        while True:
            for i in range(t + 1, m):
                if d[i][t]:
                    row_eliminate(t, i)
            for j in range(t + 1, n):
                if d[t][j]:
                    col_eliminate(t, j)
            if any(d[i][t] for i in range(t + 1, m)):
                continue  # column elimination disturbed the cleared column
            if any(d[t][j] for j in range(t + 1, n)):
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
            row_addmul(t, offender, 1)
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return u, d, v, uinv, vinv


def col_echelon(a, modulus=0):
    """Column echelon form by unimodular column operations.

    Returns (h, pivots), pivots a list of (row, col) pairs; columns past the
    last pivot are zero.  Every column operation on h is unimodular, so
    echelonizing a stacked matrix [a; b] applies one transform w to both
    blocks: the top rows become a@w, the bottom rows b@w.

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

    def combine(r, c, j):
        # make h[r][j] zero against h[r][c], keeping the column lattice
        p, e = h[r][c], h[r][j]
        if e % p == 0:
            q = e // p
            for row in h:
                if row[c]:
                    row[j] -= q * row[c]
            return
        g, x, y = xgcd(p, e)
        pg, eg = p // g, e // g
        for row in h:
            ac, bj = row[c], row[j]
            row[c] = x * ac + y * bj
            row[j] = pg * bj - eg * ac

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
            for row in h:
                row[jp], row[c] = row[c], row[jp]
        for j in range(c + 1, n):
            if h[r][j]:
                combine(r, c, j)
        if h[r][c] < 0:
            for row in h:
                row[c] = -row[c]
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
    zero all larger levels are too.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    kmax = min(m, n)
    out = []
    prev = {((), ()): 1}
    for k in range(1, kmax + 1):
        cur = {}
        g = 0
        for rows in _combinations(range(m), k):
            sub = rows[:-1]
            r = rows[-1]
            ar = a[r]
            for cols in _combinations(range(n), k):
                total = 0
                for t in range(k):
                    e = ar[cols[t]]
                    if e:
                        minor = prev[(sub, cols[:t] + cols[t + 1:])]
                        if minor:
                            if (k - 1 + t) % 2:
                                total -= e * minor
                            else:
                                total += e * minor
                cur[(rows, cols)] = total
                if total:
                    g = _gcd(g, total)
        out.append(g)
        if g == 0:
            out.extend([0] * (kmax - k))
            return out
        prev = cur
    return out
