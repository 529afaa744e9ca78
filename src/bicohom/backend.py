"""Integer matrix kernels, pure Python.

Everything here works on plain lists of lists of Python ints, so entries are
arbitrary precision by construction.  This is the package's only kernel
implementation; the layers above import it as `bicohom.backend`.

Conventions:
  * matrices are row-major, dimensions may be zero in either direction;
  * snf_transforms(a, m) and col_echelon(a, 0) change a matrix only by
    2x2 moves (a, b, c, e) on a pair of rows (_rows) or columns (_cols),
    reduced mod m when m > 0: a swap is (0, 1, 1, 0), scaling by a unit w
    is (w, 0, 0, w) on one line taken as both of the pair, and the move of
    determinant 1 that clears an entry against a pivot comes from
    _pair_step.  The random unimodular factors of `constructions` and
    `suites` are built by the same moves, from the identity;
  * snf_transforms(a, m) is the one Smith loop, over Z (m = 0) and over
    Z/m alike (Storjohann's Smith form over a principal ideal ring, 2000):
    it returns (u, diag, v, uinv) with u*a*v diagonal with entries diag,
    u*uinv = I and diag[i] | diag[i+1], all modulo m when m > 0;
  * col_echelon(a, m) returns (h, pivots), pivots the (row, col) pairs of
    h's pivots at strictly increasing rows, each column zero above its
    pivot.  With m = 0, h is the column echelon form of the columns of a:
    pivots positive, each the only nonzero entry of its row among columns
    at or after its own.  With m > 0, h is the column Howell form of
    span(columns) + m*Z^rows (Howell 1986; Storjohann & Mulders 1998): a
    square lower-triangular basis with one pivot per row, each pivot a
    divisor of m, every entry in [0, m], which _howell builds from columns
    held as dicts {row: entry mod m} of their nonzero entries, filing each
    column once;
  * reduce_columns(h, pivots, v, m) returns the canonical residue of v
    modulo the lattice of such an h, skipping the pivot rows where v is 0.
"""

BACKEND = "python"

from math import gcd as _gcd
from itertools import combinations as _combinations, compress as _compress


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


def _rows(mat, i, k, a, b, c, e, m=0):
    """Rows (i, k) of mat become (a*r_i + b*r_k, c*r_i + e*r_k), reduced
    mod m when m > 0.  A swap exchanges the two row lists, and a row the
    move keeps stays as it is."""
    ri, rk = mat[i], mat[k]
    if (a, b, c, e) == (0, 1, 1, 0):
        mat[i], mat[k] = rk, ri
        return
    if (a, b) != (1, 0):
        mat[i] = ([(a * x + b * y) % m for x, y in zip(ri, rk)] if m
                  else [a * x + b * y for x, y in zip(ri, rk)])
    if (c, e) != (0, 1):
        mat[k] = ([(c * x + e * y) % m for x, y in zip(ri, rk)] if m
                  else [c * x + e * y for x, y in zip(ri, rk)])


def _cols(mat, j, k, a, b, c, e, m=0):
    """Columns (j, k) of mat become (a*c_j + b*c_k, c*c_j + e*c_k), reduced
    mod m when m > 0.  A shear, which adds a multiple of one column to the
    other, visits only the rows where that column is nonzero."""
    if a == e == 1 and not b * c:
        if b:
            j, k, c = k, j, b
        for row in mat:
            x = row[j]
            if x:
                y = row[k] + c * x
                row[k] = y % m if m else y
        return
    for row in mat:
        x, y = row[j], row[k]
        if x or y:
            x, y = a * x + b * y, c * x + e * y
            row[j], row[k] = (x % m, y % m) if m else (x, y)


def _pair_step(p, e):
    """The determinant-1 move taking (p, e) to (g, 0): the subtraction
    (1, 0, -e/p, 1) with g = p if p | e, else one with g = gcd(p, e)."""
    if e % p == 0:
        return 1, 0, -(e // p), 1
    g, x, y = xgcd(p, e)
    return x, y, -(e // g), p // g


def _pivot(d, t, m):
    """(row, col) of the pivot snf_transforms takes at t, or (-1, -1) when
    d's trailing block at t is zero.  Over Z it is the smallest |entry| of
    that block, stopping at 1: small pivots keep u and v small, and the Z/m
    rule made 36x36 inputs about 7 times slower.  Over Z/m it is, in the
    first row with a nonzero trailing entry, the entry sharing the least
    with m: entries stay below m, and a scan of the whole block per pivot
    would cost O(n^3) on a rank-256 relation matrix."""
    if m:
        for i in range(t, len(d)):
            row = d[i]
            if any(row[t:]):
                return i, min((j for j in range(t, len(row)) if row[j]),
                              key=lambda j: _gcd(row[j], m))
        return -1, -1
    best, pivot = 0, (-1, -1)
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            e = row[j]
            if e and (not best or -best < e < best):
                best, pivot = abs(e), (i, j)
                if best == 1:
                    return pivot
    return pivot


def snf_transforms(a, m=0):
    """Smith form over Z (m = 0) or Z/m (m >= 2), its transforms and the
    inverse of u.

    Returns (u, diag, v, uinv): u*a*v is diagonal with entries diag, u and
    v are invertible and uinv is the inverse of u, all modulo m when m > 0,
    and then u, v and uinv have entries in [0, m).  diag has one entry per
    row, each dividing the next: the positive pivots, then m (0 over Z)
    for each row without one.

    Per pivot t (see _pivot): over Z/m its row is scaled by a unit so that
    it divides m, so clearing only lowers it along the divisors of m;
    _pair_step moves clear its column and row until no gcd move refills
    column t; over Z a negative pivot is negated.  The sorted pivots are
    then made a chain by moves diag(p, q) -> diag(g, pq/g), g = gcd(p, q) =
    x*p + y*q: rows by (1, 1, -c, 1 - c) with c = y*q/g, columns by (x, y,
    -q/g, p/g).
    """
    n = len(a)
    k = len(a[0]) if n else 0
    d = [[x % m for x in row] for row in a] if m else [list(row) for row in a]
    u = identity(n)
    uinv = identity(n)
    v = identity(k)

    def row_move(i, j, move, inverse):
        # rows (i, j) of d and u by move, columns (i, j) of uinv by inverse
        _rows(d, i, j, *move, m)
        _rows(u, i, j, *move, m)
        _cols(uinv, i, j, *inverse, m)

    diag = []
    for t in range(min(n, k)):
        i, j = _pivot(d, t, m)
        if i < 0:
            break
        if i != t:
            row_move(i, t, (0, 1, 1, 0), (0, 1, 1, 0))
        if j != t:
            _cols(d, j, t, 0, 1, 1, 0)
            _cols(v, j, t, 0, 1, 1, 0)
        if m and m % d[t][t]:
            w = _unit_to_divisor(d[t][t], m)
            wi = pow(w, -1, m)
            row_move(t, t, (w, 0, 0, w), (wi, 0, 0, wi))
        while True:
            # row_move inlined: a call per move costs ~8% on small inputs
            for i in range(t + 1, n):
                if d[i][t]:
                    a, b, c, e = _pair_step(d[t][t], d[i][t])
                    _rows(d, t, i, a, b, c, e, m)
                    _rows(u, t, i, a, b, c, e, m)
                    _cols(uinv, t, i, e, -c, -b, a, m)
            # only a gcd move can refill column t; rows < t are 0 from t on
            refilled = False
            for j in range(t + 1, k):
                if d[t][j]:
                    step = _pair_step(d[t][t], d[t][j])
                    refilled |= step[1] != 0
                    _cols(d[t:], t, j, *step, m)
                    _cols(v, t, j, *step, m)
            if not refilled:
                break
        if d[t][t] < 0:
            row_move(t, t, (-1, 0, 0, -1), (-1, 0, 0, -1))
        diag.append(d[t][t])
    r = len(diag)
    order = sorted(range(r), key=diag.__getitem__)
    if order != list(range(r)):
        diag = [diag[i] for i in order]
        u[:r] = [u[i] for i in order]
        uinv, v = ([[row[i] for i in order] + row[r:] for row in mat]
                   for mat in (uinv, v))
    for i in range(r):
        for j in range(i + 1, r):
            p, q = diag[i], diag[j]
            if q % p:
                g, x, y = xgcd(p, q)
                c = y * q // g % m if m else y * q // g
                _rows(u, i, j, 1, 1, -c, 1 - c, m)
                _cols(uinv, i, j, 1 - c, c, -1, 1, m)
                _cols(v, i, j, x, y, -(q // g), p // g, m)
                diag[i], diag[j] = g, p * q // g
    return u, diag + [m] * (n - r), v, uinv


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
    columns do not reach), every entry in [0, m].  No rows or no columns:
    h is read off the shape (empty, m*I, or the empty rows over Z).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if not n:
        if modulus:
            return ([[modulus if r == c else 0 for c in range(m)]
                     for r in range(m)], [(i, i) for i in range(m)])
        return [[] for _ in a], []
    if modulus:
        return _howell(a, modulus)
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

    A column is a dict {row: entry mod m} of its nonzero entries, read off
    the rows of a with their zeros skipped; an entry that an elimination
    makes 0 mod m is dropped, so a step costs the nonzero entries of the
    two columns it combines.  Rows are settled top to bottom.  Generators of
    the lattice vectors that vanish on every settled row are filed in
    waiting[r] under the row r of their first nonzero entry, the input
    columns in column order and a column that is 0 mod m never.  At row i
    they are merged into one pivot by unimodular column operations and
    scaled by a unit mod m so that its head p divides m.  (m/p)*pivot, whose
    head is 0 mod m, is what the pivot adds to the lattice vectors that
    vanish on row i; it is filed for the rows below unless the pivot is
    zero below its head, which makes it 0.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(a):
        for j in _compress(range(ncols), row):
            if (x := row[j] % m):
                cols[j][r] = x
    waiting = [[] for _ in range(nrows)]
    for col in cols:
        if col:
            waiting[next(iter(col))].append(col)
    h = [[0] * nrows for _ in range(nrows)]
    for i in range(nrows):
        tails, waiting[i] = waiting[i], None
        if not tails:
            h[i][i] = m
            continue
        best = tails[0] if len(tails) == 1 else \
            min(tails, key=lambda col: _gcd(col[i], m))
        e = best[i]
        u = 1 if m % e == 0 else _unit_to_divisor(e, m)
        piv = best if u == 1 else {r: u * x % m for r, x in best.items()}
        p = piv[i]
        for col in tails:
            if col is best:
                continue
            e = col[i]
            if e % p == 0:
                q = e // p
                for r, y in piv.items():
                    if (x := (col.get(r, 0) - q * y) % m):
                        col[r] = x
                    else:
                        col.pop(r, None)
            else:
                g, s, t = xgcd(p, e)
                pg, eg = p // g, e // g
                old_piv, old_col, piv, col = piv, col, {}, {}
                for r in old_piv.keys() | old_col.keys():
                    y, x = old_piv.get(r, 0), old_col.get(r, 0)
                    if (z := (s * y + t * x) % m):
                        piv[r] = z
                    if (z := (pg * x - eg * y) % m):
                        col[r] = z
                p = g
            if col:
                waiting[min(col)].append(col)
        if p > 1 and len(piv) > 1:
            mp = m // p
            col = {r: z for r, x in piv.items() if (z := mp * x % m)}
            if col:
                waiting[min(col)].append(col)
        for r, x in piv.items():
            h[r][i] = x
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
    acts, which keeps every entry of order m.  A pivot row where v is 0 is
    skipped at once: its pivot would subtract 0 times its column.
    """
    nrows = len(h)
    v = list(vec)
    for r, c in pivots:
        if not v[r]:
            continue
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

    Level k visits, in combinations order, the row sets whose prefix (the
    set less its last row) level k-1 visited, and stops at the first that
    brings its gcd to 1.  A set's k-minors, over the column sets in
    combinations order, are its prefix's expanded along its last row, by
    cofactor indices computed once per level.  A level that is identically
    zero makes all larger levels zero.  As the snf suite's independent
    route, it calls no elimination code and no det.

    Skipping cannot change a gcd.  Each level visits a shifted family:
    lowering a row of a visited set gives an earlier set with a visited
    prefix.  Let j < k be the last level stopped at 1.  For each prime p a
    visited j-set S has a j-minor prime to p.  Over Z localized at p,
    column operations (keeping each row set's ideal of minors) and row
    operations by S (keeping the minors of sets containing S) give
    [I, 0; 0, B], so the k-minors of the sets containing S span all
    k-minors.  The j smallest rows of such a set lie row by row at or below
    S, so it is visited unless level k stops at 1 first.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    kmax = min(m, n)
    # row r, then its negation: a cofactor of sign -1 reads column c + n
    signed = [row + [-e for e in row] for row in a]
    tables = {(): [1]}
    index = {(): 0}
    out = []
    for k in range(1, kmax + 1):
        colsets = list(_combinations(range(n), k))
        terms = [[(c + n * ((k - 1 + t) % 2), index[cols[:t] + cols[t + 1:]])
                  for t, c in enumerate(cols)] for cols in colsets]
        index = {cols: i for i, cols in enumerate(colsets)}
        level, g = {}, 0
        for rows in (s + (r,) for s in tables
                     for r in range(s[-1] + 1 if s else 0, m)):
            prefix, sr = tables[rows[:-1]], signed[rows[-1]]
            minors = level[rows] = []
            for tl in terms:
                total = 0
                for c, i in tl:
                    e = sr[c]
                    if e:
                        p = prefix[i]
                        if p:
                            total += e * p
                minors.append(total)
            g = _gcd(g, *minors)
            if g == 1:
                break
        out.append(g)
        if g == 0:
            return out + [0] * (kmax - k)
        tables = level
    return out
