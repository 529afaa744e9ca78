"""Exact integer matrices: Smith/Hermite normal forms, mod-m solving, lattices.

All arithmetic is arbitrary-precision integer arithmetic; floats never enter.
The modulus convention used across the package appears here in its rawest
form: m = 0 means "over Z", m >= 2 means "over Z/m".  Over Z the lattice
functions eliminate with unimodular integer column operations.  Over Z/m
every lattice involved contains m*Z^n, so they work on residues instead:
the Howell form of backend.col_echelon keeps every entry in [0, m].

kernel_basis and solve_mod also take `relations`, extra columns R that are
quotiented out on the target side: kernel_basis(a, m, R) is the preimage
{x : a@x in span(R) + m*Z^rows} and solve_mod(a, b, m, R) finds an x with
a@x - b in that lattice.  Over Z/m both read their answer off the Howell
form of the stacked matrix [[a, R], [I, 0]], whose lattice vectors are the
pairs (a@x + R@y + m*z; x + m*w).
"""

from operator import index as _as_int

from . import backend


class IntMatrix:
    """Immutable row-major integer matrix; zero-sized dimensions allowed."""

    __slots__ = ("_data", "rows", "cols")

    def __init__(self, rows, cols=None):
        data = tuple(tuple(_as_int(e) for e in row) for row in rows)
        self._data = data
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            if any(len(row) != self.cols for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("cols mismatch")
        else:
            self.cols = 0 if cols is None else _as_int(cols)

    @classmethod
    def identity(cls, n):
        return cls(backend.identity(n), cols=n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = [tuple(col) for col in columns]
        if columns:
            nr = len(columns[0])
            if rows is not None and rows != nr:
                raise ValueError("rows mismatch")
        else:
            nr = 0 if rows is None else rows
        return cls([[col[i] for col in columns] for i in range(nr)],
                   cols=len(columns))

    @classmethod
    def diagonal(cls, entries, rows=None, cols=None):
        entries = list(entries)
        nr = len(entries) if rows is None else rows
        nc = len(entries) if cols is None else cols
        data = [[0] * nc for _ in range(nr)]
        for i, e in enumerate(entries):
            data[i][i] = e
        return cls(data, cols=nc)

    def to_lists(self):
        return [list(row) for row in self._data]

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(row[j] for row in self._data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.cols == other.cols
                and self._data == other._data)

    def __hash__(self):
        return hash((self._data, self.cols))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        if self.cols == 0 or other.cols == 0:
            return IntMatrix.zeros(self.rows, other.cols)
        return IntMatrix(backend.mat_mul(self.to_lists(), other.to_lists()),
                         cols=other.cols)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(self._data, other._data)], cols=self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntMatrix([[-e for e in row] for row in self._data],
                         cols=self.cols)

    def scale(self, k):
        k = _as_int(k)
        return IntMatrix([[k * e for e in row] for row in self._data],
                         cols=self.cols)

    def transpose(self):
        return IntMatrix([[self._data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)], cols=self.rows)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix([ra + rb for ra, rb in zip(self._data, other._data)],
                         cols=self.cols + other.cols)

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return IntMatrix(self._data + other._data, cols=self.cols)

    def mul_vector(self, vec):
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(e * x for e, x in zip(row, vec) if e)
                     for row in self._data)

    def is_zero(self):
        return all(e == 0 for row in self._data for e in row)

    def is_square(self):
        return self.rows == self.cols

    def det(self):
        if not self.is_square():
            raise ValueError("det of a non-square matrix")
        return backend.det(self.to_lists())

    def diagonal_entries(self):
        return tuple(self._data[i][i] for i in range(min(self.rows, self.cols)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return "IntMatrix(%dx%d)" % (self.rows, self.cols)
        body = "; ".join(" ".join(str(e) for e in row) for row in self._data)
        return "IntMatrix[%s]" % body


class SnfResult:
    """D = U*A*V with U, V unimodular and D in Smith normal form."""

    __slots__ = ("U", "D", "V", "Uinv", "Vinv")

    def __init__(self, U, D, V, Uinv, Vinv):
        self.U = U
        self.D = D
        self.V = V
        self.Uinv = Uinv
        self.Vinv = Vinv

    @property
    def diagonal(self):
        return self.D.diagonal_entries()

    def __repr__(self):
        return "SnfResult(diagonal=%r)" % (self.diagonal,)


def smith_normal_form(a):
    """Smith normal form of an IntMatrix.

    The diagonal of the returned D is nonnegative and each entry divides the
    next; U and V are unimodular with D = U @ a @ V, and their exact integer
    inverses ride along as Uinv/Vinv.
    """
    if a.rows == 0 or a.cols == 0:
        eye_r = IntMatrix.identity(a.rows)
        eye_c = IntMatrix.identity(a.cols)
        return SnfResult(eye_r, a, eye_c, eye_r, eye_c)
    u, d, v, uinv, vinv = backend.snf_transforms(a.to_lists())
    return SnfResult(IntMatrix(u, cols=a.rows), IntMatrix(d, cols=a.cols),
                     IntMatrix(v, cols=a.cols), IntMatrix(uinv, cols=a.rows),
                     IntMatrix(vinv, cols=a.cols))


def hermite_normal_form(a):
    """Column echelon form (H, W) with H = a @ W and W unimodular.

    Pivots are positive and sit at strictly increasing row indices; columns
    past the last pivot are zero, and the matching columns of W form a basis
    of the integer kernel of a.
    """
    if a.rows == 0:
        return a, IntMatrix.identity(a.cols)
    h, w, _ = backend.col_echelon(a.to_lists(), True)
    return IntMatrix(h, cols=a.cols), IntMatrix(w, cols=a.cols)


def _check_modulus(m):
    m = _as_int(m)
    if m < 0:
        raise ValueError("modulus must be nonnegative")
    return m


def _normalize_columns(cols, nrows):
    """Echelonize a generating set, dropping dependent/zero columns."""
    if not cols:
        return IntMatrix.zeros(nrows, 0)
    mat = IntMatrix.from_columns(cols, rows=nrows)
    h, _, pivots = backend.col_echelon(mat.to_lists(), False)
    kept = [c for (_, c) in pivots]
    return IntMatrix([[h[i][c] for c in kept] for i in range(nrows)],
                     cols=len(kept))


def _relations(a, relations):
    """a's rows extended by the columns of relations, as row-major lists."""
    if relations is None:
        return a.to_lists()
    if relations.rows != a.rows:
        raise ValueError("relations need one row per row of the matrix")
    return [list(ra) + list(rr) for ra, rr in
            zip(a.to_lists(), relations.to_lists())]


def _identity_below(top, n):
    """Rows of [I, 0] to stack under top: I under the first n columns."""
    width = len(top[0]) if top else n
    return [[1 if i == j else 0 for j in range(width)] for i in range(n)]


def kernel_basis(a, m=0, relations=None):
    """Generators of {x : a @ x in span(relations) + m*Z^rows} as columns.

    Without relations this is {x : a @ x == 0 (mod m)}.  For m > 0 the
    result is the Howell basis of that lattice (it contains m*Z^cols):
    square, lower triangular, pivots dividing m, entries in [0, m].  It is
    the lower-right block of the Howell form of [[a, R], [I, 0]]: the basis
    columns whose pivot lies below a's rows have top part zero, so their
    bottom parts span exactly the solutions x.  For m = 0 it is the integer
    kernel of [a | R] cut down to x, in column echelon form.
    """
    m = _check_modulus(m)
    if a.rows == 0:
        # vacuous constraint: the kernel is all of Z^cols
        return IntMatrix.identity(a.cols)
    top = _relations(a, relations)
    if m:
        h, _, _ = backend.col_echelon(
            top + _identity_below(top, a.cols), False, m)
        return IntMatrix([row[a.rows:] for row in h[a.rows:]], cols=a.cols)
    _, w, pivots = backend.col_echelon(top, True)
    gens = []
    for j in range(len(pivots), len(w)):
        col = tuple(w[i][j] for i in range(a.cols))
        if any(col):
            gens.append(col)
    return _normalize_columns(gens, a.cols)


def solve_mod(a, b, m=0, relations=None):
    """One x with a @ x - b in span(relations) + m*Z^rows, or None.

    For m > 0, (b; 0) is reduced by the pivots of the Howell form of
    [[a, R], [I, 0]] on a's rows; b is reachable iff the top part of the
    residue vanishes, and then minus its bottom part, mod m, is a witness
    with entries in [0, m).  For m = 0 the same reduction runs on the
    column echelon form of [a | R] over Z.  Any returned x satisfies the
    system exactly (substitution is the oracle of record).
    """
    m = _check_modulus(m)
    b = [_as_int(e) for e in b]
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    top = _relations(a, relations)
    if m:
        h, _, pivots = backend.col_echelon(
            top + _identity_below(top, a.cols), False, m)
        residue, _ = backend.reduce_columns(
            h, pivots[:a.rows], b + [0] * a.cols, m)
        if any(residue[:a.rows]):
            return None
        return tuple(-e % m for e in residue[a.rows:])
    h, w, pivots = backend.col_echelon(top, True)
    residue, coeffs = backend.reduce_columns(h, pivots, b)
    if any(residue):
        return None
    x = [0] * a.cols
    for q, (_, c) in zip(coeffs, pivots):
        if q:
            for i in range(a.cols):
                wic = w[i][c]
                if wic:
                    x[i] += q * wic
    return tuple(x)


def lattice_intersect(b1, b2, m=0):
    """Generators of (span b1 + m*Z^rows) ∩ (span b2 + m*Z^rows).

    For m > 0 the result is the Howell basis of the intersection: the
    lower-right block of the Howell form of [[b1, b2], [b1, 0]], whose
    lattice vectors with top part zero are exactly (0; b1@x + m*w) with
    b1@x in span(b2) + m*Z^rows.  For m = 0 it is built from the integer
    kernel of [b1 | -b2]: every kernel vector (x; y) has b1 @ x == b2 @ y,
    which is exactly a point of the intersection.
    """
    if b1.rows != b2.rows:
        raise ValueError("lattices live in different ambient ranks")
    m = _check_modulus(m)
    if m:
        rows1 = b1.to_lists()
        top = [r1 + list(r2) for r1, r2 in zip(rows1, b2.to_lists())]
        bottom = [r1 + [0] * b2.cols for r1 in rows1]
        h, _, _ = backend.col_echelon(top + bottom, False, m)
        return IntMatrix([row[b1.rows:] for row in h[b1.rows:]],
                         cols=b1.rows)
    stacked = b1.hstack(-b2)
    ker = kernel_basis(stacked, 0)
    gens = []
    for j in range(ker.cols):
        x = [ker[(i, j)] for i in range(b1.cols)]
        gens.append(b1.mul_vector(x))
    return _normalize_columns([g for g in gens if any(g)], b1.rows)
