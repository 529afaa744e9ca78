"""Exact integer matrices: Smith/Hermite normal forms, mod-m solving, lattices.

All arithmetic is arbitrary-precision integer arithmetic; floats never enter.
The modulus convention used across the package appears here in its rawest
form: m = 0 means "over Z", m >= 2 means "over Z/m".

The lattice functions share one construction for every modulus: each reads
its answer off one backend.col_echelon call on a stacked matrix, which is
the column echelon form over Z and the Howell form modulo m (every lattice
in a Z/m problem contains m*Z^n, so that form keeps every entry in [0, m]).
Both forms are zero above each pivot, so the basis columns whose pivot lies
below the top block have top part zero; their bottom parts span exactly the
lattice vectors with zero top part.  kernel_basis(a, m, R) is the preimage
{x : a@x in span(R) + m*Z^rows} and solve_mod(a, b, m, R) finds an x with
a@x - b in that lattice, both from [[a, R], [I, 0]], whose lattice vectors
are the pairs (a@x + R@y + m*z; x + m*w).  solve_mod keeps its echelon on
the IntMatrix a, so solves against one long-lived matrix build it once.

The public IntMatrix constructor checks every entry and row length, and
`from_columns` checks every entry and column length once, then
transposes unchecked.  The results this module computes from IntMatrix
data or backend output (products, sums, stacks, submatrices, normal
forms, lattice bases) skip that scan through IntMatrix._trusted, as do
identity and zeros, and diagonal, which checks only its entries.
"""

from collections import namedtuple
from operator import index as _as_int, mul as _mul

from . import backend


def _dimension(n, what):
    n = _as_int(n)
    if n < 0:
        raise ValueError("negative %s count %d" % (what, n))
    return n


class IntMatrix:
    """Immutable row-major integer matrix, dimensions 0 or more; it carries
    one lazily filled solve echelon, `_solver`, kept by solve_mod."""

    __slots__ = ("_data", "rows", "cols", "_solver")

    def __init__(self, rows, cols=None):
        data = tuple(tuple(_as_int(e) for e in row) for row in rows)
        self._data = data
        self._solver = None
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            if any(len(row) != self.cols for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("cols mismatch")
        else:
            self.cols = 0 if cols is None else _dimension(cols, "column")

    @classmethod
    def _trusted(cls, rows, cols):
        """The matrix on `rows`, sequences of `cols` ints each, taken as
        they are (each row becomes a tuple): no entry scan, no ragged check.
        Only for results built from IntMatrix data or backend output."""
        self = object.__new__(cls)
        self._data = tuple(map(tuple, rows))
        self._solver = None
        self.rows = len(self._data)
        self.cols = cols
        return self

    @classmethod
    def identity(cls, n):
        n = _dimension(n, "column")
        return cls._trusted(backend.identity(n), n)

    @classmethod
    def zeros(cls, rows, cols):
        cols = _dimension(cols, "column")
        return cls._trusted([[0] * cols] * _dimension(rows, "row"), cols)

    @classmethod
    def from_columns(cls, columns, rows=None):
        """The matrix with the given columns.  Each entry is checked once
        and the ragged check runs once, on the columns; the transpose is
        then taken as it is."""
        columns = [tuple(map(_as_int, col)) for col in columns]
        if columns:
            nr = len(columns[0])
            if rows is not None and rows != nr:
                raise ValueError("rows mismatch")
            if any(len(col) != nr for col in columns):
                raise ValueError("ragged columns")
        else:
            nr = 0 if rows is None else _dimension(rows, "row")
        return cls._trusted(zip(*columns) if columns else [()] * nr,
                            len(columns))

    @classmethod
    def diagonal(cls, entries, rows=None, cols=None):
        entries = list(entries)
        nr = len(entries) if rows is None else _dimension(rows, "row")
        nc = len(entries) if cols is None else _dimension(cols, "column")
        if len(entries) > min(nr, nc):
            raise ValueError("more diagonal entries than a %dx%d matrix holds"
                             % (nr, nc))
        data = [[0] * nc for _ in range(nr)]
        for i, e in enumerate(entries):
            data[i][i] = _as_int(e)
        return cls._trusted(data, nc)

    def to_lists(self):
        return [list(row) for row in self._data]

    def column(self, j):
        return tuple(row[j] for row in self._data)

    def columns(self):
        return list(zip(*self._data)) if self.rows else [()] * self.cols

    def take(self, rows=None, cols=None):
        """The submatrix on the given row and column indices, in the order
        given; None keeps every row or every column."""
        data = self._data if rows is None else [self._data[i] for i in rows]
        if cols is None:
            return IntMatrix._trusted(data, self.cols)
        cols = list(cols)
        return IntMatrix._trusted([[row[j] for j in cols] for row in data],
                                  len(cols))

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
        return IntMatrix._trusted(backend.mat_mul(self._data, other._data),
                                  other.cols)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(
            [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(self._data, other._data)], self.cols)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntMatrix._trusted([[-e for e in row] for row in self._data],
                                  self.cols)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix._trusted(
            [ra + rb for ra, rb in zip(self._data, other._data)],
            self.cols + other.cols)

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return IntMatrix._trusted(self._data + other._data, self.cols)

    def mul_vector(self, vec):
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple([sum(map(_mul, row, vec)) for row in self._data])

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


class SnfResult(namedtuple("SnfResult", ["U", "D", "V", "Uinv"])):
    """D = U*A*V, U and V unimodular, D in Smith form, and Uinv = U^-1."""

    __slots__ = ()

    @property
    def diagonal(self):
        return self.D.diagonal_entries()


def smith_normal_form(a, m=0):
    """Smith normal form of an IntMatrix over Z (m = 0) or Z/m (m >= 2).

    The diagonal of the returned D is nonnegative and each entry divides the
    next; U and V are unimodular with D = U @ a @ V, and the inverse of U
    rides along as Uinv.  Over Z/m all of this holds modulo m: U, V and
    Uinv have entries in [0, m), each diagonal entry divides m, and a
    diagonal place with no pivot holds m.  See backend.snf_transforms.
    """
    m = _check_modulus(m)
    if a.rows == 0 or a.cols == 0:
        eye_r = IntMatrix.identity(a.rows)
        return SnfResult(eye_r, a, IntMatrix.identity(a.cols), eye_r)
    u, diag, v, uinv = backend.snf_transforms(a.to_lists(), m)
    trusted = IntMatrix._trusted
    return SnfResult(trusted(u, a.rows),
                     IntMatrix.diagonal(diag[:a.cols], a.rows, a.cols),
                     trusted(v, a.cols), trusted(uinv, a.rows))


def hermite_normal_form(a):
    """Column echelon form (H, W) with H = a @ W and W unimodular.

    Both are read off the column echelon form of [[a], [I]]: H is its top
    block, W its bottom block.  Pivots of H are positive and sit at strictly
    increasing row indices; columns past the last pivot are zero, and the
    matching columns of W form a basis of the integer kernel of a, itself in
    column echelon form.
    """
    h, _, _ = _preimage_echelon(a, 0, None)
    return (IntMatrix._trusted(h[:a.rows], a.cols),
            IntMatrix._trusted(h[a.rows:], a.cols))


def _check_modulus(m):
    m = _as_int(m)
    if m < 0:
        raise ValueError("modulus must be nonnegative")
    return m


def _stacked_echelon(top, bottom, m):
    """(h, pivots, k): the echelon form of [top; bottom] and its pivots.

    The first k pivots lie on top rows; basis columns k .. len(pivots)-1
    have their pivot below the top block, so their top part is zero.
    """
    h, pivots = backend.col_echelon(top + bottom, m)
    return h, pivots, sum(1 for r, _ in pivots if r < len(top))


def _check_relations(a, relations):
    if relations is not None and relations.rows != a.rows:
        raise ValueError("relations need one row per row of the matrix")


def _preimage_echelon(a, m, relations):
    """_stacked_echelon of [[a, R], [I, 0]]."""
    top = a.to_lists()
    if relations is not None:
        top = [ra + rr for ra, rr in zip(top, relations.to_lists())]
    width = len(top[0]) if top else a.cols
    eye = [[0] * width for _ in range(a.cols)]
    for i, row in enumerate(eye):
        row[i] = 1
    return _stacked_echelon(top, eye, m)


def _bottom_block(h, pivots, k, ntop):
    """Bottom rows of the basis columns k .. len(pivots)-1 of h."""
    return IntMatrix._trusted([row[k:len(pivots)] for row in h[ntop:]],
                              len(pivots) - k)


def kernel_basis(a, m=0, relations=None):
    """Generators of {x : a @ x in span(relations) + m*Z^rows} as columns.

    Without relations this is {x : a @ x == 0 (mod m)}.  It is the bottom
    block of the basis columns of the echelon form of [[a, R], [I, 0]]
    whose pivot lies below a's rows.  For m > 0 that is the Howell basis of
    the lattice (it contains m*Z^cols): square, lower triangular, pivots
    dividing m, entries in [0, m].  For m = 0 it is a basis of the integer
    kernel in column echelon form.  A matrix with no rows or no columns
    is answered by its shape: with no rows every x is in the preimage,
    whose basis is the identity, and Z^0 has a basis of no columns.
    """
    m = _check_modulus(m)
    _check_relations(a, relations)
    if not (a.rows and a.cols):
        return IntMatrix.identity(a.cols)
    return _bottom_block(*_preimage_echelon(a, m, relations), a.rows)


def solve_mod(a, b, m=0, relations=None):
    """One x with a @ x - b in span(relations) + m*Z^rows, or None.

    (b; 0) is reduced by the pivots on a's rows of the echelon form of
    [[a, R], [I, 0]]; `a` keeps them and their columns as (m, relations,
    h, pivots) until a call has another m or unequal relations.  b is
    reachable iff the residue's top part vanishes, and then minus its
    bottom part is a witness, mod m (in [0, m)) when m > 0.  Any returned
    x satisfies the system exactly (substitution is the oracle of record).
    """
    m = _check_modulus(m)
    b = [_as_int(e) for e in b]
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    if a._solver is None or a._solver[:2] != (m, relations):
        _check_relations(a, relations)
        h, pivots, k = _preimage_echelon(a, m, relations)
        a._solver = (m, relations, [row[:k] for row in h], pivots[:k])
    h, pivots = a._solver[2:]
    residue = backend.reduce_columns(h, pivots, b + [0] * a.cols, m)
    if any(residue[:a.rows]):
        return None
    return tuple(-e % m if m else -e for e in residue[a.rows:])


def lattice_intersect(b1, b2, m=0):
    """Generators of (span b1 + m*Z^rows) ∩ (span b2 + m*Z^rows).

    The bottom block of the basis columns of the echelon form of
    [[b1, b2], [b1, 0]] whose pivot lies below the top block: the lattice
    vectors with top part zero are exactly (0; b1@x + m*w) with b1@x in
    span(b2) + m*Z^rows.  For m > 0 that is the Howell basis of the
    intersection; for m = 0 a basis of it in column echelon form.  With no
    rows, or no columns on either side, the intersection is m*Z^rows, read
    off the shape: its basis is m*I over Z/m and no columns over Z.
    """
    if b1.rows != b2.rows:
        raise ValueError("lattices live in different ambient ranks")
    m = _check_modulus(m)
    if not (b1.rows and b1.cols and b2.cols):
        return (IntMatrix.diagonal([m] * b1.rows) if m
                else IntMatrix.zeros(b1.rows, 0))
    rows1 = b1.to_lists()
    top = [r1 + list(r2) for r1, r2 in zip(rows1, b2.to_lists())]
    bottom = [r1 + [0] * b2.cols for r1 in rows1]
    return _bottom_block(*_stacked_echelon(top, bottom, m), b1.rows)
