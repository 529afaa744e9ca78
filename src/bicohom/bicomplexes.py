"""Bicomplexes in the commuting convention, and their invariants.

Cells sit at bidegrees (i, j); dprime raises i, dsecond raises j, both
squares of differentials vanish and the mixed square commutes.  Cells and
differentials are produced lazily by provider callbacks and memoized, so
Hom/tensor grids over periodic complexes stay O(neighborhood) per query.
All computations are pure and deterministic, which keeps the memoization
idempotent: recomputing a cell always yields an equal value.

The core invariant at (i, j) is (Z' ∩ Z'') / d'(Z''); under exact rows and
columns it equals the quotient by d''(Z') and carries a (1, -1) shift
isomorphism chased through preimages.  Both facts are consumed here and
verified by the callers' tests rather than re-proved per call.  It is a
homology group of the grid, and it is returned as one: the
`abgroup.Homology` that `abgroup.subquotient` builds with the grid as
owner and the bidegree as index, with `abgroup.HClass` classes.  H', H''
and the E2 pages are the same type without a site, built by
`abgroup.ker_mod_im` like `complexes.homology`.

The exactness that core_homology and diagonal_shift require is certified
from a Hom or tensor grid's factors where a theorem allows it
(`_certified`): over Z/m a free module is projective and, Z/m being
self-injective, injective, so at (i, j) of Hom(C, D) H' = H_i(C)^(rank
D^j) when D^j is free and H'' = H^j(D)^(rank C_i) when C_i is free; C (x)
D has the same at (-i, -j).  Every other site -- over Z, at a non-free
factor cell or an inexact factor, on a grid without factors -- is decided
on the grid by `ker_mod_im`, which over Z/m counts orders, so a refusal
names the grid's H.  `check_exact_grid` and `directional_homology` always
read the grid: the thm21 suite holds the certificate to them.

Z', B', Z'', B'' and both core denominators d'(Z'') and d''(Z') are read
through three helpers that take the axis as a parameter, over kernels and
images that `abgroup.kernel_image` builds once per differential.  The two
core routes share one numerator Z' ∩ Z'' and divide it by their own
denominator.  H', H'' and the core share one memo per grid, keyed by
canonical site; the grid's cells and checked differentials are memoised
the same way.  The providers of Hom and tensor grids (`complexes._lazy_functor`) hand many
sites one shared pair group or differential, whose kernel, image and
well-definedness are memoised on it, so a site after the first costs
lookups.  The diagonal shift is one chase body, `_chase`, for both
directions and for any number of columns: it solves along one axis and
pushes along the other, checking exactness, looking up the differentials
and reading the landing core once per step, not once per column.
`diagonal_shift` is its one-column case; the balance walk moves a whole
numerator matrix through it.  Each checks once that what it keeps lands
in the numerator; the grid axioms keep a walk's inner steps there.
"""

from collections import namedtuple

from .abgroup import (Element, Morphism, _push, intersect, ker_mod_im,
                      kernel_image, morphism_from_images, preimage_element,
                      subquotient, FpGroup)
from .complexes import Periodic, Window, _check_differential, homology
from .errors import (ConventionViolation, HypothesisViolated,
                     InternalChaseFailure, OutOfWindow)

PRIME = "prime"     # the d' direction (first index)
SECOND = "second"   # the d'' direction (second index)

I_THEN_II = "I-then-II"
II_THEN_I = "II-then-I"

# per axis: the bidegree step its differential takes, the other axis, and
# the prime marks of its names (d', H' or d'', H'')
_STEP = {PRIME: (1, 0), SECOND: (0, 1)}
_OTHER = {PRIME: SECOND, SECOND: PRIME}
_MARKS = {PRIME: "'", SECOND: "''"}
# the axis whose homology an iterated-homology order takes first
_INNER = {I_THEN_II: PRIME, II_THEN_I: SECOND}
# diagonal_shift: the axis each direction solves along; per axis, the
# _Grid method of its differential (called by name) and its grid line
_SOLVE_AXIS = {"+": SECOND, "-": PRIME}
_DIFF_NAME = {PRIME: "dprime", SECOND: "dsecond"}
_LINE = {PRIME: "row", SECOND: "column"}

BoundaryData = namedtuple("BoundaryData",
                          ["zprime", "bprime", "zsecond", "bsecond"])


class _Grid(object):
    """Shared lazy-grid plumbing for both square conventions."""

    def __init__(self, modulus, support_i, support_j,
                 cell_fn, dprime_fn, dsecond_fn):
        self.modulus = modulus
        self.support_i = support_i
        self.support_j = support_j
        self._cell_fn = cell_fn
        self._diff_fns = {PRIME: dprime_fn, SECOND: dsecond_fn}
        self._zero_cell = FpGroup(modulus, 0)
        # (C, D, sign) of a Hom or tensor grid, for `_certified`; a grid
        # built any other way keeps none
        self._factors = None
        self._cells = {}
        self._diffs = {PRIME: {}, SECOND: {}}
        self._sites = {}

    def _site(self, i, j):
        ci, ini = self.support_i.canonical(i)
        cj, inj = self.support_j.canonical(j)
        return (ci, cj), (ini and inj)

    def cell(self, i, j):
        key, inside = self._site(i, j)
        if not inside:
            return self._zero_cell
        got = self._cells.get(key)
        if got is None:
            got = self._cell_fn(*key)
            if got.modulus != self.modulus:
                raise ConventionViolation(
                    "cell %r has modulus %d, grid has %d"
                    % (key, got.modulus, self.modulus))
            self._cells[key] = got
        return got

    def _diff(self, i, j, axis):
        """Checked d along `axis` out of (i, j); a memo hit fetches no cell,
        as its endpoints were checked when it was memoised."""
        di, dj = _STEP[axis]
        key, inside = self._site(i, j)
        inside = inside and self._site(i + di, j + dj)[1]
        got = self._diffs[axis].get(key) if inside else None
        if got is None:
            src, tgt = self.cell(i, j), self.cell(i + di, j + dj)
            if not inside:
                return Morphism.zero(src, tgt)
            raw = self._diff_fns[axis](*key)
            got = raw if raw is not None else Morphism.zero(src, tgt)
            _check_differential(got, src, tgt,
                                "d%s at %r" % (_MARKS[axis], key))
            self._diffs[axis][key] = got
        return got

    def dprime(self, i, j):
        return self._diff(i, j, PRIME)

    def dsecond(self, i, j):
        return self._diff(i, j, SECOND)

    def representable(self, i, j):
        try:
            self._site(i, j)
        except OutOfWindow:
            return False
        return True

    # -- axioms ------------------------------------------------------------

    def check_axioms(self, i_lo, i_hi, j_lo, j_hi):
        """Verify both squares of differentials and the mixed square on
        every bidegree of the rectangle where the composites exist."""
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                for axis in (PRIME, SECOND):
                    di, dj = _STEP[axis]
                    if not self.representable(i + 2 * di, j + 2 * dj):
                        continue
                    two = self._diff(i + di, j + dj, axis).compose(
                        self._diff(i, j, axis))
                    if not two.is_zero():
                        raise ConventionViolation(
                            "d%s o d%s is nonzero at (%d, %d)"
                            % (_MARKS[axis], _MARKS[axis], i, j))
                if self.representable(i + 1, j + 1):
                    a = self.dsecond(i + 1, j).compose(self.dprime(i, j))
                    b = self.dprime(i, j + 1).compose(self.dsecond(i, j))
                    if not self._square_holds(a, b):
                        raise ConventionViolation(
                            "mixed square fails at (%d, %d)" % (i, j))

    @classmethod
    def from_grid(cls, modulus, cells, dprimes=None, dseconds=None,
                  zero_outside=True):
        """Build from explicit dicts keyed by (i, j); the keys must cover a
        full rectangle.  Missing differentials are zero.  Axioms are checked
        eagerly over the rectangle."""
        if not cells:
            raise ValueError("need at least one cell")
        i_keys = sorted({i for i, _ in cells})
        j_keys = sorted({j for _, j in cells})
        i_lo, i_hi = i_keys[0], i_keys[-1]
        j_lo, j_hi = j_keys[0], j_keys[-1]
        wanted = {(i, j) for i in range(i_lo, i_hi + 1)
                  for j in range(j_lo, j_hi + 1)}
        if set(cells) != wanted:
            raise ValueError("cells must cover a full rectangle")
        dprimes = dict(dprimes or {})
        dseconds = dict(dseconds or {})
        grid = cls(modulus,
                   Window(i_lo, i_hi, zero_outside),
                   Window(j_lo, j_hi, zero_outside),
                   lambda i, j: cells[(i, j)],
                   lambda i, j: dprimes.get((i, j)),
                   lambda i, j: dseconds.get((i, j)))
        pad = 1 if zero_outside else 0
        grid.check_axioms(i_lo - pad, i_hi + pad, j_lo - pad, j_hi + pad)
        return grid


class Bicomplex(_Grid):
    """Commuting convention: d'' o d' equals d' o d''."""

    def _square_holds(self, a, b):
        return (a - b).is_zero()


class DoubleComplex(_Grid):
    """Anticommuting convention: d'' o d' + d' o d'' vanishes."""

    def _square_holds(self, a, b):
        return (a + b).is_zero()


def _parity_support(support):
    """A support on which parity of the first index is well defined."""
    if isinstance(support, Periodic) and support.period % 2:
        return Periodic(2 * support.period)
    return support


def _negate_odd_rows(grid, target_cls):
    def flipped(i, j):
        f = grid.dsecond(i, j)
        return -f if i % 2 else f
    return target_cls(grid.modulus, _parity_support(grid.support_i),
                      grid.support_j, grid.cell, grid.dprime, flipped)


def from_double_complex(dc):
    """The commuting bicomplex obtained by negating d'' on odd rows.

    Odd-period supports are doubled so the sign pattern stays periodic.
    Kernels and images are untouched by the sign, so every homology-level
    output matches the input's.
    """
    if not isinstance(dc, DoubleComplex):
        raise ConventionViolation("expected an anticommuting double complex")
    return _negate_odd_rows(dc, Bicomplex)


def to_double_complex(x):
    """Inverse conversion; the same negation gives an involution."""
    if not isinstance(x, Bicomplex):
        raise ConventionViolation("expected a commuting bicomplex")
    return _negate_odd_rows(x, DoubleComplex)


# -- directional homology and exactness ------------------------------------


def _cycles(x, i, j, axis):
    """Z' (axis PRIME) or Z'' (axis SECOND) at (i, j)."""
    return kernel_image(x._diff(i, j, axis))[0]


def _boundaries(x, i, j, axis):
    """B' or B'' at (i, j): the image of the differential landing there."""
    di, dj = _STEP[axis]
    return kernel_image(x._diff(i - di, j - dj, axis))[1]


def _pushed_cycles(x, i, j, axis):
    """The other axis's cycles one step behind (i, j), pushed along axis
    to (i, j): d'(Z'') for PRIME, d''(Z') for SECOND."""
    di, dj = _STEP[axis]
    a, b = i - di, j - dj
    return _push(_cycles(x, a, b, _OTHER[axis]), x._diff(a, b, axis))


def _at_site(x, i, j, tag, build):
    """build(label) for the site (i, j), memoized per tag and canonical
    site; label is the canonical bidegree, or (i, j) outside the support."""
    key, inside = x._site(i, j)
    if not inside:
        return build((i, j))
    if (tag, key) not in x._sites:
        x._sites[tag, key] = build(key)
    return x._sites[tag, key]


def _directional_sub(x, i, j, axis):
    """H' or H'' at (i, j), memoized per canonical site: ker/im of the
    axis's differentials out of and into (i, j), by `ker_mod_im`."""
    di, dj = _STEP[axis]
    return _at_site(x, i, j, axis, lambda _label: ker_mod_im(
        x._diff(i, j, axis), x._diff(i - di, j - dj, axis)))


def directional_homology(x, bidegree, axis):
    """H'(X) (axis "prime") or H''(X) (axis "second") at one bidegree."""
    if axis not in (PRIME, SECOND):
        raise ValueError("axis must be %r or %r" % (PRIME, SECOND))
    i, j = bidegree
    return _directional_sub(x, i, j, axis).group


def boundary_subgroups(x, bidegree):
    """(Z', B', Z'', B'') at a bidegree."""
    i, j = bidegree
    return BoundaryData(*(read(x, i, j, axis) for axis in (PRIME, SECOND)
                          for read in (_cycles, _boundaries)))


def _inexact(x, sites):
    """(axis, i, j, H) for each site of sites, in order, where H != 0."""
    for axis, i, j in sites:
        g = directional_homology(x, (i, j), axis)
        if not g.is_trivial():
            yield axis, i, j, g


def check_exact_grid(x, i_lo, i_hi, j_lo, j_hi):
    """Sites in the rectangle where a row or column fails to be exact.

    Empty report = the exactness hypothesis holds on the rectangle.
    """
    sites = [(axis, i, j) for i in range(i_lo, i_hi + 1)
             for j in range(j_lo, j_hi + 1) for axis in (PRIME, SECOND)]
    return [((i, j), axis, g.describe())
            for axis, i, j, g in _inexact(x, sites)]


def _certified(x, axis, i, j):
    """Whether x's factors prove H' (axis PRIME) or H'' = 0 at (i, j): over
    Z/m, with the fixed factor cell (D_{sign j} for H', C_{sign i} for H'')
    free, the factor homology in the other slot is zero or that cell has
    rank 0.  The three sites the grid's H reads are looked up first, so a
    truncated window refuses as it does on the grid."""
    if x._factors is None or x.modulus < 2:
        return False
    c, d, sign = x._factors
    di, dj = _STEP[axis]
    for k in (0, 1, -1):
        x._site(i + k * di, j + k * dj)
    moving, fixed, n, k = (c, d, i, j) if axis == PRIME else (d, c, j, i)
    cell = fixed.cell(sign * k)
    if (c.modulus != x.modulus or d.modulus != x.modulus
            or cell.order() != x.modulus ** cell.ambient_rank):
        return False
    return (cell.ambient_rank == 0
            or homology(moving, sign * n).group.is_trivial())


def _require_exact(x, sites, op_name):
    """HypothesisViolated for the first site whose H is nonzero; sites the
    factors certify are skipped, so a refusal is the grid's."""
    sites = [s for s in sites if not _certified(x, *s)]
    for axis, i, j, g in _inexact(x, sites):
        raise HypothesisViolated(
            "%s needs H%s = 0 at (%d, %d) but found %s"
            % (op_name, _MARKS[axis], i, j, g.describe()))


# -- the core invariant -----------------------------------------------------


def _require_core_exact(x, i, j, op_name):
    # the two vanishing statements that make d'(Z'') = d''(Z') at (i, j)
    _require_exact(x, [(SECOND, i - 1, j), (PRIME, i, j - 1)], op_name)


def core_homology(x, bidegree):
    """The core invariant at a bidegree; memoized per canonical site.

    Periodic axes report the canonical representative of the bidegree, so
    classes reached by shifts compare against classes built directly.
    Requires exactness where the defining equality consumes it; refuses
    with HypothesisViolated otherwise.
    """
    i, j = bidegree

    def build(label):
        _require_core_exact(x, i, j, "core_homology")
        numerator = intersect(_cycles(x, i, j, PRIME),
                              _cycles(x, i, j, SECOND))
        return subquotient(x.cell(i, j), numerator,
                           _pushed_cycles(x, i, j, PRIME), x, label)
    return _at_site(x, i, j, "core", build)


def core_equality_check(x, bidegree):
    """Whether d'(Z'') equals d''(Z') at the bidegree (mutual inclusion)."""
    i, j = bidegree
    _require_core_exact(x, i, j, "core_equality_check")
    return _pushed_cycles(x, i, j, PRIME) == _pushed_cycles(x, i, j, SECOND)


def core_homology_alt(x, bidegree):
    """The core invariant with d''(Z') as the denominator.

    A second route on core_homology's numerator; tests compare the two.
    """
    i, j = bidegree
    _require_core_exact(x, i, j, "core_homology_alt")
    return subquotient(x.cell(i, j), core_homology(x, bidegree).numerator,
                       _pushed_cycles(x, i, j, SECOND), x, (i, j))


def _chase(core, columns, direction):
    """The diagonal-shift chase of coordinate columns of core's numerator,
    all at once: (landing core, pushed columns), one column per input.

    Exactness is checked, both differentials are looked up and the landing
    core is read once per call; each column is solved on its own.  Callers
    check once that the columns they keep land in the numerator (`HClass`,
    the walk's `_classes`); in between, the grid axioms (d o d = 0, the
    commuting square) keep them there, and a column that breaks them has
    no preimage at the next step or no class at the end.
    """
    if direction not in _SOLVE_AXIS:
        raise ValueError("direction must be '+' or '-'")
    axis = _SOLVE_AXIS[direction]
    other = _OTHER[axis]
    x, (i, j) = core.owner, core.index
    (ai, aj), (oi, oj) = _STEP[axis], _STEP[other]
    _require_exact(x, [(axis, i, j), (axis, i - oi, j - oj)],
                   "diagonal_shift(%s)" % direction)
    a, b = i - ai, j - aj  # y's site: one step back along the solve axis
    solve = getattr(x, _DIFF_NAME[axis])(a, b)
    push = getattr(x, _DIFF_NAME[other])(a, b)
    pushed = []
    for col in columns:
        y = preimage_element(solve, Element(solve.target, col))
        if y is None:
            raise InternalChaseFailure(
                "certified-exact %s has no preimage at (%d, %d)"
                % (_LINE[axis], i, j))
        pushed.append(push.matrix.mul_vector(y.coords))
    return core_homology(x, (a + oi, b + oj)), pushed


def diagonal_shift(cls, direction):
    """The (1, -1) isomorphism on core classes, chased through preimages.

    direction "+": solve d''(y) = x and return the class of d'(y) at
    (i+1, j-1); direction "-" swaps the roles and lands at (i-1, j+1).
    The one-column case of `_chase`; `HClass` checks the landing column.
    """
    landing, (col,) = _chase(cls.homology, [cls.representative.coords],
                             direction)
    return landing.class_of(Element(landing.parent, col))


# -- iterated (E2) homology -------------------------------------------------


def _induced_between_subs(sq_from, sq_to, f):
    """The map on subquotients induced by f on representatives."""
    return morphism_from_images(sq_from.group, sq_to.group, sq_to._classes(
        (f.matrix @ sq_from.numerator.matrix).columns()))


def iterated_homology(x, bidegree, order):
    """E2-style iterated homology at a bidegree.

    I-then-II takes d'-direction homology first, then homology of the
    induced d''-direction complex; II-then-I is the reverse.
    """
    if order not in _INNER:
        raise ValueError("order must be %r or %r" % (I_THEN_II, II_THEN_I))
    inner = _INNER[order]
    outer = _OTHER[inner]
    i, j = bidegree
    di, dj = _STEP[outer]
    sites = [(i - di, j - dj), (i, j), (i + di, j + dj)]
    prev, mid, nxt = [_directional_sub(x, a, b, inner) for a, b in sites]
    into = _induced_between_subs(prev, mid, x._diff(i - di, j - dj, outer))
    outof = _induced_between_subs(mid, nxt, x._diff(i, j, outer))
    return ker_mod_im(outof, into).group
