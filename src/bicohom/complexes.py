"""Z-graded complexes of finitely presented groups.

A complex carries either a homological differential (degree -1) or a
cohomological one (degree +1).  Support is a finite window, outside which
every cell is zero, or exactly periodic, which represents the 2-periodic
complete resolutions downstream with no truncation error.
Every degree lookup, here, in the grids and in the file format, goes
through the support's `canonical(n)`.  One lazy builder,
`_lazy_functor`, applies Hom or tensor to two complexes; both grids and,
reading one line with the group as a one-cell complex, the four functors
with a group below are built by it.  It builds a pair group once per pair
of factor-cell objects, not once per site, and each induced differential
once per pair of pair groups and factor differential.

`homology(c, n)` returns the package's one subquotient type,
`abgroup.Homology` with its `abgroup.HClass` classes, built at the site
(c, n) by `abgroup.ker_mod_im`, the one ker/im builder of complexes and
grids, which certifies a zero group over Z/m by counting orders; the same
type serves, through `bicomplexes.core_homology`, a grid's core invariant.
"""

from math import gcd

from .abgroup import (FpGroup, Homology, Morphism, _shared_modulus,
                      hom_group, induced_hom_map, induced_tensor_map,
                      ker_mod_im, kernel_image, tensor_group)
from .abgroup import direct_sum as group_direct_sum
from .errors import BadArgument, ConventionViolation

HOMOLOGICAL = "homological"
COHOMOLOGICAL = "cohomological"


def degree_step(convention):
    """The degree change of a differential: -1 homological, +1 otherwise."""
    return -1 if convention == HOMOLOGICAL else 1


class Window:
    """Support lo..hi inclusive; every cell outside it is zero."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError("empty window")
        self.lo = lo
        self.hi = hi

    def __contains__(self, n):
        return self.lo <= n <= self.hi

    def canonical(self, n):
        """(canonical index, inside?)."""
        return n, self.lo <= n <= self.hi

    def degrees(self):
        """The canonical indices, each once."""
        return range(self.lo, self.hi + 1)

    def reflected(self):
        """The support of n -> -n."""
        return Window(-self.hi, -self.lo)

    def __eq__(self, other):
        return (isinstance(other, Window) and self.lo == other.lo
                and self.hi == other.hi)

    def __repr__(self):
        return "Window(%d..%d)" % (self.lo, self.hi)


class Periodic:
    """Support with cell(n) == cell(n mod period) for every integer n."""

    __slots__ = ("period",)

    def __init__(self, period):
        if period < 1:
            raise ValueError("period must be at least 1")
        self.period = period

    def __contains__(self, n):
        return True

    def canonical(self, n):
        return n % self.period, True

    def degrees(self):
        return range(self.period)

    def reflected(self):
        return self

    def __eq__(self, other):
        return isinstance(other, Periodic) and self.period == other.period

    def __repr__(self):
        return "Periodic(%d)" % self.period


def _check_differential(f, source, target, where):
    """ConventionViolation naming `where` unless f runs source -> target
    and respects the relations; complexes and grids check each map so."""
    if f.source != source or f.target != target:
        raise ConventionViolation("%s has wrong endpoints" % where)
    if not f.is_well_defined():
        raise ConventionViolation("%s ignores relations" % where)


class Complex:
    """Immutable graded complex; construct via Complex.window/periodic."""

    def __init__(self, convention, modulus, support, cells, diffs):
        if convention not in (HOMOLOGICAL, COHOMOLOGICAL):
            raise ValueError("unknown convention %r" % (convention,))
        self.convention = convention
        self.modulus = modulus
        self.support = support
        self.step = degree_step(convention)
        self._cells = dict(cells)
        self._diffs = dict(diffs)
        self._zero_cell = FpGroup(modulus, 0)
        self._homology = {}
        self._validate()

    # -- construction -----------------------------------------------------

    @classmethod
    def window(cls, convention, modulus, lo, hi, cells, diffs=None):
        """cells: dict degree -> FpGroup covering lo..hi (or a list in that
        order); diffs: dict degree -> Morphism, missing entries are zero."""
        if not isinstance(cells, dict):
            cells = {lo + k: g for k, g in enumerate(cells)}
        return cls(convention, modulus, Window(lo, hi), cells, diffs or {})

    @classmethod
    def periodic(cls, convention, modulus, period, cells, diffs=None):
        if not isinstance(cells, dict):
            cells = {k: g for k, g in enumerate(cells)}
        return cls(convention, modulus, Periodic(period), cells, diffs or {})

    @classmethod
    def zero(cls, convention, modulus):
        return cls.window(convention, modulus, 0, 0, [FpGroup(modulus, 0)])

    def diff_degrees(self):
        """Degrees whose differential stays inside the stored cells."""
        return [n for n in self.degrees() if n + self.step in self.support]

    def _validate(self):
        s = self.support
        if set(self._cells) != set(s.degrees()):
            raise ConventionViolation("cells must cover the support exactly")
        for g in self._cells.values():
            if g.modulus != self.modulus:
                raise ConventionViolation("cell modulus differs from complex")
        allowed = set(self.diff_degrees())
        diffs = {}
        for n, f in self._diffs.items():
            key = s.canonical(n)[0]
            if key in diffs:
                raise ConventionViolation(
                    "differential at degree %d is given twice" % key)
            diffs[key] = f
        self._diffs = diffs
        if not set(self._diffs) <= allowed:
            raise ConventionViolation("a differential leaves the window")
        for n in allowed:
            _check_differential(self.diff(n), self.cell(n),
                                self.cell(n + self.step),
                                "differential at degree %d" % n)
        for n in allowed:
            m = n + self.step
            if m + self.step in s:
                if not self.diff(m).compose(self.diff(n)).is_zero():
                    raise ConventionViolation(
                        "d o d is nonzero at degree %d" % n)

    # -- access -----------------------------------------------------------

    def cell(self, n):
        key, inside = self.support.canonical(n)
        return self._cells[key] if inside else self._zero_cell

    def diff(self, n):
        f = self._diffs.get(self.support.canonical(n)[0])
        if f is not None:
            return f
        return Morphism.zero(self.cell(n), self.cell(n + self.step))

    def degrees(self):
        return self.support.degrees()

    def __repr__(self):
        return "Complex(%s, m=%d, %r)" % (self.convention, self.modulus,
                                          self.support)


def cycles(c, n):
    """Kernel of the outgoing differential at degree n."""
    ker, _ = kernel_image(c.diff(n))
    return ker


def boundaries(c, n):
    """Image of the incoming differential at degree n."""
    _, img = kernel_image(c.diff(n - c.step))
    return img


def homology(c, n):
    """Homology of c at degree n, memoized per complex: ker(d out of n)
    over im(d into n), by `ker_mod_im`.

    Only canonical degrees are stored; any other degree of a periodic
    complex gets its own object that reports n and shares the groups.
    """
    key, _ = c.support.canonical(n)
    got = c._homology.get(key)
    if got is None:
        got = c._homology[key] = ker_mod_im(c.diff(key), c.diff(key - c.step),
                                            c, key)
    if key == n:
        return got
    return Homology(c, n, got.numerator, got.denominator, got.group)


def is_exact(c, lo=None, hi=None):
    """Degrees in lo..hi where homology is nonzero; empty report = exact.

    The default range is the support's degrees: one period, or the whole
    window, outside which the complex is zero and so exact.
    """
    degrees = c.degrees()
    lo = degrees[0] if lo is None else lo
    hi = degrees[-1] if hi is None else hi
    if lo > hi:
        raise BadArgument("empty degree range %d..%d" % (lo, hi))
    report = []
    for n in range(lo, hi + 1):
        h = homology(c, n)
        if not h.group.is_trivial():
            report.append((n, h.group.describe()))
    return report


# -- Hom and tensor functors ---------------------------------------------


def _lazy_functor(cell_fn, map_fn, c, d, sign):
    """(at, dprime, dsecond) of the lazy grid whose cell (i, j) is the pair
    group F(C_{sign i}, D_{sign j}) for the bifunctor F with group
    constructor `cell_fn` and induced map `map_fn(src, dst, f, g)`.  d'
    applies F to (c's differential, identity) and d'' to (identity, d's
    differential), each run the way that raises the index: against a
    contravariant slot, the map into i + 1 comes from the differential out
    of i + 1.

    A pair group is built once per pair of factor-cell objects, and an
    induced map once per (source and target pair groups, axis, canonical
    degree of the factor differential): the four sites of a 2-periodic
    strand sum, whose two cells are one object, share one pair group, and
    d'(i, 0) is d'(i, 1).  The memo keys on object identity and keeps its
    key objects, so no id is reused while the grid lives.

    No induced differential is checked at grid size: it is well defined
    because its factor maps are (functoriality), and `abgroup._induced_map`
    asks each factor map for its memoised `is_well_defined`, which
    `Complex._validate` filled when it checked the factor differential.
    An ill-defined factor map raises IllDefined there.
    """
    memo = {}

    def once(objs, tail, build):
        key = tuple(map(id, objs)) + tail
        got = memo.get(key)
        if got is None:
            got = memo[key] = (objs, build())
        return got[1]

    def at(i, j):
        a, b = c.cell(sign * i), d.cell(sign * j)
        return once((a, b), (), lambda: cell_fn(a, b))

    def joining(x, k):
        """The canonical degree of x's differential between k and k + 1."""
        return x.support.canonical(sign * (k if x.step == sign else k + 1))[0]

    def dprime(i, j):
        src, dst, n = at(i, j), at(i + 1, j), joining(c, i)
        return once((src, dst), ("'", n), lambda: map_fn(
            src, dst, c.diff(n), Morphism.identity(d.cell(sign * j))))

    def dsecond(i, j):
        src, dst, n = at(i, j), at(i, j + 1), joining(d, j)
        return once((src, dst), ("''", n), lambda: map_fn(
            src, dst, Morphism.identity(c.cell(sign * i)), d.diff(n)))

    return at, dprime, dsecond


def _functor_complex(cell_fn, map_fn, convention, first, second):
    """F(first, second) for one complex and one group: one line of the lazy
    grid, the group taken as a one-cell complex at degree 0.  Degree n sits
    at step * n, the step of `convention`: +1 for Hom, -1 for tensor, whose
    grid reads its homological factors reflected."""
    c_first = isinstance(first, Complex)
    c, group = (first, second) if c_first else (second, first)
    point = Complex.window(HOMOLOGICAL, group.modulus, 0, 0, [group])
    step = degree_step(convention)
    if c_first:
        at, line, _ = _lazy_functor(cell_fn, map_fn, c, point, step)
    else:
        at, _, line = _lazy_functor(cell_fn, map_fn, point, c, step)

    def site(n):
        return (step * n, 0) if c_first else (0, step * n)

    s = c.support
    return Complex(convention, _shared_modulus(first, second), s,
                   {n: at(*site(n)).group for n in s.degrees()},
                   {n: line(*site(n)) for n in s.degrees() if n + step in s})


def hom_into_module(c, group):
    """Hom(C, N): cohomological, cell i = Hom(C_i, N), d = precomposition."""
    if c.convention != HOMOLOGICAL:
        raise ValueError("hom_into_module expects a homological complex")
    return _functor_complex(hom_group, induced_hom_map, COHOMOLOGICAL,
                            c, group)


def hom_from_module(group, d):
    """Hom(M, D): cohomological, cell j = Hom(M, D^j), d = postcomposition."""
    if d.convention != COHOMOLOGICAL:
        raise ValueError("hom_from_module expects a cohomological complex")
    return _functor_complex(hom_group, induced_hom_map, COHOMOLOGICAL,
                            group, d)


def tensor_with_module(c, group):
    """C (x) N degreewise, homological like C."""
    if c.convention != HOMOLOGICAL:
        raise ValueError("tensor_with_module expects a homological complex")
    return _functor_complex(tensor_group, induced_tensor_map, HOMOLOGICAL,
                            c, group)


def module_tensor_with(group, c):
    """M (x) C degreewise; the mirror of tensor_with_module."""
    if c.convention != HOMOLOGICAL:
        raise ValueError("module_tensor_with expects a homological complex")
    return _functor_complex(tensor_group, induced_tensor_map, HOMOLOGICAL,
                            group, c)


def reindex(c):
    """Swap gradings via C_n = C^(-n); cells keep their identities."""
    flipped = HOMOLOGICAL if c.convention == COHOMOLOGICAL else COHOMOLOGICAL
    support = c.support.reflected()
    cells = {n: c.cell(-n) for n in support.degrees()}
    diffs = {-k: c.diff(k) for k in c.diff_degrees()}
    return Complex(flipped, c.modulus, support, cells, diffs)


def direct_sum(c1, c2):
    """Degreewise direct sum; windows may differ, periods are lcm-merged."""
    if c1.convention != c2.convention:
        raise ValueError("direct summands use different conventions")
    if c1.modulus != c2.modulus:
        raise ValueError("direct summands use different moduli")
    s1, s2 = c1.support, c2.support
    if isinstance(s1, Periodic) != isinstance(s2, Periodic):
        raise ValueError("cannot sum periodic with windowed support")
    if isinstance(s1, Periodic):
        p1, p2 = s1.period, s2.period
        support = Periodic(p1 * p2 // gcd(p1, p2))
    else:
        support = Window(min(s1.lo, s2.lo), max(s1.hi, s2.hi))
    sums = {n: group_direct_sum(c1.cell(n), c2.cell(n))
            for n in support.degrees()}
    cells = {n: total for n, (total, _, _) in sums.items()}
    diffs = {}
    for n in support.degrees():
        if n + c1.step not in support:
            continue
        m, _ = support.canonical(n + c1.step)
        _, (into1, into2), _ = sums[m]
        _, _, (onto1, onto2) = sums[n]
        diffs[n] = (into1.compose(c1.diff(n)).compose(onto1)
                    + into2.compose(c2.diff(n)).compose(onto2))
    return Complex(c1.convention, c1.modulus, support, cells, diffs)
