"""Finitely presented abelian groups over Z or Z/m.

A group is Z^r modulo the column lattice of its relation matrix (plus the
implicit m*e_i when the modulus m is positive).  Morphisms, Hom and tensor
groups, intersections and subquotients all reduce to the lattice arithmetic
in the snf module, which receives the relations and the modulus separately
and so works on residues mod m when m is positive; elements stay exact
integer vectors throughout.  For Z/m-modules this is lossless: module maps
and module tensor products agree with the underlying abelian-group ones
once both sides are killed by m.

Each object of this layer is stored once, in the form its callers read.
A `Subgroup` is the IntMatrix of its generator columns; membership
reduces modulo the relations of the quotient parent / subgroup.  A
subquotient is one `Homology`: numerator over denominator with its group,
`project` and `representative`.  `complexes.homology` and
`bicomplexes.core_homology` return the same type with their site
attached, and `HClass` is its class type.  `ker_mod_im` builds every
ker(out) / im(into) of a complex or a grid; over Z/m it reads a zero
group off the orders of Howell forms already built and leaves
`subquotient` to the others.  The relation echelon that each group
caches counts it (`FpGroup.order`, the product of its pivots) and decides
every yes/no question (zero, well defined, contained, trivial) in
`FpGroup._kills` and `is_trivial`; the Smith form only describes a group:
its invariant factors, free rank, cyclic coordinates and `describe`.  A
group takes that form from `smith_normal_form` over its own ring, Z or
Z/m, on its relations alone; a Z/m group whose echelon, already built,
counts one element takes it from no elimination at all.
Maps are solved in column batches by `_solve`.

Over Z/m a group presented by a Howell basis keeps that basis as its
echelon (`_seed`): the group of a subquotient, parent / (s1 ∩ s2) after
`intersect`, and source / kernel after `kernel_image` when the morphism is
well defined, which is exactly when the kernel basis spans the source
relations too.
"""

from collections import namedtuple
from itertools import product
from math import gcd, prod
from operator import index as _as_int

from . import backend
from .errors import (BadArgument, IllDefined, InternalChaseFailure,
                     NotAnIsomorphism, NotContained, ParentMismatch)
from .snf import (IntMatrix, kernel_basis, lattice_intersect,
                  smith_normal_form, solve_mod)

# orders: one entry per cyclic summand, 0 meaning a Z summand, each other
# entry >= 2 and dividing the next nonzero one; to_cyclic/from_cyclic are the
# transition matrices between ambient and cyclic coordinates.
CyclicForm = namedtuple("CyclicForm", ["orders", "to_cyclic", "from_cyclic"])


def _check_group_modulus(m):
    m = _as_int(m)
    if m < 0 or m == 1:
        raise BadArgument("modulus must be 0 (meaning Z) or at least 2")
    return m


def _shared_modulus(g, h):
    # 0 mixes freely with one positive modulus; two distinct positive
    # moduli have no common coefficient ring in scope.
    if g.modulus and h.modulus and g.modulus != h.modulus:
        raise BadArgument("incompatible moduli %d and %d"
                          % (g.modulus, h.modulus))
    return max(g.modulus, h.modulus)


class FpGroup:
    """Z^ambient_rank modulo the column lattice of `relations` (and m*e_i)."""

    def __init__(self, modulus, ambient_rank, relations=None):
        self.modulus = _check_group_modulus(modulus)
        self.ambient_rank = _as_int(ambient_rank)
        if self.ambient_rank < 0:
            raise ValueError("ambient rank must be nonnegative")
        if relations is None:
            relations = IntMatrix.zeros(self.ambient_rank, 0)
        elif not isinstance(relations, IntMatrix):
            relations = IntMatrix(relations)
        if relations.rows != self.ambient_rank:
            raise ValueError("relations need one row per ambient generator")
        self.relations = relations
        self._cyclic = None
        self._echelon = None

    @classmethod
    def free(cls, modulus, rank):
        """Free module of the given rank (Z^rank, or (Z/m)^rank)."""
        return cls(modulus, rank)

    @classmethod
    def from_factors(cls, modulus, factors):
        """Direct sum of cyclic groups; a factor of 0 means a Z summand."""
        factors = [_as_int(d) for d in factors]
        return cls(modulus, len(factors), IntMatrix.diagonal(factors))

    @property
    def full_relations(self):
        if not self.modulus:
            return self.relations
        return self.relations.hstack(
            IntMatrix.diagonal([self.modulus] * self.ambient_rank))

    def cyclic_decomposition(self):
        """CyclicForm of this group; cached, and pure so the cache is safe."""
        if self._cyclic is None:
            n, m = self.ambient_rank, self.modulus
            # an echelon already built (seeded or asked for) may count one
            # element, and then no Smith form is needed; none is built here
            if m and self._echelon is not None and self.is_trivial():
                diag = (1,) * n
                u, uinv = IntMatrix.zeros(0, n), IntMatrix.zeros(n, 0)
            else:
                res = smith_normal_form(self.relations, m)
                diag, u, uinv = res.diagonal, res.U, res.Uinv
                diag += (m,) * (n - len(diag))
            kept = [i for i, d in enumerate(diag) if d != 1]
            self._cyclic = CyclicForm(tuple(diag[i] for i in kept),
                                      u.take(rows=kept), uinv.take(cols=kept))
        return self._cyclic

    @property
    def invariant_factors(self):
        return tuple(d for d in self.cyclic_decomposition().orders if d)

    @property
    def free_rank(self):
        return self.cyclic_decomposition().orders.count(0)

    def is_trivial(self):
        return self.order() == 1

    def order(self):
        """Number of elements, or None when the group is infinite: the
        product of the pivots of the relation echelon, which is finite
        exactly when every row has a pivot (always, over Z/m)."""
        h, pivots = self._reduction()
        if len(pivots) < self.ambient_rank:
            return None
        return prod(h[r][c] for r, c in pivots)

    def describe(self):
        parts = ["Z/%d" % d for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        return " (+) ".join(parts) if parts else "0"

    def _reduction(self):
        if self._echelon is None:
            self._echelon = backend.col_echelon(self.relations.to_lists(),
                                                self.modulus)
        return self._echelon

    def reduce(self, coords):
        """Canonical representative of coords modulo the relation lattice."""
        h, pivots = self._reduction()
        return tuple(backend.reduce_columns(h, pivots, coords, self.modulus))

    def _kills(self, columns):
        """Whether every coordinate column is zero in this group."""
        return all(not any(self.reduce(c)) for c in columns)

    def element(self, coords):
        return Element(self, coords)

    def zero(self):
        return Element(self, (0,) * self.ambient_rank)

    def generators(self):
        """The ambient basis images e_0, ..., e_{r-1}."""
        n = self.ambient_rank
        return [Element(self, row) for row in backend.identity(n)]

    def elements(self):
        """Iterate every element exactly once; finite groups only."""
        form = self.cyclic_decomposition()
        if 0 in form.orders:
            raise ValueError("cannot enumerate an infinite group")
        for combo in product(*(range(d) for d in form.orders)):
            yield Element(self, form.from_cyclic.mul_vector(combo))

    def __eq__(self, other):
        return self is other or (isinstance(other, FpGroup)
                                 and self.modulus == other.modulus
                                 and self.ambient_rank == other.ambient_rank
                                 and self.relations == other.relations)

    def __hash__(self):
        return hash((self.modulus, self.ambient_rank, self.relations))

    def __repr__(self):
        return ("FpGroup(m=%d, rank=%d, relations=%dx%d)"
                % (self.modulus, self.ambient_rank,
                   self.relations.rows, self.relations.cols))


class Element:
    """A coset representative; equality is modulo the parent's relations."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        coords = tuple(_as_int(c) for c in coords)
        if len(coords) != parent.ambient_rank:
            raise ValueError("coordinate length differs from ambient rank")
        self.parent = parent
        self.coords = coords

    def is_zero(self):
        return self.parent._kills([self.coords])

    def _check_peer(self, other):
        if not isinstance(other, Element) or other.parent != self.parent:
            raise ParentMismatch("elements live in different groups")

    def __add__(self, other):
        self._check_peer(other)
        return Element(self.parent,
                       tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check_peer(other)
        return Element(self.parent,
                       tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Element(self.parent, tuple(-c for c in self.coords))

    def __rmul__(self, k):
        k = _as_int(k)
        return Element(self.parent, tuple(k * c for c in self.coords))

    def __eq__(self, other):
        if not isinstance(other, Element) or other.parent != self.parent:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(self.parent.reduce(self.coords))

    def __repr__(self):
        return "Element%r" % (self.parent.reduce(self.coords),)


class Morphism:
    """A group morphism given by an integer matrix on ambient coordinates.

    The raw constructor does not verify well-definedness; make_morphism is
    the checked entry point for matrices from outside.  A caller that has
    proved the answer passes it as `well_defined`: `identity` passes True,
    and so does `_induced_map`, whose product is well defined because it
    checks both factor maps first (functoriality).  A morphism must not
    be changed after construction: `kernel_image` memoises its kernel and
    image on it and hands the same two subgroups to every caller, and
    `is_well_defined` memoises its answer in `_well_defined`, so a
    differential shared by many grid sites is checked once.
    """

    __slots__ = ("source", "target", "matrix", "_kernel_image",
                 "_well_defined")

    def __init__(self, source, target, matrix, well_defined=None):
        if matrix.rows != target.ambient_rank or \
                matrix.cols != source.ambient_rank:
            raise ValueError("matrix shape %dx%d does not map rank %d to %d"
                             % (matrix.rows, matrix.cols,
                                source.ambient_rank, target.ambient_rank))
        self.source = source
        self.target = target
        self.matrix = matrix
        self._kernel_image = None
        self._well_defined = well_defined

    @classmethod
    def identity(cls, group):
        return cls(group, group, IntMatrix.identity(group.ambient_rank), True)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target,
                   IntMatrix.zeros(target.ambient_rank, source.ambient_rank))

    def __call__(self, elt):
        if elt.parent != self.source:
            raise ParentMismatch("element is not in the morphism's source")
        return Element(self.target, self.matrix.mul_vector(elt.coords))

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ParentMismatch("composition endpoints do not match")
        return Morphism(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ParentMismatch("morphism sum endpoints do not match")
        return Morphism(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Morphism(self.source, self.target, -self.matrix)

    def is_well_defined(self):
        if self._well_defined is None:
            # a target modulus t dividing the source's (or a source over Z)
            # kills the images of the source's m*e_i: skip those columns
            s, t = self.source.modulus, self.target.modulus
            rel = self.source.relations if t and s % t == 0 \
                else self.source.full_relations
            self._well_defined = self.target._kills(
                (self.matrix @ rel).columns())
        return self._well_defined

    def is_zero(self):
        return self.target._kills(self.matrix.columns())

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        return "Morphism(%r)" % (self.matrix,)


def make_morphism(source, target, matrix):
    """Checked constructor: IllDefined when relations are not respected."""
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix, cols=source.ambient_rank)
    f = Morphism(source, target, matrix)
    if not f.is_well_defined():
        raise IllDefined(
            "matrix does not carry source relations into target relations")
    return f


def morphism_from_images(source, target, images):
    """The checked morphism sending the k-th generator of source to the
    element of target whose coordinates are images[k], reduced mod m > 0."""
    m = target.modulus
    return make_morphism(source, target, IntMatrix.from_columns(
        [[e % m if m else e for e in col] for col in images],
        rows=target.ambient_rank))


class Subgroup:
    """A subgroup of an FpGroup, stored as the IntMatrix of its generator
    columns.  The constructor takes that IntMatrix, or Elements of the
    parent or coordinate tuples; `generators` builds the Elements on
    demand.  Membership reduces modulo the relations of the quotient
    parent / self, whose relation matrix (the generators beside the parent
    relations) is the subgroup's lattice lifted to Z^r."""

    __slots__ = ("parent", "matrix", "_quotient")

    def __init__(self, parent, generators=()):
        if not isinstance(generators, IntMatrix):
            cols = []
            for g in generators:
                if isinstance(g, Element):
                    if g.parent != parent:
                        raise ParentMismatch("generator is not in the parent")
                    g = g.coords
                cols.append(g)
            generators = IntMatrix.from_columns(cols,
                                                rows=parent.ambient_rank)
        elif generators.rows != parent.ambient_rank:
            raise ValueError("rows mismatch")
        self.parent = parent
        self.matrix = generators
        self._quotient = None

    @classmethod
    def zero(cls, parent):
        return cls(parent, ())

    @classmethod
    def full(cls, parent):
        return cls(parent, IntMatrix.identity(parent.ambient_rank))

    @property
    def generators(self):
        return tuple(Element(self.parent, c) for c in self.matrix.columns())

    def _quotient_group(self):
        # parent / self, built once
        if self._quotient is None:
            p = self.parent
            self._quotient = FpGroup(p.modulus, p.ambient_rank,
                                     self.matrix.hstack(p.relations))
        return self._quotient

    def contains(self, elt):
        if elt.parent != self.parent:
            raise ParentMismatch("element is not in the parent group")
        return self._quotient_group()._kills([elt.coords])

    def __contains__(self, elt):
        return self.contains(elt)

    def includes(self, other):
        """Whether other is a subgroup of self (generator by generator)."""
        if other.parent != self.parent:
            raise ParentMismatch("subgroups of different groups")
        return self._quotient_group()._kills(other.matrix.columns())

    def is_zero(self):
        return self.parent._kills(self.matrix.columns())

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        if other.parent != self.parent:
            return False
        return self.includes(other) and other.includes(self)

    __hash__ = None

    def __repr__(self):
        return "Subgroup(%d generators)" % self.matrix.cols


def _span(parent, matrix):
    """The subgroup of parent generated by the columns of matrix that are
    nonzero in it."""
    return Subgroup(parent, matrix.take(cols=[
        j for j, c in enumerate(matrix.columns()) if any(parent.reduce(c))]))


def _seed(group, basis):
    """Keep `basis`, a Howell basis modulo group's modulus m of the lattice
    that group's relations and m*Z^r span, as group's echelon; over Z
    (m = 0) the echelon stays lazy."""
    if group.modulus:
        group._echelon = (basis.to_lists(),
                          [(i, i) for i in range(basis.cols)])
    return group


def _push(subgroup, f):
    """Image of a subgroup under a morphism, as a subgroup of the target."""
    return _span(f.target, f.matrix @ subgroup.matrix)


def kernel_image(f):
    """(kernel, image) of a morphism, as subgroups of source and target.

    The kernel generators span the full preimage of the target relation
    lattice: every x with f(x) == 0 appears, including the source relations
    themselves (which are then zero as elements).  The pair is built once
    per morphism and memoised on it, so every later call returns the same
    two subgroup objects: callers must not change them, and a morphism
    must not be changed once its pair has been asked for.  Over Z/m the
    kernel's quotient group is seeded with the kernel basis when f is well
    defined, which is when the source relations lie in the kernel lattice.
    """
    if f._kernel_image is None:
        m = f.target.modulus
        ker = kernel_basis(f.matrix, m, f.target.relations)
        kernel = _span(f.source, ker)
        if m and m == f.source.modulus and f.is_well_defined():
            _seed(kernel._quotient_group(), ker)
        f._kernel_image = (kernel, _span(f.target, f.matrix))
    return f._kernel_image


class Homology:
    """numerator / denominator for subgroups denominator <= numerator of
    `parent`: the one subquotient type of the package.

    `owner` is the complex or the grid and `index` the degree or the
    bidegree; both are None for a bare subquotient.  For a complex the
    quotient is cycles over boundaries; for a grid it is the core
    invariant, Z' ∩ Z'' over d'(Z'') or d''(Z').  The ambient generators
    of `group` are the numerator's generator columns, so `representative`
    applies the numerator matrix to a class and `project` solves it back.
    """

    __slots__ = ("owner", "index", "parent", "numerator", "denominator",
                 "group")

    def __init__(self, owner, index, numerator, denominator, group):
        self.owner = owner
        self.index = index
        self.parent = numerator.parent
        self.numerator = numerator
        self.denominator = denominator
        self.group = group

    def class_of(self, representative):
        return HClass(self, representative)

    def project(self, elt):
        """The class in `group` of a parent element lying in the numerator."""
        if elt.parent != self.parent:
            raise ParentMismatch("element is not in the ambient group")
        return Element(self.group, self._classes([elt.coords])[0])

    def _classes(self, columns):
        """`project` on coordinate columns: their class coordinates."""
        classes = _solve(self.numerator.matrix, columns, self.parent, "class")
        if classes is None:
            raise NotContained("element is outside the numerator subgroup")
        return classes

    def representative(self, class_elt):
        """A numerator element representing an element of `group`."""
        if class_elt.parent != self.group:
            raise ParentMismatch("element is not a class of this subquotient")
        return Element(self.parent,
                       self.numerator.matrix.mul_vector(class_elt.coords))

    def zero_class(self):
        return HClass(self, self.parent.zero())

    def _same_site(self, other):
        if self.owner is None:
            return self is other
        return self.owner is other.owner and self.index == other.index


class HClass:
    """A class of a Homology, carried by a representative in its numerator:
    a cycle of a complex, or an element of Z' ∩ Z'' of a grid."""

    __slots__ = ("homology", "representative")

    def __init__(self, homology, representative):
        if representative.parent != homology.parent:
            raise ParentMismatch("representative lives in the wrong cell")
        if not homology.numerator.contains(representative):
            raise NotContained("representative is outside the numerator")
        self.homology = homology
        self.representative = representative

    def value(self):
        """The class as an element of the homology group."""
        return self.homology.project(self.representative)

    def is_zero(self):
        return self.homology.denominator.contains(self.representative)

    def _check_peer(self, other):
        if not isinstance(other, HClass) or \
                not self.homology._same_site(other.homology):
            raise ParentMismatch("classes from different homology sites")

    def __add__(self, other):
        self._check_peer(other)
        return HClass(self.homology,
                      self.representative + other.representative)

    def __sub__(self, other):
        self._check_peer(other)
        return HClass(self.homology,
                      self.representative - other.representative)

    def __neg__(self):
        return HClass(self.homology, -self.representative)

    def __eq__(self, other):
        if not isinstance(other, HClass) or \
                not self.homology._same_site(other.homology):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        return "HClass(%r, rep=%r)" % (self.homology.index,
                                       self.representative)


def subquotient(parent, num, den, owner=None, index=None):
    """The Homology num/den for subgroups den <= num of parent, at the site
    (owner, index) when one is given.

    Ambient generators of its group are num's generators; relations are
    every integer combination of them that lands in den plus the parent
    relations.  project/representative invert one another up to den, and
    representative(project(x)) == x holds in the parent.
    """
    _check_nested(parent, num, den)
    t = num.matrix.cols
    m = parent.modulus
    rels = kernel_basis(num.matrix, m, den.matrix.hstack(parent.relations))
    # a Howell pivot m marks the column m*e_j, which the modulus imposes
    group = _seed(FpGroup(m, t, rels.take(cols=[
        j for j in range(rels.cols) if not (m and rels[(j, j)] == m)])), rels)
    return Homology(owner, index, num, den, group)


def _check_nested(parent, num, den):
    if num.parent != parent or den.parent != parent:
        raise ParentMismatch("subgroups of a different group")
    if not num.includes(den):
        raise NotContained("denominator is not inside the numerator")


def ker_mod_im(out, into, owner=None, index=None):
    """The Homology ker(out) / im(into) at the cell out leaves and into
    enters, at the site (owner, index) when one is given.

    Over Z/m it first counts: im(into) is src(into) / ker(into), so with
    B = im(into) inside Z = ker(out) the quotient vanishes exactly when
    |cell| == |cell / Z| * |src(into) / ker(into)|.  All three orders are
    read off echelons that `kernel_image` has cached or seeded.  A
    vanishing quotient gets the zero group on Z's generators, relations
    and echelon the identity, with no kernel basis built; B <= Z is still
    checked.  Any other quotient, and every one over Z, is built by
    `subquotient`.
    """
    cell = out.source
    (z, _), (into_ker, b) = kernel_image(out), kernel_image(into)
    m = cell.modulus
    if m and into.source.modulus == m and cell.order() == (
            z._quotient_group().order() * into_ker._quotient_group().order()):
        _check_nested(cell, z, b)
        eye = IntMatrix.identity(z.matrix.cols)
        return Homology(owner, index, z, b,
                        _seed(FpGroup(m, eye.cols, eye), eye))
    return subquotient(cell, z, b, owner, index)


def _cyclic_matrix(f):
    """The matrix of a morphism in the cyclic coordinates of its ends."""
    return (f.target.cyclic_decomposition().to_cyclic @ f.matrix
            @ f.source.cyclic_decomposition().from_cyclic)


class _PairGroup:
    """A bifunctor's value on (source, target): one cyclic component per
    pair (i, j) of cyclic summands, of the (order, scale) that the
    subclass's `_component(a, b)` gives for their orders; its generator is
    scale times the (i, j) unit.  Components of order 1 are dropped.
    """

    __slots__ = ("source", "target", "group", "_pairs", "_scales")

    def __init__(self, source, target):
        modulus = _shared_modulus(source, target)
        s_orders = source.cyclic_decomposition().orders
        t_orders = target.cyclic_decomposition().orders
        pairs, orders, scales = [], [], []
        for i, a in enumerate(s_orders):
            for j, b in enumerate(t_orders):
                o, s = self._component(a, b)
                if o != 1:
                    pairs.append((i, j))
                    orders.append(o)
                    scales.append(s)
        self.source = source
        self.target = target
        self.group = FpGroup(modulus, len(pairs), IntMatrix.diagonal(orders))
        self._pairs = tuple(pairs)
        self._scales = tuple(scales)


class HomGroup(_PairGroup):
    """Hom(source, target) as an FpGroup with a realize/element_of pair.

    Component rule: the pair of orders (a, b) gives order gcd(a, b) and
    scale b/gcd(a, b), so Hom(Z/a, Z/b) is generated by 1 |-> b/gcd(a, b)
    and Hom(Z, H) is H; Hom(Z/a, Z) vanishes for a > 0 (order 1).
    """

    __slots__ = ()

    @staticmethod
    def _component(a, b):
        o = gcd(a, b) if b or not a else 1
        return o, (b // o if b else 1)

    def realize(self, elt):
        """The homomorphism source -> target that an element encodes."""
        if elt.parent != self.group:
            raise ParentMismatch("element is not in this hom group")
        s_form = self.source.cyclic_decomposition()
        t_form = self.target.cyclic_decomposition()
        ks, kt = len(s_form.orders), len(t_form.orders)
        body = [[0] * ks for _ in range(kt)]
        for v, (i, j), s in zip(elt.coords, self._pairs, self._scales):
            body[j][i] += s * v
        mat = (t_form.from_cyclic @ IntMatrix(body, cols=ks)
               @ s_form.to_cyclic)
        return Morphism(self.source, self.target, mat)

    def element_of(self, f):
        """Inverse of realize on well-defined morphisms source -> target."""
        if f.source != self.source or f.target != self.target:
            raise ParentMismatch("morphism endpoints do not match")
        body = _cyclic_matrix(f)
        coords = []
        for (i, j), s in zip(self._pairs, self._scales):
            # well-definedness of f forces exact divisibility by the scale
            q, r = divmod(body[(j, i)], s)
            if r:
                raise IllDefined("morphism does not respect the relations")
            coords.append(q)
        return Element(self.group, coords)


hom_group = HomGroup


def _induced_map(src, dst, left, right, factors):
    """The morphism src.group -> dst.group of a map of pair groups.

    left[i][i2] is the entry, in cyclic coordinates, of the first factor
    map between summand i of src's first factor and summand i2 of dst's,
    and right[j][j2] the same for the second factor.  Generator (i, j) of
    scale s goes to s * right[j][j2] * left[i][i2] / s2 at each target
    pair (i2, j2) of scale s2.  Only the nonzero entries of left[i] and
    right[j] are visited, so a Kronecker product costs its nonzero
    entries, and each entry is reduced mod a positive modulus as it is
    written.  Both factor maps are well defined (checked first), so s2
    divides s * b * a; `test_induced_maps_match_the_per_generator_definition`
    covers this through `element_of`'s own divisibility check.

    The product is well defined when both factor maps are
    (functoriality).  So the two maps in `factors` answer their memoised
    `is_well_defined` at factor size, an ill-defined one raises
    IllDefined, and the product is built with the answer True instead of
    being checked again at grid size.
    """
    if not all(f.is_well_defined() for f in factors):
        raise IllDefined("morphism does not respect the relations")
    m = dst.group.modulus
    index = {pair: (k, s2)
             for k, (pair, s2) in enumerate(zip(dst._pairs, dst._scales))}
    lefts = [[(i2, e) for i2, e in enumerate(col) if e] for col in left]
    rights = [[(j2, e) for j2, e in enumerate(col) if e] for col in right]
    cols = []
    for (i, j), s in zip(src._pairs, src._scales):
        col = [0] * len(index)
        for i2, a in lefts[i]:
            for j2, b in rights[j]:
                hit = index.get((i2, j2))
                if hit is not None:
                    k, s2 = hit
                    q = s * b * a // s2
                    col[k] = q % m if m else q
        cols.append(col)
    return Morphism(src.group, dst.group,
                    IntMatrix.from_columns(cols, rows=len(index)), True)


def induced_hom_map(src_hom, dst_hom, precompose=None, postcompose=None):
    """phi |-> postcompose . phi . precompose between two hom groups.

    precompose: dst_hom.source -> src_hom.source (None for identity);
    postcompose: src_hom.target -> dst_hom.target (None for identity).
    IllDefined when either is not well defined.
    """
    if precompose is None:
        precompose = Morphism.identity(src_hom.source)
    if postcompose is None:
        postcompose = Morphism.identity(src_hom.target)
    if precompose.source != dst_hom.source or \
            precompose.target != src_hom.source:
        raise ParentMismatch("precomposition map endpoints do not match")
    if postcompose.source != src_hom.target or \
            postcompose.target != dst_hom.target:
        raise ParentMismatch("postcomposition map endpoints do not match")
    # precomposition runs against the source summands: read it transposed
    return _induced_map(src_hom, dst_hom,
                        _cyclic_matrix(precompose).to_lists(),
                        _cyclic_matrix(postcompose).columns(),
                        (precompose, postcompose))


class TensorGroup(_PairGroup):
    """source (x) target as an FpGroup with the bilinear `pure` map.

    Component rule: the pair of orders (a, b) gives order gcd(a, b), with
    gcd(0, 0) = 0, and scale 1; the (i, j) coordinate of pure(x, y) is the
    product of the i-th and j-th cyclic coordinates.
    """

    __slots__ = ()

    @staticmethod
    def _component(a, b):
        return gcd(a, b), 1

    def pure(self, x, y):
        """The elementary tensor x (x) y."""
        if x.parent != self.source or y.parent != self.target:
            raise ParentMismatch("factors are not in the tensor's factors")
        xc = self.source.cyclic_decomposition().to_cyclic.mul_vector(x.coords)
        yc = self.target.cyclic_decomposition().to_cyclic.mul_vector(y.coords)
        return Element(self.group, [xc[i] * yc[j] for (i, j) in self._pairs])


tensor_group = TensorGroup


def induced_tensor_map(src_tensor, dst_tensor, f, g):
    """f (x) g between tensor groups: pure(x, y) |-> pure(f(x), g(y));
    IllDefined when f or g is not well defined."""
    if f.source != src_tensor.source or f.target != dst_tensor.source:
        raise ParentMismatch("left factor map endpoints do not match")
    if g.source != src_tensor.target or g.target != dst_tensor.target:
        raise ParentMismatch("right factor map endpoints do not match")
    return _induced_map(src_tensor, dst_tensor, _cyclic_matrix(f).columns(),
                        _cyclic_matrix(g).columns(), (f, g))


def intersect(s1, s2):
    """The subgroup s1 ∩ s2 of their shared parent."""
    if s1.parent != s2.parent:
        raise ParentMismatch("subgroups of different groups")
    rel, m = s1.parent.relations, s1.parent.modulus
    meet = lattice_intersect(s1.matrix.hstack(rel), s2.matrix.hstack(rel), m)
    both = _span(s1.parent, meet)
    _seed(both._quotient_group(), meet)
    return both


def preimage_element(f, target_elt):
    """Some x with f(x) == target_elt, or None when none exists."""
    if target_elt.parent != f.target:
        raise ParentMismatch("element is not in the morphism's target")
    sol = _solve(f.matrix, [target_elt.coords], f.target, "preimage")
    return None if sol is None else Element(f.source, sol[0])


def _solve(matrix, columns, group, what):
    """One x per coordinate column c with matrix @ x == c in `group`, as a
    list of coordinate tuples, or None when some column has no solution."""
    sols = [solve_mod(matrix, c, group.modulus, group.relations)
            for c in columns]
    if None in sols:
        return None
    # the only check on the solver's witnesses that does not share its code
    if not group._kills([tuple(a - b for a, b in zip(matrix.mul_vector(x), c))
                         for x, c in zip(sols, columns)]):
        raise InternalChaseFailure("solve_mod returned a wrong " + what)
    return sols


def direct_sum(g, h):
    """(G ⊕ H, (inject_g, inject_h), (project_g, project_h))."""
    if g.modulus != h.modulus:
        raise ValueError("direct summands must share a modulus")
    rg, rh = g.ambient_rank, h.ambient_rank
    top = g.relations.hstack(IntMatrix.zeros(rg, h.relations.cols))
    bot = IntMatrix.zeros(rh, g.relations.cols).hstack(h.relations)
    total = FpGroup(g.modulus, rg + rh, top.vstack(bot))
    eye_g = IntMatrix.identity(rg)
    eye_h = IntMatrix.identity(rh)
    inj_g = Morphism(g, total, eye_g.vstack(IntMatrix.zeros(rh, rg)))
    inj_h = Morphism(h, total, IntMatrix.zeros(rg, rh).vstack(eye_h))
    proj_g = Morphism(total, g, eye_g.hstack(IntMatrix.zeros(rg, rh)))
    proj_h = Morphism(total, h, IntMatrix.zeros(rh, rg).hstack(eye_h))
    return total, (inj_g, inj_h), (proj_g, proj_h)


def invert_isomorphism(f):
    """The two-sided inverse of an isomorphism; NotAnIsomorphism otherwise."""
    cols = _solve(f.matrix, backend.identity(f.target.ambient_rank), f.target,
                  "preimage")
    if cols is None:
        raise NotAnIsomorphism("morphism is not surjective")
    back = IntMatrix.from_columns(cols, rows=f.source.ambient_rank)
    g = Morphism(f.target, f.source, back)
    if not g.is_well_defined():
        raise NotAnIsomorphism("morphism is not injective")
    # f.g = 1 holds already: _solve checked each residual f(x_k) - e_k
    if g.compose(f) != Morphism.identity(f.source):
        raise NotAnIsomorphism("morphism is not an isomorphism")
    return g
