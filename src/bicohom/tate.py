"""Stable (hat) Ext and Tor over Z/m, each by two independent routes.

Ext route one resolves the first argument completely and applies Hom(-, N);
route two resolves the second and applies Hom(M, -).  Both yield 2-periodic
cohomological complexes, and the groups H^n agree -- that agreement is
computed here per degree, never assumed.  Tor mirrors this with tensor
functors and homological indexing; a lower index n corresponds to the upper
index -n, which is also where the tensor grid's corners sit.

`ROUTES` names each kind's two routes, the first being the one a
single-route query uses.  `tate_groups` is the one route body: route k
reads P of the module (k = 0) or E (Ext) or Q (Tor) of the other (k = 1),
built by `_resolution` unless passed in, applies that route's functor
once, and reads every requested degree off the one complex through the
`homology` memo.  `tate_ext` and `tate_tor` fix its kind.

The balance report builds P and E or Q once each.  Route one reads only P
and route two only E or Q, so the routes still share nothing, and the
kind's Hom or tensor grid (`balance_grid`) is built on the same pair.  The
builders are deterministic, so a fault in one was always common to routes
and grid; sharing makes it one object instead of two equal ones.  The
report reads the grid's core invariant at the two corner bidegrees (n, 0)
and (0, n) (negated for Tor), and walks one corner to the other with
repeated diagonal shifts, checking that the induced map is an
isomorphism.  The walk moves the source core's cyclic generators one
chase step per diagonal, and decides isomorphism by a well-defined map,
surjectivity and equal order, which suffice for finite groups.  The grid
is 2-periodic with cores memoised per canonical site, so the walks of
degrees of one parity and sign share a prefix, and the report chases
each step once: linear in the largest |n|, not in the sum of all |n|.
Each degree still builds its own walk map and is decided on its own.
Every comparison is by invariant factors except the walk, which
exercises the explicit chase.  Degree rows are sorted and unique, so the
report is deterministic.
"""

from .abgroup import FpGroup, _solve, morphism_from_images
from .bicomplexes import _chase, core_homology
from .complexes import (COHOMOLOGICAL, HOMOLOGICAL, hom_from_module,
                        hom_into_module, homology, module_tensor_with,
                        tensor_with_module)
from .constructions import (_zm_factors, complete_resolution, hom_bicomplex,
                            tensor_bicomplex)
from .errors import IllDefined, InternalChaseFailure, NotContained

VIA_PROJECTIVE = "via_projective"
VIA_INJECTIVE = "via_injective"
RESOLVE_LEFT = "resolve_left"
RESOLVE_RIGHT = "resolve_right"

EXT = "ext"
TOR = "tor"

ROUTES = {EXT: (VIA_PROJECTIVE, VIA_INJECTIVE),
          TOR: (RESOLVE_LEFT, RESOLVE_RIGHT)}


def _routes(kind):
    try:
        return ROUTES[kind]
    except KeyError:
        raise ValueError("kind must be %r or %r" % (EXT, TOR)) from None


def _resolution(m, module, other, kind, k):
    """The complete resolution route k of `kind` applies its functor to: P
    of `module` for k = 0, E (Ext) or Q (Tor) of `other` for k = 1.  No
    caller here reads a Z_0 witness, so none is built."""
    if k == 0:
        return complete_resolution(m, module, HOMOLOGICAL)
    return complete_resolution(
        m, other, COHOMOLOGICAL if kind == EXT else HOMOLOGICAL)


def tate_groups(m, module, other, degrees, kind, route, resolution=None):
    """Stable Ext^n or Tor_n(module, other) over Z/m, as `kind` names, for
    each n in `degrees`, by `route`: a list with one group per entry of
    `degrees`, in order, all read off one build of the route's complex.
    `resolution` is the route's complete resolution (P of `module`, or E
    or Q of `other`), built here when None.  ValueError for an unknown
    kind, then NotAModule for either module, then ValueError for a route
    of another kind."""
    routes = _routes(kind)
    _zm_factors(m, module)
    _zm_factors(m, other)
    if route not in routes:
        raise ValueError("route must be %r or %r" % routes)
    k = routes.index(route)
    if resolution is None:
        resolution = _resolution(m, module, other, kind, k)
    if kind == EXT:
        c = (hom_from_module(module, resolution) if k
             else hom_into_module(resolution, other))
    else:
        c = (module_tensor_with(module, resolution) if k
             else tensor_with_module(resolution, other))
    return [homology(c, n).group for n in degrees]


def tate_ext(m, module, other, degrees, route, resolution=None):
    """`tate_groups` for stable Ext^n(module, other)."""
    return tate_groups(m, module, other, degrees, EXT, route, resolution)


def tate_tor(m, module, other, degrees, route, resolution=None):
    """`tate_groups` for stable Tor_n(module, other)."""
    return tate_groups(m, module, other, degrees, TOR, route, resolution)


def balance_grid(kind, first, second):
    """(grid, sign) for `kind` on the complete resolutions `first` (P of
    the module) and `second` (E or Q of the other): Hom(P, E) and sign 1
    for Ext, P (x) Q and sign -1 for Tor.  Degree n sits at the corners
    (sign * n, 0) and (0, sign * n).  ValueError for an unknown kind."""
    _routes(kind)
    if kind == EXT:
        return hom_bicomplex(first, second), 1
    return tensor_bicomplex(first, second), -1


def _walk_is_isomorphism(x, corner, chains=None):
    """Shift core classes from (corner, 0) to (0, corner); True when the
    induced map on core groups is an isomorphism.

    The source core's cyclic generators move together, one `_chase` step
    per diagonal: a map is fixed by its values on generators.  `chains`
    (fresh when None) maps (source core, direction) to the (core,
    columns) after 0, 1, 2, ... steps; `_chase` is deterministic in its
    arguments, so a walk chases only the steps past its chain's end.  The
    walk map, built from this degree's own step and checked well defined
    against the generators' orders, is an isomorphism exactly when it is
    onto and both core groups have the same order: a surjection between
    finite groups of equal order is a bijection.  An ill-defined map or a
    column off the target numerator is an internal fault, not a failed
    walk.
    """
    direction = "-" if corner >= 0 else "+"
    src = core_homology(x, (corner, 0))
    dst = core_homology(x, (0, corner))
    order = src.group.order()
    if order is None:  # never over Z/m
        raise InternalChaseFailure("core group at (%d, 0) is infinite"
                                   % corner)
    form = src.group.cyclic_decomposition()
    chains = {} if chains is None else chains
    if (src, direction) not in chains:
        chains[src, direction] = [
            (src, (src.numerator.matrix @ form.from_cyclic).columns())]
    chain = chains[src, direction]
    try:
        while len(chain) <= abs(corner):
            chain.append(_chase(*chain[-1], direction))
        walk = morphism_from_images(
            FpGroup.from_factors(src.group.modulus, form.orders),
            dst.group, dst._classes(chain[abs(corner)][1]))
    except (IllDefined, NotContained) as exc:
        raise InternalChaseFailure("walk from (%d, 0) to (0, %d): %s"
                                   % (corner, corner, exc)) from exc
    return order == dst.group.order() and _solve(
        walk.matrix, dst.group.cyclic_decomposition().from_cyclic.columns(),
        dst.group, "preimage") is not None


def balance_report(m, module, other, degrees, kind):
    """Both routes, both grid corners, and the shift walk, per degree.

    P and E (Ext) or Q (Tor) are built once each: route one reads P and
    route two E or Q through `tate_ext` or `tate_tor`, and `balance_grid`
    builds the grid on the pair.  Returns a JSON-ready dict; each degree
    row carries the four groups' invariant factors, whether the walk
    induced an isomorphism, and a combined pass flag (all four isomorphism
    classes equal and walk ok).
    ValueError for an unknown kind or an empty degree set, which would
    pass with nothing checked.
    """
    routes = _routes(kind)
    degrees = sorted(set(degrees))
    if not degrees:
        raise ValueError("no degrees to check")
    resolutions = [_resolution(m, module, other, kind, k) for k in (0, 1)]
    compute = tate_ext if kind == EXT else tate_tor
    groups = [compute(m, module, other, degrees, r, res)
              for r, res in zip(routes, resolutions)]
    grid, sign = balance_grid(kind, *resolutions)
    chains, rows = {}, []
    for n, g1, g2 in zip(degrees, *groups):
        a = sign * n
        first = list(g1.invariant_factors)
        second = list(g2.invariant_factors)
        corner_a = list(core_homology(grid, (a, 0)).group.invariant_factors)
        corner_b = list(core_homology(grid, (0, a)).group.invariant_factors)
        walk_ok = _walk_is_isomorphism(grid, a, chains)
        rows.append({
            "degree": n,
            routes[0]: first,
            routes[1]: second,
            "corner_n0": corner_a,
            "corner_0n": corner_b,
            "shift_walk": "isomorphism" if walk_ok else "failed",
            "pass": (first == second == corner_a == corner_b) and walk_ok,
        })
    return {
        "kind": kind,
        "modulus": m,
        "module": module.describe(),
        "other": other.describe(),
        "index_bridge": "lower index n = upper index -n",
        "degrees": rows,
        "all_pass": all(r["pass"] for r in rows),
    }
