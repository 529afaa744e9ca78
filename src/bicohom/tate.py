"""Stable (hat) Ext and Tor over Z/m, each by two independent routes.

Ext route one resolves the first argument completely and applies Hom(-, N);
route two resolves the second and applies Hom(M, -).  Both yield 2-periodic
cohomological complexes, and the groups H^n agree -- that agreement is
computed here per degree, never assumed.  Tor mirrors this with tensor
functors and homological indexing; a lower index n corresponds to the upper
index -n, which is also where the tensor grid's corners sit.

`ROUTES` names each kind's two routes, the first being the one a
single-route query uses.  One call of `tate_ext` or `tate_tor` builds its
route's complex once, from the route's complete resolution (built there
unless passed in), and reads every requested degree off it through the
`homology` memo.

The balance report builds each complete resolution once: P of the first
argument, and E (Ext) or Q (Tor) of the second.  Route one reads only P
and route two only E or Q, so the routes still share nothing.  The kind's
Hom or tensor grid (`balance_grid`) is built on that same pair; it always
used resolutions equal to the routes' (the builders are deterministic), so
a fault in a builder was already common to routes and grid, and sharing
makes it one object instead of two equal ones.  The report reads the
grid's core invariant at the two corner bidegrees (n, 0) and (0, n)
(negated for Tor), and walks one corner to the other with repeated
diagonal shifts, checking that the induced map is an isomorphism.  The
walk moves the source core's cyclic generators one chase step per
diagonal, and decides isomorphism by a well-defined map, surjectivity and
equal order, which suffice for finite groups.  Every comparison is by
invariant factors except the walk, which exercises the explicit chase.
Degree rows are sorted and unique, so the report is deterministic.
"""

from .abgroup import FpGroup, _solve, morphism_from_images
from .bicomplexes import _chase, core_homology
from .complexes import (hom_from_module, hom_into_module, homology,
                        module_tensor_with, tensor_with_module)
from .constructions import (_zm_factors, complete_injective_resolution,
                            complete_projective_resolution, hom_bicomplex,
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


def _route_resolution(m, module, other, route):
    """The complete resolution `route` applies its functor to: P of
    `module` for the first route of either kind, E (Ext) or Q (Tor) of
    `other` for the second."""
    if route in (VIA_PROJECTIVE, RESOLVE_LEFT):
        return complete_projective_resolution(m, module)[0]
    if route == VIA_INJECTIVE:
        return complete_injective_resolution(m, other)[0]
    return complete_projective_resolution(m, other)[0]


def tate_ext(m, module, other, degrees, route, resolution=None):
    """Stable Ext^n(module, other) over Z/m for each n in `degrees`, by the
    requested route: a list with one group per entry of `degrees`, in
    order, all read off one build of the route's complex.  `resolution`
    is the route's complete resolution (P of `module` or E of `other`),
    built here when None."""
    _zm_factors(m, module)
    _zm_factors(m, other)
    if route not in ROUTES[EXT]:
        raise ValueError("route must be %r or %r" % ROUTES[EXT])
    if resolution is None:
        resolution = _route_resolution(m, module, other, route)
    if route == VIA_PROJECTIVE:
        c = hom_into_module(resolution, other)
    else:
        c = hom_from_module(module, resolution)
    return [homology(c, n).group for n in degrees]


def tate_tor(m, module, other, degrees, route, resolution=None):
    """Stable Tor_n(module, other) over Z/m for each n in `degrees`, by the
    requested route: a list with one group per entry of `degrees`, in
    order, all read off one build of the route's complex.  `resolution`
    is the route's complete resolution (P of `module` or Q of `other`),
    built here when None."""
    _zm_factors(m, module)
    _zm_factors(m, other)
    if route not in ROUTES[TOR]:
        raise ValueError("route must be %r or %r" % ROUTES[TOR])
    if resolution is None:
        resolution = _route_resolution(m, module, other, route)
    if route == RESOLVE_LEFT:
        c = tensor_with_module(resolution, other)
    else:
        c = module_tensor_with(module, resolution)
    return [homology(c, n).group for n in degrees]


def _routes(kind):
    try:
        return ROUTES[kind]
    except KeyError:
        raise ValueError("kind must be %r or %r" % (EXT, TOR)) from None


def tate_groups(m, module, other, degrees, kind, route, resolution=None):
    """`tate_ext` or `tate_tor`, whichever `kind` names; ValueError for
    any other kind."""
    _routes(kind)
    compute = tate_ext if kind == EXT else tate_tor
    return compute(m, module, other, degrees, route, resolution)


def balance_grid(m, module, other, kind, first=None, second=None):
    """(grid, sign) for `kind`: Hom(P, E) and sign 1 for Ext, P (x) Q and
    sign -1 for Tor, with P, Q complete projective resolutions of `module`,
    `other` and E a complete injective one of `other`.  Degree n sits at
    the corners (sign * n, 0) and (0, sign * n).  `first` and `second`,
    when given, stand in for P and for E or Q."""
    routes = _routes(kind)
    if first is None:
        first = _route_resolution(m, module, other, routes[0])
    if second is None:
        second = _route_resolution(m, module, other, routes[1])
    if kind == EXT:
        return hom_bicomplex(first, second), 1
    return tensor_bicomplex(first, second), -1


def _walk_is_isomorphism(x, corner):
    """Shift core classes from (corner, 0) to (0, corner); True when the
    induced map on core groups is an isomorphism.

    The source core's cyclic generators move together, one `_chase` step
    per diagonal: a map is fixed by its values on generators.  The walk
    map, checked well defined against their orders, is an isomorphism
    exactly when it is onto and both core groups have the same order: a
    surjection between finite groups of equal order is a bijection.  An
    ill-defined map or a column off the target numerator is an internal
    fault, not a failed walk.
    """
    direction = "-" if corner >= 0 else "+"
    src = core_homology(x, (corner, 0))
    dst = core_homology(x, (0, corner))
    order = src.group.order()
    if order is None:  # never over Z/m
        raise InternalChaseFailure("core group at (%d, 0) is infinite"
                                   % corner)
    form = src.group.cyclic_decomposition()
    core, columns = src, (src.numerator.matrix @ form.from_cyclic).columns()
    try:
        for _ in range(abs(corner)):
            core, columns = _chase(core, columns, direction)
        walk = morphism_from_images(
            FpGroup.from_factors(src.group.modulus, form.orders),
            dst.group, dst._classes(columns))
    except (IllDefined, NotContained) as exc:
        raise InternalChaseFailure("walk from (%d, 0) to (0, %d): %s"
                                   % (corner, corner, exc)) from exc
    return order == dst.group.order() and _solve(
        walk.matrix, dst.group.cyclic_decomposition().from_cyclic.columns(),
        dst.group, "preimage") is not None


def _factors(group):
    return list(group.invariant_factors)


def balance_report(m, module, other, degrees, kind):
    """Both routes, both grid corners, and the shift walk, per degree.

    P and E (Ext) or Q (Tor) are built once each: route one reads P, route
    two E or Q, and the grid is built on the pair.  Returns a JSON-ready
    dict; each degree row carries the four groups' invariant factors,
    whether the walk induced an isomorphism, and a combined pass flag (all
    four isomorphism classes equal and walk ok).
    ValueError for an unknown kind or an empty degree set, which would
    pass with nothing checked.
    """
    routes = _routes(kind)
    degrees = sorted(set(degrees))
    if not degrees:
        raise ValueError("no degrees to check")
    resolutions = [_route_resolution(m, module, other, r) for r in routes]
    groups = [tate_groups(m, module, other, degrees, kind, r, res)
              for r, res in zip(routes, resolutions)]
    grid, sign = balance_grid(m, module, other, kind, *resolutions)
    rows = []
    for n, g1, g2 in zip(degrees, *groups):
        a = sign * n
        first, second = _factors(g1), _factors(g2)
        corner_a = _factors(core_homology(grid, (a, 0)).group)
        corner_b = _factors(core_homology(grid, (0, a)).group)
        walk_ok = _walk_is_isomorphism(grid, a)
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
