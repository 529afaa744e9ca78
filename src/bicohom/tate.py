"""Stable (hat) Ext and Tor over Z/m, each by two independent routes.

Ext route one resolves the first argument completely and applies Hom(-, N);
route two resolves the second and applies Hom(M, -).  Both yield 2-periodic
cohomological complexes, and the groups H^n agree -- that agreement is
computed here per degree, never assumed.  Tor mirrors this with tensor
functors and homological indexing; a lower index n corresponds to the upper
index -n, which is also where the tensor grid's corners sit.

The balance report additionally builds the full Hom or tensor grid, reads
its core invariant at the two corner bidegrees (n, 0) and (0, n) (negated
for Tor), and walks one corner to the other with repeated diagonal shifts,
checking that the induced map is an isomorphism.  Every comparison is by
invariant factors except the walk, which exercises the explicit chase.
Degree rows are computed independently and merged sorted, so the report is
deterministic.
"""

from .abgroup import invert_isomorphism, morphism_from_images
from .bicomplexes import core_homology, diagonal_shift
from .complexes import (hom_from_module, hom_into_module, homology,
                        module_tensor_with, tensor_with_module)
from .constructions import (_zm_factors, complete_injective_resolution,
                            complete_projective_resolution, hom_bicomplex,
                            tensor_bicomplex)

VIA_PROJECTIVE = "via_projective"
VIA_INJECTIVE = "via_injective"
RESOLVE_LEFT = "resolve_left"
RESOLVE_RIGHT = "resolve_right"

EXT = "ext"
TOR = "tor"


def tate_ext(m, module, other, n, route):
    """Stable Ext^n(module, other) over Z/m by the requested route."""
    _zm_factors(m, module)
    _zm_factors(m, other)
    if route == VIA_PROJECTIVE:
        p, _ = complete_projective_resolution(m, module)
        return homology(hom_into_module(p, other), n).group
    if route == VIA_INJECTIVE:
        e, _ = complete_injective_resolution(m, other)
        return homology(hom_from_module(module, e), n).group
    raise ValueError("route must be %r or %r" % (VIA_PROJECTIVE,
                                                 VIA_INJECTIVE))


def tate_tor(m, module, other, n, route):
    """Stable Tor_n(module, other) over Z/m by the requested route."""
    _zm_factors(m, module)
    _zm_factors(m, other)
    if route == RESOLVE_LEFT:
        c, _ = complete_projective_resolution(m, module)
        return homology(tensor_with_module(c, other), n).group
    if route == RESOLVE_RIGHT:
        d, _ = complete_projective_resolution(m, other)
        return homology(module_tensor_with(module, d), n).group
    raise ValueError("route must be %r or %r" % (RESOLVE_LEFT,
                                                 RESOLVE_RIGHT))


def _walk_is_isomorphism(x, corner):
    """Shift core classes from (corner, 0) to (0, corner); True when the
    induced map on core groups is an isomorphism."""
    direction = "-" if corner >= 0 else "+"
    src = core_homology(x, (corner, 0))
    dst = core_homology(x, (0, corner))
    cols = []
    for g in src.group.generators():
        cls = src.class_of(src.representative(g))
        for _ in range(abs(corner)):
            cls = diagonal_shift(cls, direction)
        cols.append(dst.project(cls.representative).coords)
    walk = morphism_from_images(src.group, dst.group, cols)
    try:
        invert_isomorphism(walk)
    except ValueError:
        return False
    return True


def _factors(group):
    return list(group.invariant_factors)


def balance_report(m, module, other, degrees, kind):
    """Both routes, both grid corners, and the shift walk, per degree.

    Returns a JSON-ready dict; each degree row carries the four groups'
    invariant factors, whether the walk induced an isomorphism, and a
    combined pass flag (all four isomorphism classes equal and walk ok).
    """
    _zm_factors(m, module)
    _zm_factors(m, other)
    if kind == EXT:
        routes = (VIA_PROJECTIVE, VIA_INJECTIVE)
        compute = tate_ext
        p, _ = complete_projective_resolution(m, module)
        e, _ = complete_injective_resolution(m, other)
        grid = hom_bicomplex(p, e)
        corner_of = lambda n: n
    elif kind == TOR:
        routes = (RESOLVE_LEFT, RESOLVE_RIGHT)
        compute = tate_tor
        c, _ = complete_projective_resolution(m, module)
        d, _ = complete_projective_resolution(m, other)
        grid = tensor_bicomplex(c, d)
        # lower index n sits at upper index -n, where the corners live
        corner_of = lambda n: -n
    else:
        raise ValueError("kind must be %r or %r" % (EXT, TOR))
    rows = []
    for n in sorted(set(degrees)):
        a = corner_of(n)
        first = _factors(compute(m, module, other, n, routes[0]))
        second = _factors(compute(m, module, other, n, routes[1]))
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
