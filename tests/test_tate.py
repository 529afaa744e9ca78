"""Stable Ext/Tor routes, balance reports, and the corner walk.

Expected values come from an independent oracle: a 2-periodic complex of
cyclic groups Z/k with multiplication differentials has homology of order
gcd(out, k) * gcd(in, k) / k at each degree, computed here with plain
integer arithmetic before the package routes are consulted.
"""

import json
from math import gcd

import pytest

from bicohom.abgroup import FpGroup
from bicohom.bicomplexes import core_homology
from bicohom.constructions import (complete_injective_resolution,
                                   complete_projective_resolution,
                                   hom_bicomplex)
from bicohom.errors import (IllDefined, InternalChaseFailure, NotAModule,
                            NotContained)
from bicohom import abgroup, bicomplexes, cli, constructions, snf, tate
from bicohom.tate import (EXT, RESOLVE_LEFT, RESOLVE_RIGHT, TOR,
                          VIA_INJECTIVE, VIA_PROJECTIVE, balance_grid,
                          balance_report, tate_ext, tate_groups, tate_tor)
from helpers import invariant_factors_oracle

DEGREES = range(-3, 4)


def cyclic_h_order(k, incoming, outgoing):
    """|ker(*outgoing)| / |im(*incoming)| on Z/k, by gcd arithmetic."""
    if k == 0:
        raise ValueError("finite cyclic order required")
    return gcd(outgoing % k, k) * gcd(incoming % k, k) // k


def z(m, *factors):
    return FpGroup.from_factors(m, list(factors))


def test_ext_m4_z2_z2_is_z2_everywhere():
    # Hom(Z/4, Z/2) is Z/2 and both induced multipliers are 2 = 0 mod 2
    assert cyclic_h_order(2, 2, 2) == 2
    m = 4
    a, b = z(m, 2), z(m, 2)
    for n in DEGREES:
        for route in (VIA_PROJECTIVE, VIA_INJECTIVE):
            assert tate_ext(m, a, b, [n], route)[0].invariant_factors == (2,)


def test_ext_vanishes_when_either_side_is_free():
    m = 4
    free = FpGroup.free(m, 1)
    small = z(m, 2)
    # Hom(Z/4, Z/4) with multipliers 2, 2 is already acyclic: 2*2 = 4 = 0
    assert cyclic_h_order(4, 2, 2) == 1
    for n in DEGREES:
        for route in (VIA_PROJECTIVE, VIA_INJECTIVE):
            assert tate_ext(m, free, small, [n], route)[0].is_trivial()
            assert tate_ext(m, small, free, [n], route)[0].is_trivial()
            assert tate_ext(m, free, free, [n], route)[0].is_trivial()


def test_ext_m9_z3_z3():
    assert cyclic_h_order(3, 3, 3) == 3
    m = 9
    a, b = z(m, 3), z(m, 3)
    for n in DEGREES:
        for route in (VIA_PROJECTIVE, VIA_INJECTIVE):
            assert tate_ext(m, a, b, [n], route)[0].invariant_factors == (3,)


def test_ext_mixed_moduli_m8():
    # Hom(Z/8-strand 2/4, Z/4): multipliers 2 and 0 on Z/4, order 2 at
    # both parities
    assert cyclic_h_order(4, 0, 2) == 2
    assert cyclic_h_order(4, 2, 0) == 2
    m = 8
    a, b = z(m, 2), z(m, 4)
    for n in DEGREES:
        for route in (VIA_PROJECTIVE, VIA_INJECTIVE):
            assert tate_ext(m, a, b, [n], route)[0].invariant_factors == (2,)


def test_ext_periodicity_two():
    m = 9
    a, b = z(m, 3), z(m, 3)
    for route in (VIA_PROJECTIVE, VIA_INJECTIVE):
        for n in range(-2, 2):
            assert (tate_ext(m, a, b, [n], route)[0].invariant_factors
                    == tate_ext(m, a, b, [n + 2], route)[0].invariant_factors)


def test_tor_m4_z2_z2_is_z2_everywhere():
    # Z/4-strand tensor Z/2: cells Z/2, multipliers 2 = 0
    assert cyclic_h_order(2, 2, 2) == 2
    m = 4
    a, b = z(m, 2), z(m, 2)
    for n in DEGREES:
        for route in (RESOLVE_LEFT, RESOLVE_RIGHT):
            assert tate_tor(m, a, b, [n], route)[0].invariant_factors == (2,)


def test_tor_vanishes_when_either_side_is_free():
    m = 4
    free = FpGroup.free(m, 2)
    small = z(m, 2)
    for n in DEGREES:
        for route in (RESOLVE_LEFT, RESOLVE_RIGHT):
            assert tate_tor(m, free, small, [n], route)[0].is_trivial()
            assert tate_tor(m, small, free, [n], route)[0].is_trivial()


def test_tor_coprime_factors_vanish():
    # strand 2/3 tensor Z/3: multiplier 2 is invertible mod 3
    assert cyclic_h_order(3, 3, 2) == 1
    assert cyclic_h_order(3, 2, 3) == 1
    m = 6
    a, b = z(m, 2), z(m, 3)
    for n in DEGREES:
        for route in (RESOLVE_LEFT, RESOLVE_RIGHT):
            assert tate_tor(m, a, b, [n], route)[0].is_trivial()


def test_route_tokens_validated():
    m = 4
    a = z(m, 2)
    with pytest.raises(ValueError):
        tate_ext(m, a, a, [0], "sideways")
    with pytest.raises(ValueError):
        tate_tor(m, a, a, [0], VIA_PROJECTIVE)
    with pytest.raises(ValueError):
        balance_report(m, a, a, [0], "both")
    with pytest.raises(ValueError):
        tate_groups(m, a, a, [0], "both", VIA_PROJECTIVE)
    p, _ = complete_projective_resolution(m, a)
    with pytest.raises(ValueError):
        balance_grid("both", p, p)
    # an empty degree set would pass with nothing checked
    with pytest.raises(ValueError, match="no degrees"):
        balance_report(m, a, a, [], EXT)


def test_one_call_reads_every_degree_in_order():
    m = 8
    a, b = z(m, 2, 4), z(m, 4)
    degrees = [2, -1, 0, 2, -3]
    for compute, kind in ((tate_ext, EXT), (tate_tor, TOR)):
        for route in tate.ROUTES[kind]:
            together = compute(m, a, b, degrees, route)
            alone = [compute(m, a, b, [n], route)[0] for n in degrees]
            assert ([g.invariant_factors for g in together]
                    == [g.invariant_factors for g in alone])
            assert all(g.invariant_factors for g in together)
            assert compute(m, a, b, [], route) == []


@pytest.mark.parametrize("m,kind,builders", [
    (8, EXT, ("hom_into_module", "hom_from_module")),
    (12, TOR, ("tensor_with_module", "module_tensor_with")),
])
def test_balance_report_builds_each_route_complex_once(m, kind, builders,
                                                       monkeypatch):
    calls = dict.fromkeys(builders, 0)
    for name in builders:
        def counted(*args, _name=name, _real=getattr(tate, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(tate, name, counted)
    report = balance_report(m, z(m, 2, m // 2), z(m, 4), DEGREES, kind)
    assert report["all_pass"] is True
    assert [row["degree"] for row in report["degrees"]] == list(DEGREES)
    assert calls == dict.fromkeys(builders, 1)


@pytest.mark.parametrize("m,kind,functors", [
    (8, EXT, ("hom_into_module", "hom_from_module", "hom_bicomplex")),
    (12, TOR, ("tensor_with_module", "module_tensor_with",
               "tensor_bicomplex")),
])
def test_balance_report_resolves_each_argument_once(m, kind, functors,
                                                    monkeypatch):
    # one build per argument, shared by its route and the grid: 2 builds
    # per report, where building for the routes and grid apart made 4;
    # and no Z_0 witness, which nothing in a report reads
    built, used, witnesses = [], {}, []
    monkeypatch.setattr(constructions, "_cycle_witness",
                        lambda *args: witnesses.append(args))

    def count(name, record):
        real = getattr(tate, name)

        def counting(*args):
            got = real(*args)
            record(name, args, got)
            return got
        monkeypatch.setattr(tate, name, counting)

    count("complete_resolution", lambda name, args, got: built.append(got))
    for name in functors:
        count(name, lambda name, args, got: used.setdefault(name, args))
    report = balance_report(m, z(m, 2, m // 2), z(m, 4), DEGREES, kind)
    assert report["all_pass"] is True
    assert len(built) == 2 and witnesses == []
    p, second = built
    route_one, route_two, grid = (used[name] for name in functors)
    assert route_one[0] is p and grid[0] is p
    assert route_two[1] is second and grid[1] is second
    assert p is not second


def test_balance_report_echelonizes_each_solve_matrix_once(monkeypatch):
    # count-based guard on solve_mod's kept echelon: one build per distinct
    # (matrix object, modulus, relations) the group layer solves against
    held, keys, builds, solving = [], set(), [0], [False]
    real_solve, real_echelon = abgroup.solve_mod, snf._preimage_echelon

    def solve(a, b, m=0, relations=None):
        held.append(a)  # keeps every id(a) distinct while counting
        keys.add((id(a), m, relations))
        solving[0] = True
        try:
            return real_solve(a, b, m, relations)
        finally:
            solving[0] = False

    def echelon(a, m, relations):
        builds[0] += solving[0]
        return real_echelon(a, m, relations)

    monkeypatch.setattr(abgroup, "solve_mod", solve)
    monkeypatch.setattr(snf, "_preimage_echelon", echelon)
    assert balance_report(8, z(8, 2, 4), z(8, 4), range(-1, 2), EXT)[
        "all_pass"] is True
    assert len(held) > 2 * len(keys)  # the walk re-solves against each
    assert builds[0] == len(keys)


def test_walk_fails_only_on_a_non_isomorphism(monkeypatch):
    a = z(4, 2)
    row, = balance_report(4, a, a, [1], EXT)["degrees"]
    assert row["shift_walk"] == "isomorphism" and row["pass"] is True
    real = tate._chase

    def planted(scale):
        def chase(core, columns, direction):
            landing, pushed = real(core, columns, direction)
            return landing, [tuple(scale * e for e in c) for c in pushed]
        return chase

    # the core is Z/2, so 0 and 2 times each pushed column miss its
    # generator: the walk map is not onto
    for scale in (0, 2):
        monkeypatch.setattr(tate, "_chase", planted(scale))
        row, = balance_report(4, a, a, [1], EXT)["degrees"]
        assert row["shift_walk"] == "failed" and row["pass"] is False, scale

    def internal_fault(core, columns, direction):
        raise ValueError("dimension mismatch: 1x2 @ 1x1")

    # an internal fault is not a failed walk: it must stay loud
    monkeypatch.setattr(tate, "_chase", internal_fault)
    with pytest.raises(ValueError, match="dimension mismatch"):
        balance_report(4, a, a, [1], EXT)


def test_walk_needs_equal_finite_orders(monkeypatch):
    # the walk map onto Z/2 is onto; a target of another order makes it no
    # bijection, and an order of None (never so over Z/m) must stop the
    # walk, not pass it
    a = z(4, 2)
    grid, _ = balance_grid(EXT, complete_projective_resolution(4, a)[0],
                           complete_injective_resolution(4, a)[0])
    assert tate._walk_is_isomorphism(grid, 1) is True
    monkeypatch.setattr(core_homology(grid, (0, 1)).group, "order",
                        lambda: 4)
    assert tate._walk_is_isomorphism(grid, 1) is False
    monkeypatch.setattr(core_homology(grid, (1, 0)).group, "order",
                        lambda: None)
    with pytest.raises(InternalChaseFailure,
                       match=r"^core group at \(1, 0\) is infinite$"):
        tate._walk_is_isomorphism(grid, 1)


def test_a_broken_walk_is_an_internal_fault_not_bad_input(monkeypatch):
    # the cores over Z/16 are Z/2 (+) Z/4: swapping the two pushed cyclic
    # generators sends the one of order 2 to an element of order 4, and a
    # pushed column off the target numerator has no class there
    m, a, b = 16, z(16, 2, 4), z(16, 4)
    grid, _ = balance_grid(EXT, complete_projective_resolution(m, a)[0],
                           complete_injective_resolution(m, b)[0])
    assert core_homology(grid, (1, 0)).group.invariant_factors == (2, 4)
    assert tate._walk_is_isomorphism(grid, 1) is True
    real = tate._chase

    def swapped(core, columns, direction):
        landing, pushed = real(core, columns, direction)
        return landing, pushed[::-1]

    def outside(core, columns, direction):
        landing, pushed = real(core, columns, direction)
        return landing, [(1,) + c[1:] for c in pushed]

    argv = ["tate", "--ring", "16", "--module", "2,4", "--other", "4",
            "--kind", "ext", "--range", "1..1", "--both-ways"]
    for plant, cause in ((swapped, IllDefined), (outside, NotContained)):
        monkeypatch.setattr(tate, "_chase", plant)
        with pytest.raises(InternalChaseFailure,
                           match=r"^walk from \(1, 0\) to \(0, 1\): ") as err:
            tate._walk_is_isomorphism(grid, 1)
        assert isinstance(err.value.__cause__, cause)
        with pytest.raises(InternalChaseFailure):
            cli.main(argv)


def _count_walk_work(monkeypatch):
    counts = {}

    def count(module, name):
        real = getattr(module, name)
        counts[name] = 0

        def counting(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counting)

    for name in ("_require_exact", "preimage_element"):
        count(bicomplexes, name)
    count(abgroup, "invert_isomorphism")
    return counts


def test_walk_work_is_per_step_not_per_generator(monkeypatch):
    counts = _count_walk_work(monkeypatch)
    report = balance_report(12, z(12, 2, 6, 4), z(12, 3, 4), DEGREES, TOR)
    assert report["all_pass"] is True
    assert all(row["corner_n0"] == [] for row in report["degrees"])
    # one exactness check per core built and per chase step, and the
    # steps are the longest |n| per (start, direction) chain: 4 + 3+2+3+2;
    # every core is 0, so there is no cyclic generator to solve for, and
    # no inverse of a walk map
    assert counts == {"_require_exact": 14, "preimage_element": 0,
                      "invert_isomorphism": 0}
    assert not hasattr(tate, "invert_isomorphism")


def test_walk_solves_once_per_cyclic_generator_and_step(monkeypatch):
    counts = _count_walk_work(monkeypatch)
    report = balance_report(8, z(8, 2, 4), z(8, 4), DEGREES, EXT)
    assert report["all_pass"] is True
    assert all(row["corner_n0"] == row["corner_0n"] == [2, 2]
               for row in report["degrees"])
    # two cyclic generators, and chase steps the longest |n| per
    # (start, direction) chain: 2 * (3+2+3+2)
    assert counts == {"_require_exact": 14, "preimage_element": 20,
                      "invert_isomorphism": 0}


def _count_chases(monkeypatch):
    calls, real = [0], tate._chase

    def counting(core, columns, direction):
        calls[0] += 1
        return real(core, columns, direction)
    monkeypatch.setattr(tate, "_chase", counting)
    return calls


@pytest.mark.parametrize("m,module,other", [
    (8, (2, 4), (4,)), (9, (3, 9), (3,)), (12, (2, 6), (6,))])
@pytest.mark.parametrize("kind", [EXT, TOR])
def test_shared_walk_prefixes_answer_as_unshared_walks(m, module, other,
                                                       kind, monkeypatch):
    # one chain per parity and direction, chased to its longest |n|:
    # 7+6+7+6 steps at -7..7 and 3+2+3+2 at -3..3, not the sum of all |n|
    a, b = z(m, *module), z(m, *other)
    calls = _count_chases(monkeypatch)
    assert balance_report(m, a, b, DEGREES, kind)["all_pass"] is True
    assert calls[0] == 10
    calls[0] = 0
    report = balance_report(m, a, b, range(-7, 8), kind)
    assert calls[0] == 26
    assert report["all_pass"] is True
    assert any(row["corner_n0"] for row in report["degrees"])
    resolutions = [tate._resolution(m, a, b, kind, k) for k in (0, 1)]
    grid, sign = balance_grid(kind, *resolutions)
    calls[0] = 0
    for row in report["degrees"]:
        alone = tate._walk_is_isomorphism(grid, sign * row["degree"])
        assert row["shift_walk"] == ("isomorphism" if alone else "failed")
    assert calls[0] == 2 * sum(range(8))


def test_a_zeroed_chain_step_fails_every_walk_that_crosses_it(monkeypatch):
    # the chain's third step sends the core Z/2's generator to 0: degrees
    # with |n| >= 3 cross it and their walk maps are not onto; shorter
    # walks stop before it
    real, reached = tate._chase, {}

    def zero_third_step(core, columns, direction):
        landing, pushed = real(core, columns, direction)
        step = reached.get(id(columns), (None, 0))[1] + 1
        if step == 3:
            pushed = [tuple(0 for _ in c) for c in pushed]
        reached[id(pushed)] = (pushed, step)  # kept alive: ids stay unique
        return landing, pushed

    monkeypatch.setattr(tate, "_chase", zero_third_step)
    a = z(4, 2)
    for kind in (EXT, TOR):
        rows = balance_report(4, a, a, range(-5, 6), kind)["degrees"]
        assert {row["degree"]: row["shift_walk"] for row in rows} == {
            n: "isomorphism" if abs(n) < 3 else "failed"
            for n in range(-5, 6)}, kind
        assert rows[6]["degree"] == 1 and rows[6]["pass"] is True


def test_chains_die_with_their_report(monkeypatch):
    calls = _count_chases(monkeypatch)
    a, b = z(8, 2, 4), z(8, 4)
    balance_report(8, a, b, DEGREES, EXT)
    once = calls[0]
    balance_report(8, a, b, DEGREES, EXT)
    assert once == 10 and calls[0] == 2 * once


def test_non_modules_rejected():
    integral = FpGroup.from_factors(0, [2])
    wrong = FpGroup.from_factors(2, [2])
    good = z(4, 2)
    for bad in (integral, wrong):
        with pytest.raises(NotAModule):
            tate_ext(4, bad, good, [0], VIA_PROJECTIVE)
        with pytest.raises(NotAModule):
            tate_ext(4, good, bad, [0], VIA_INJECTIVE)
        with pytest.raises(NotAModule):
            tate_tor(4, bad, good, [0], RESOLVE_LEFT)
        with pytest.raises(NotAModule):
            balance_report(4, good, bad, [0], EXT)
    with pytest.raises(NotAModule):
        tate_ext(1, good, good, [0], VIA_PROJECTIVE)


def test_corners_match_routes_directly():
    m = 4
    a = z(m, 2)
    p, _ = complete_projective_resolution(m, a)
    e, _ = complete_injective_resolution(m, a)
    grid = hom_bicomplex(p, e)
    for n in (-2, -1, 0, 1, 2):
        route = tate_ext(m, a, a, [n], VIA_PROJECTIVE)[0].invariant_factors
        assert core_homology(grid, (n, 0)).group.invariant_factors == route
        assert core_homology(grid, (0, n)).group.invariant_factors == route


def test_balance_report_ext_m4():
    report = balance_report(4, z(4, 2), z(4, 2), DEGREES, EXT)
    assert report["kind"] == EXT
    assert report["modulus"] == 4
    assert report["all_pass"] is True
    assert [row["degree"] for row in report["degrees"]] == list(DEGREES)
    for row in report["degrees"]:
        assert row[VIA_PROJECTIVE] == [2]
        assert row[VIA_INJECTIVE] == [2]
        assert row["corner_n0"] == [2]
        assert row["corner_0n"] == [2]
        assert row["shift_walk"] == "isomorphism"
        assert row["pass"] is True
    json.dumps(report)


def test_balance_report_ext_free_module():
    report = balance_report(4, FpGroup.free(4, 1), z(4, 2), DEGREES, EXT)
    assert report["all_pass"] is True
    for row in report["degrees"]:
        assert row[VIA_PROJECTIVE] == []
        assert row["corner_0n"] == []
        assert row["pass"] is True


def test_balance_report_tor_m4():
    report = balance_report(4, z(4, 2), z(4, 2), DEGREES, TOR)
    assert report["kind"] == TOR
    assert report["index_bridge"] == "lower index n = upper index -n"
    assert report["all_pass"] is True
    for row in report["degrees"]:
        assert row[RESOLVE_LEFT] == [2]
        assert row[RESOLVE_RIGHT] == [2]
        assert row["corner_n0"] == [2]
        assert row["corner_0n"] == [2]
        assert row["shift_walk"] == "isomorphism"
    json.dumps(report)


def test_balance_report_tor_coprime():
    report = balance_report(6, z(6, 2), z(6, 3), range(-2, 3), TOR)
    assert report["all_pass"] is True
    for row in report["degrees"]:
        assert row[RESOLVE_LEFT] == []
        assert row[RESOLVE_RIGHT] == []


def test_balance_report_degrees_sorted_and_unique():
    report = balance_report(4, z(4, 2), z(4, 2), [2, -1, 0, 2], EXT)
    assert [row["degree"] for row in report["degrees"]] == [-1, 0, 2]


def test_balance_report_sampled_instances():
    picks = [
        (4, [2], [4]),
        (8, [2, 4], [4]),
        (9, [3], [9, 3]),
        (12, [2, 6], [4]),
    ]
    for m, fa, fb in picks:
        for kind in (EXT, TOR):
            report = balance_report(m, z(m, *fa), z(m, *fb),
                                    range(-2, 3), kind)
            assert report["all_pass"] is True, (m, fa, fb, kind, report)


def _tate_closed_form(m, a, b):
    """Stable Ext^n and Tor_n of Z/a, Z/b over Z/m in every degree, from
    gcds alone: cyclic of order gcd(a, b) * gcd(m/a, b) / b."""
    return invariant_factors_oracle([gcd(a, b) * gcd(m // a, b) // b])


def _divisor_triples(moduli):
    for m in moduli:
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        for a in divisors:
            for b in divisors:
                yield m, a, b


def test_both_routes_of_both_kinds_match_the_closed_form():
    runs = 0
    for m, a, b in _divisor_triples((4, 6, 8, 9, 12, 18, 72)):
        want = [_tate_closed_form(m, a, b)] * len(DEGREES)
        for kind in (EXT, TOR):
            for route in tate.ROUTES[kind]:
                got = tate_groups(m, z(m, a), z(m, b), DEGREES, kind, route)
                assert [g.invariant_factors for g in got] == want, \
                    (m, a, b, kind, route)
                runs += 1
    assert runs == 1064


def test_balance_report_routes_match_the_closed_form():
    for m, a, b in _divisor_triples((4, 8, 9, 12)):
        want = list(_tate_closed_form(m, a, b))
        for kind in (EXT, TOR):
            report = balance_report(m, z(m, a), z(m, b), DEGREES, kind)
            assert report["all_pass"] is True, (m, a, b, kind)
            for row in report["degrees"]:
                assert row[tate.ROUTES[kind][0]] == want, (m, a, b, kind)
                assert row[tate.ROUTES[kind][1]] == want, (m, a, b, kind)
