"""Acceptance gate: fifteen criteria, each one pass/fail line with runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion asserts both its mathematical claim and its runtime budget.
"""

import random
import time
from math import gcd

from bicohom import bicomplexes, complexes
from bicohom.abgroup import FpGroup, hom_group, tensor_group
from bicohom.bicomplexes import (I_THEN_II, II_THEN_I, core_homology,
                                 core_homology_alt, iterated_homology)
from bicohom.cli import main
from bicohom.complexes import COHOMOLOGICAL
from bicohom.constructions import (hom_bicomplex, random_exact_complex,
                                   tensor_bicomplex)
from bicohom.suites import FIXED_GROUPS, run_suite
from bicohom.tate import EXT, TOR, balance_report
from helpers import invariant_factors_oracle, periodic_strand


def _criterion(num, name, limit, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        print("ACCEPTANCE %d (%s): FAIL" % (num, name))
        raise
    dt = time.perf_counter() - t0
    print("ACCEPTANCE %d (%s): PASS (%.2fs, limit %gs)"
          % (num, name, dt, limit))
    assert dt < limit, "%s exceeded %gs (%.2fs)" % (name, limit, dt)


def test_criterion_1_snf_suite():
    def run():
        rows = run_suite("snf", seed=101, cases=500)
        bad = [r for r in rows if not r["pass"]]
        assert not bad, bad[:3]
    _criterion(1, "snf suite, 500 matrices", 10, run)


def test_criterion_2_small_group_oracles():
    def run():
        for fa in FIXED_GROUPS:
            g = FpGroup.from_factors(0, list(fa))
            for fb in FIXED_GROUPS:
                h = FpGroup.from_factors(0, list(fb))
                want_hom = 1
                for a in fa:
                    for b in fb:
                        want_hom *= gcd(a, b)
                assert hom_group(g, h).group.order() == want_hom, (fa, fb)
                want_ten = invariant_factors_oracle(
                    [gcd(a, b) for a in fa for b in fb])
                got = tensor_group(g, h).group.invariant_factors
                assert got == want_ten, (fa, fb, got, want_ten)
    _criterion(2, "Hom/tensor vs order<=64 oracle", 60, run)


def test_criterion_3_core_invariant_suite():
    def run():
        rows = run_suite("thm21", seed=103, cases=50)
        bad = [r for r in rows if not r["pass"]]
        assert not bad, bad[:3]
    _criterion(3, "core equality + shifts, 50 grids", 120, run)


def test_criterion_4_spectral_collapse_contrast():
    def run():
        c = periodic_strand(4, [2, 2])
        d = periodic_strand(4, [2, 2], convention="cohomological")
        x = hom_bicomplex(c, d)
        for i in range(-2, 3):
            for j in range(-2, 3):
                assert iterated_homology(x, (i, j), I_THEN_II).is_trivial()
                assert iterated_homology(x, (i, j), II_THEN_I).is_trivial()
                assert core_homology(x, (i, j)).group.invariant_factors \
                    == (2,)
    _criterion(4, "pages collapse, core survives, 5x5", 5, run)


def test_criterion_5_cycle_witnesses():
    def run():
        rows = run_suite("prop31", seed=105, cases=20)
        bad = [r for r in rows if not r["pass"]]
        assert not bad, bad[:3]
    _criterion(5, "cycle witnesses invert, 20 instances", 30, run)


def test_criterion_6_triple_isomorphism():
    def run():
        rows = run_suite("thm33", seed=106, cases=20)
        bad = [r for r in rows if not r["pass"]]
        assert not bad, bad[:3]
    _criterion(6, "triple description, 20 instances", 60, run)


def _random_modules(rng, m):
    divisors = [d for d in range(2, m + 1) if m % d == 0]
    return (FpGroup.from_factors(m, [rng.choice(divisors)]),
            FpGroup.from_factors(m, [rng.choice(divisors)]))


def test_criterion_7_ext_balance():
    def run():
        z2 = FpGroup.from_factors(4, [2])
        report = balance_report(4, z2, z2, range(-3, 4), EXT)
        assert report["all_pass"], report
        for row in report["degrees"]:
            assert row["via_projective"] == [2], row
            assert row["via_injective"] == [2], row
            assert row["corner_n0"] == [2] and row["corner_0n"] == [2], row
        rng = random.Random(107)
        for _ in range(20):
            m = rng.choice((4, 8, 9, 12))
            a, b = _random_modules(rng, m)
            assert balance_report(m, a, b, range(-2, 3),
                                  EXT)["all_pass"], (m, a, b)
    _criterion(7, "ext balance + corners, 20 samples", 60, run)


def test_criterion_8_tor_balance():
    def run():
        z2 = FpGroup.from_factors(4, [2])
        free = FpGroup.free(4, 1)
        report = balance_report(4, z2, z2, range(-3, 4), TOR)
        assert report["all_pass"], report
        for row in report["degrees"]:
            assert row["resolve_left"] == [2], row
            assert row["resolve_right"] == [2], row
        for pair in ((free, z2), (z2, free), (free, free)):
            rep = balance_report(4, pair[0], pair[1], range(-3, 4), TOR)
            assert rep["all_pass"], rep
            for row in rep["degrees"]:
                assert row["resolve_left"] == [], row
                assert row["resolve_right"] == [], row
        rng = random.Random(108)
        for _ in range(20):
            m = rng.choice((4, 8, 9, 12))
            a, b = _random_modules(rng, m)
            assert balance_report(m, a, b, range(-2, 3),
                                  TOR)["all_pass"], (m, a, b)
    _criterion(8, "tor balance + free vanishing", 60, run)


def test_criterion_9_fault_injection_meta():
    def run():
        code = main(["verify", "--suite", "thm21", "--seed", "109",
                     "--cases", "3", "--inject-fault"])
        assert code == 1, "thm21 suite did not fail under fault injection"
        code = main(["verify", "--suite", "balance", "--seed", "109",
                     "--cases", "3", "--inject-fault"])
        assert code == 1, "balance suite did not fail under fault injection"
    _criterion(9, "fault injection turns suites red", 10, run)


def _cores_agree_on_grids(cases):
    """core = core_alt at the four ladder bidegrees of the Hom and the
    tensor grid of each (blocks, s1, s2) over Z/12; some core nonzero."""
    answers = []
    for blocks, s1, s2 in cases:
        c = random_exact_complex(12, s1, blocks=blocks)
        grids = (
            hom_bicomplex(c, random_exact_complex(
                12, s2, blocks=blocks, convention=COHOMOLOGICAL)),
            tensor_bicomplex(c, random_exact_complex(12, s2, blocks=blocks)))
        for grid in grids:
            assert grid.cell(0, 0).ambient_rank == blocks * blocks
            for bd in ((0, 0), (1, 0), (0, 1), (1, 1)):
                got = core_homology(grid, bd).group
                alt = core_homology_alt(grid, bd).group
                assert (got.invariant_factors, got.free_rank) == \
                    (alt.invariant_factors, alt.free_rank), (blocks, bd)
                answers.append(got.invariant_factors)
    assert any(answers), "every core group trivial: the check is vacuous"


def test_criterion_10_core_at_rank_25_and_36():
    _criterion(10, "core = core_alt on rank 25/36 Hom and tensor grids", 20,
               lambda: _cores_agree_on_grids(((5, 11, 12), (6, 13, 14))))


def test_criterion_11_balance_at_z72_with_six_summands():
    # kernel-free closed form: stable Ext^n and Tor_n over Z/m of Z/a and
    # Z/b (a, b | m) are cyclic of order gcd(a, b) * gcd(m/a, b) / b in
    # every degree, and both functors are additive in each argument
    m, fa, fb = 72, (2, 3, 4, 6, 8, 9), (12, 18, 24, 36, 72, 2)
    want = list(invariant_factors_oracle(
        [gcd(a, b) * gcd(m // a, b) // b for a in fa for b in fb]))
    assert want == [2] * 8 + [6] * 4

    def run():
        a = FpGroup.from_factors(m, list(fa))
        b = FpGroup.from_factors(m, list(fb))
        for kind in (EXT, TOR):
            report = balance_report(m, a, b, range(-3, 4), kind)
            assert report["all_pass"], report
            for row in report["degrees"]:
                assert row["corner_n0"] == want, (kind, row)
                assert row["corner_0n"] == want, (kind, row)
    _criterion(11, "ext/tor balance over Z/72, six summands each", 10, run)


def test_criterion_12_core_at_rank_64():
    _criterion(12, "core = core_alt on rank 64 Hom and tensor grids", 10,
               lambda: _cores_agree_on_grids(((8, 15, 16), (8, 17, 18))))


def test_criterion_13_rank_256_factor_cell_decomposes_over_z_mod_m():
    # formats.MAX_RANK admits a rank-256 cell; it decomposes over Z/m with
    # no elimination over Z
    def run():
        g = FpGroup.from_factors(4, [2] * 256)
        assert g.invariant_factors == (2,) * 256
    _criterion(13, "rank-256 factor cell over Z/4", 0.1, run)
    # recorded, not gated: a rank-256 cell of mixed divisors over Z/12,
    # whose diagonal needs the gcd/lcm moves of the divisibility chain
    rng = random.Random(13)
    factors = [rng.choice([1, 2, 3, 4, 6, 12]) for _ in range(256)]
    t0 = time.perf_counter()
    got = FpGroup.from_factors(12, factors).invariant_factors
    print("ACCEPTANCE 13 (rank-256 mixed divisors over Z/12): %.2fs, "
          "not gated" % (time.perf_counter() - t0))
    assert got == invariant_factors_oracle(factors)


def test_criterion_14_both_ways_walk_is_linear_in_the_span(capsys):
    # walks of one parity and direction share their prefix, so a span of
    # 1024 degrees chases about 2 * 1024 steps, not half a million
    def run():
        for kind in ("ext", "tor"):
            for span in ("1..1024", "-1023..0"):
                code = main(["tate", "--ring", "8", "--module", "2,4",
                             "--other", "4", "--kind", kind,
                             "--range", span, "--both-ways"])
                out = capsys.readouterr().out
                assert code == 0, (kind, span)
                assert out.rstrip().endswith("balance: all pass"), (kind,
                                                                    span)
    _criterion(14, "tate --both-ways over 1024 degrees, 4 runs", 10, run)


def test_criterion_15_rank_256_cores_certify_exactness_at_factor_size(
        monkeypatch):
    # over Z/12 the rank-16 factors prove the exactness the core needs, so
    # no H' or H'' is built on a rank-256 grid cell; the work is what is
    # gated, and the run takes about 0.3 s
    ranks = []
    for module in (bicomplexes, complexes):
        def counting(out, into, *args, real=module.ker_mod_im):
            ranks.append(out.source.ambient_rank)
            return real(out, into, *args)
        monkeypatch.setattr(module, "ker_mod_im", counting)

    def run():
        c = random_exact_complex(12, 11, blocks=16)
        grids = (
            hom_bicomplex(c, random_exact_complex(
                12, 22, blocks=16, convention=COHOMOLOGICAL)),
            tensor_bicomplex(c, random_exact_complex(12, 22, blocks=16)))
        for grid in grids:
            assert grid.cell(0, 0).ambient_rank == 256
            got = core_homology(grid, (0, 0)).group
            alt = core_homology_alt(grid, (0, 0)).group
            assert got.invariant_factors
            assert (got.invariant_factors, got.free_rank) == \
                (alt.invariant_factors, alt.free_rank)
        assert ranks and max(ranks) == 16
    _criterion(15, "rank-256 cores build no grid-size H' or H''", 1.5, run)
