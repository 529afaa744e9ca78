"""The verification suites and their internal oracles."""

import re
from math import gcd
from types import SimpleNamespace

import pytest

from bicohom import abgroup, backend, cli, suites
from bicohom.abgroup import FpGroup
from bicohom.complexes import HOMOLOGICAL, Complex, is_exact
from bicohom.constructions import (hom_bicomplex, random_exact_complex,
                                   tensor_bicomplex)
from bicohom.errors import HypothesisViolated
from bicohom.snf import IntMatrix, SnfResult
from bicohom.suites import (SUITES, _hom_count, _invariants_of_cyclics,
                            _zero_first_diff, run_suite)
from helpers import invariant_factors_oracle, seeded


def test_cyclic_canonicalizer_matches_test_oracle():
    rng = seeded(31)
    for _ in range(60):
        orders = [rng.randint(1, 30) for _ in range(rng.randint(0, 5))]
        assert _invariants_of_cyclics(orders) \
            == invariant_factors_oracle(orders)


def test_hom_count_matches_gcd_product():
    rng = seeded(32)
    for _ in range(40):
        fa = [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(1, 3))]
        fb = [rng.choice([2, 3, 4, 6, 8, 9]) for _ in range(rng.randint(1, 3))]
        want = 1
        for a in fa:
            for b in fb:
                want *= gcd(a, b)
        assert _hom_count(fa, fb) == want


def test_random_unimodular_is_the_transvection_product():
    # the same six draws, each multiplied in on the right as I + k*E_ij
    for n in range(6):
        for seed in range(6):
            rng, oracle = seeded(seed), seeded(seed)
            want = IntMatrix.identity(n)
            for _ in range(6 if n > 1 else 0):
                i, j = oracle.sample(range(n), 2)
                t = backend.identity(n)
                t[i][j] = oracle.randint(-2, 2)
                want = want @ IntMatrix(t, cols=n)
            assert suites._random_unimodular(n, rng) == want
            assert rng.random() == oracle.random()


def test_random_unimodular_multiplies_no_matrices(monkeypatch):
    calls = []
    real = IntMatrix.__matmul__
    monkeypatch.setattr(IntMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or real(a, b))
    suites._random_unimodular(5, seeded(3))
    assert calls == []


def test_zero_first_diff_breaks_exactness():
    c = random_exact_complex(8, 5, blocks=2)
    assert is_exact(c) == []
    broken, victim = _zero_first_diff(c)
    assert broken.diff(victim).is_zero()
    assert is_exact(broken) != []


@pytest.mark.parametrize("helper, message", [
    (_zero_first_diff, "complex has no nonzero differential"),
    (suites._first_filled_degree, "complex has no nonzero cell"),
], ids=["zero_first_diff", "first_filled_degree"])
def test_fault_helpers_refuse_a_zero_complex(helper, message):
    zero = Complex.window(HOMOLOGICAL, 4, 0, 1,
                          [FpGroup.from_factors(4, [1]), FpGroup(4, 0)])
    with pytest.raises(ValueError, match="^%s$" % message):
        helper(zero)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(name):
    rows = run_suite(name, seed=11, cases=4)
    assert len(rows) == 4
    assert all(r["pass"] for r in rows), rows


def test_run_suite_is_deterministic():
    a = run_suite("thm21", seed=3, cases=3)
    b = run_suite("thm21", seed=3, cases=3)
    assert a == b


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("spectral", seed=0, cases=1)


@pytest.mark.parametrize("cases", [0, -1])
def test_nonpositive_case_count_rejected(cases):
    with pytest.raises(ValueError, match="case count"):
        run_suite("snf", seed=0, cases=cases)


@pytest.mark.parametrize("name", ["thm21", "prop31", "thm33", "balance"])
def test_fault_injection_is_deterministically_red(name):
    for seed in (1, 2, 3):
        rows = run_suite(name, seed=seed, cases=3, inject_fault=True)
        assert all(not r["pass"] for r in rows), (name, seed, rows)


@pytest.mark.parametrize("name", ["snf", "abgroup"])
def test_fault_injection_rejected_without_differentials(name):
    with pytest.raises(ValueError):
        run_suite(name, seed=1, cases=1, inject_fault=True)


def _planted(exc):
    def fail(_a):
        raise exc
    return fail


def test_a_package_error_in_a_check_is_a_red_row(monkeypatch):
    monkeypatch.setattr(suites, "smith_normal_form",
                        _planted(HypothesisViolated("planted")))
    rows = run_suite("snf", 0, 2)
    assert [r["pass"] for r in rows] == [False, False]
    assert rows[0]["detail"] == "HypothesisViolated: planted"


def test_an_internal_value_error_in_a_check_propagates(monkeypatch):
    # a bug in a check must crash, not read as a red case
    monkeypatch.setattr(suites, "smith_normal_form",
                        _planted(ValueError("planted")))
    with pytest.raises(ValueError, match="planted"):
        run_suite("snf", 0, 2)


# Each wrong_* takes the function that `suites` binds and returns a stand-in
# that gives one wrong answer; a case whose check cannot see it stays green.
def wrong_snf(snf):
    def smith_normal_form(a):
        r = snf(a)
        if 0 in (a.rows, a.cols):
            return r
        bump = IntMatrix.diagonal([1], rows=a.rows, cols=a.cols)
        return SnfResult(r.U, r.D + bump, r.V, r.Uinv)
    return smith_normal_form


def doubled_snf(snf):
    def smith_normal_form(a):
        r = snf(a)
        return SnfResult(r.U + r.U, r.D + r.D, r.V, r.Uinv)
    return smith_normal_form


def reversed_snf(snf):
    # P*U*A*V*Q with P, Q reversing the first k rows and columns: still a
    # unimodular diagonalisation, with the factors in reverse order
    def smith_normal_form(a):
        r = snf(a)
        diag = r.diagonal
        k = len(diag)
        rows = list(range(k))[::-1] + list(range(k, a.rows))
        cols = list(range(k))[::-1] + list(range(k, a.cols))
        d = IntMatrix.diagonal(diag[::-1], rows=a.rows, cols=a.cols)
        return SnfResult(r.U.take(rows=rows), d, r.V.take(cols=cols),
                         r.Uinv.take(cols=rows))
    return smith_normal_form


def rank_deficient_reversed_snf(snf):
    # reversed_snf where a zero factor can come first: on inputs of rank
    # below min(rows, cols) only, so a full-rank case stays green
    reverse = reversed_snf(snf)

    def smith_normal_form(a):
        r = snf(a)
        return reverse(a) if 0 in r.diagonal else r
    return smith_normal_form


def bumped_minor_gcds(minor_gcds):
    def bumped(a):
        chain = minor_gcds(a)
        return chain[:-1] + [chain[-1] + 1] if chain else chain
    return bumped


def wrong_hom(hom):
    def hom_group(g, h):
        order = hom(g, h).group.order() + 1
        return SimpleNamespace(group=SimpleNamespace(order=lambda: order))
    return hom_group


def _with_factors(factors):
    return SimpleNamespace(group=SimpleNamespace(invariant_factors=factors))


def wrong_tensor(tensor):
    def tensor_group(g, h):
        return _with_factors(tensor(g, h).group.invariant_factors + (2,))
    return tensor_group


def refused_equality(_check):
    def core_equality_check(x, bidegree):
        return False
    return core_equality_check


def lying_factors(random_pair):
    # the grid of a faulted copy of the first factor, which keeps the exact
    # factors: the certificate then calls its broken sites exact
    def _random_pair(rng, m, inject_fault):
        kind, x, broken_at = random_pair(rng, m, inject_fault)
        c, d, _ = x._factors
        build = hom_bicomplex if kind == "hom" else tensor_bicomplex
        faulted = build(_zero_first_diff(c)[0], d)
        faulted._factors = x._factors
        return kind, faulted, broken_at
    return _random_pair


def moving_shift(shift):
    # sends a zero class to the first nonzero class of its target site
    def diagonal_shift(cls, direction):
        got = shift(cls, direction)
        if cls.is_zero():
            h = got.homology
            for z in h.numerator.matrix.columns():
                moved = h.class_of(abgroup.Element(h.parent, z))
                if not moved.is_zero():
                    return moved
        return got
    return diagonal_shift


def doubling_shift(shift):
    # "+" doubles: additive and zero-preserving, but not inverse to "-"
    def diagonal_shift(cls, direction):
        got = shift(cls, direction)
        return got + got if direction == "+" else got
    return diagonal_shift


def sum_doubling_shift(shift):
    # doubles the class of the sum of a site's first two numerator columns
    # and shifts every other class correctly
    def diagonal_shift(cls, direction):
        got = shift(cls, direction)
        cols = cls.homology.numerator.matrix.columns()[:2]
        if len(cols) == 2 and cls.representative.coords == tuple(
                a + b for a, b in zip(*cols)):
            return got + got
        return got
    return diagonal_shift


def wrong_alt(alt):
    def core_homology_alt(x, bidegree):
        return _with_factors(alt(x, bidegree).group.invariant_factors + (2,))
    return core_homology_alt


def wrong_witness(witness):
    def zprime_witness(c, d, bidegree):
        f, b = witness(c, d, bidegree)
        return f, b + b
    return zprime_witness


def one_sided_witness(witness):
    # through A (+) A: the inclusion after f and b after the projection
    # still compose to the identity on Z, but not on A (+) A
    def zprime_witness(c, d, bidegree):
        f, b = witness(c, d, bidegree)
        _, (inject, _), (project, _) = abgroup.direct_sum(f.target, f.target)
        return inject.compose(f), b.compose(project)
    return zprime_witness


def wrong_hom_from(hom):
    def hom_from_module(z, e):
        return hom(abgroup.direct_sum(z, z)[0], e)
    return hom_from_module


def wrong_report(balance):
    def balance_report(*args):
        report = balance(*args)
        report["degrees"][0]["pass"] = False
        return report
    return balance_report


def wrong_route_report(balance):
    # the first route gains a Z/2 summand in every degree, and the pass
    # flags stay set: only the closed form can see it
    def balance_report(*args):
        report = balance(*args)
        first = suites.ROUTES[report["kind"]][0]
        for row in report["degrees"]:
            row[first] = row[first] + [2]
        return report
    return balance_report


def computed_corner(_core):
    def core_homology(grid, bidegree):
        return _with_factors((2,))
    return core_homology


# (suite, name in suites, stand-in, red detail, inject_fault)
PLANTED = [
    ("snf", "smith_normal_form", wrong_snf,
     r"U\*A\*V is not the stated diagonal", False),
    ("abgroup", "hom_group", wrong_hom, r"\|Hom\| \d+ != \d+", False),
    ("thm21", "core_homology_alt", wrong_alt,
     r"route mismatch at \(-?\d+, -?\d+\)", False),
    ("prop31", "zprime_witness", wrong_witness,
     r"zprime_witness not left-inverse at \(-?\d+, -?\d+\)", False),
    ("thm33", "hom_from_module", wrong_hom_from,
     r"triple \(.*\) \(.*\) \(.*\) at \(-?\d+, -?\d+\)", False),
    ("balance", "balance_report", wrong_report, r"degrees \[-2\] fail",
     False),
    ("balance", "core_homology", computed_corner, r"corner \(2,\)", True),
]


@pytest.mark.parametrize("suite, name, plant, detail, inject_fault", PLANTED,
                         ids=[name for _, name, _, _, _ in PLANTED])
def test_each_suite_names_its_planted_wrong_answer(
        monkeypatch, capsys, suite, name, plant, detail, inject_fault):
    monkeypatch.setattr(suites, name, plant(getattr(suites, name)))
    _assert_named_red(capsys, suite, detail, inject_fault)


# The snf suite's other red details.  Its gcd-of-minors oracle is read as
# backend.minor_gcds, so that stand-in is set on backend.  A zero factor can
# precede a nonzero one only for a rank-deficient input, which the first
# four draws of seed 11 do not hold and the third draw of seed 207 does
# (3x3 of rank 2).
SNF_PLANTED = [
    ("unimodular", suites, "smith_normal_form", doubled_snf,
     r"transform is not unimodular", 11),
    ("chain", suites, "smith_normal_form", reversed_snf,
     r"divisibility chain broken|zero precedes a nonzero factor", 11),
    ("minors", backend, "minor_gcds", bumped_minor_gcds,
     r"gcd of \d+-minors disagrees", 11),
    ("zero_first", suites, "smith_normal_form", rank_deficient_reversed_snf,
     r"zero precedes a nonzero factor", 207),
]


@pytest.mark.parametrize("module, name, plant, detail, seed",
                         [row[1:] for row in SNF_PLANTED],
                         ids=[row[0] for row in SNF_PLANTED])
def test_snf_suite_names_its_other_planted_wrong_answers(
        monkeypatch, capsys, module, name, plant, detail, seed):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    _assert_named_red(capsys, "snf", detail, False, seed)


# The other red details of the abgroup, thm21, prop31 and balance suites:
# (id, suite, name in suites, stand-in, red detail, seed).  A wrong shift
# shows only on a nonzero core, which no spot of the first four thm21
# draws of seed 11 has and three draws of seed 23 do.
DETAIL_PLANTED = [
    ("tensor", "abgroup", "tensor_group", wrong_tensor,
     r"tensor \(.*\) != \(.*\)", 11),
    ("certificate", "thm21", "_random_pair", lying_factors,
     r"exactness certificate disagrees with the grid on H'{1,2} "
     r"at \(-?\d+, -?\d+\)", 11),
    ("denominators", "thm21", "core_equality_check", refused_equality,
     r"denominators differ at \(-?\d+, -?\d+\)", 11),
    ("shift_zero", "thm21", "diagonal_shift", moving_shift,
     r"shift moves zero at \(-?\d+, -?\d+\)", 23),
    ("round_trip", "thm21", "diagonal_shift", doubling_shift,
     r"round trip fails at \(-?\d+, -?\d+\)", 23),
    ("additive", "thm21", "diagonal_shift", sum_doubling_shift,
     r"shift is not additive at \(-?\d+, -?\d+\)", 23),
    ("right_inverse", "prop31", "zprime_witness", one_sided_witness,
     r"zprime_witness not right-inverse at \(-?\d+, -?\d+\)", 11),
    ("closed_form", "balance", "balance_report", wrong_route_report,
     r"degree -2: route \(.*\) != closed form \(.*\)", 11),
]


@pytest.mark.parametrize("suite, name, plant, detail, seed",
                         [row[1:] for row in DETAIL_PLANTED],
                         ids=[row[0] for row in DETAIL_PLANTED])
def test_each_suite_names_its_other_planted_wrong_answers(
        monkeypatch, capsys, suite, name, plant, detail, seed):
    monkeypatch.setattr(suites, name, plant(getattr(suites, name)))
    _assert_named_red(capsys, suite, detail, False, seed)


def _assert_named_red(capsys, suite, detail, inject_fault, seed=11):
    rows = run_suite(suite, seed=seed, cases=4, inject_fault=inject_fault)
    red = [r["detail"] for r in rows if not r["pass"]]
    assert red and all(re.fullmatch(detail, d) for d in red), rows
    argv = ["verify", "--suite", suite, "--seed", str(seed), "--cases", "4"]
    assert cli.main(argv + ["--inject-fault"] * inject_fault) == 1
    assert "FAIL" in capsys.readouterr().out
