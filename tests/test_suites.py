"""The verification suites and their internal oracles."""

from math import gcd

import pytest

from bicohom import suites
from bicohom.complexes import is_exact
from bicohom.constructions import random_exact_complex
from bicohom.errors import HypothesisViolated
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


def test_zero_first_diff_breaks_exactness():
    c = random_exact_complex(8, 5, blocks=2)
    assert is_exact(c) == []
    broken, victim = _zero_first_diff(c)
    assert broken.diff(victim).is_zero()
    assert is_exact(broken) != []


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
