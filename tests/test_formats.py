"""Complex file parsing, precise rejection messages, and round trips.

The boundary property: a serialized seeded complex mutated anywhere (a key
deleted or renamed, a value replaced, negated, made huge or given another
type, at any depth) parses or raises ParseError, never anything else; a
parsed document reaches a fixed point under one `serialize_complex`, and
`bicohom homology` on it exits 0 or 2.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from bicohom import cli
from bicohom.abgroup import FpGroup, _cyclic_matrix
from bicohom.complexes import (COHOMOLOGICAL, HOMOLOGICAL, Periodic, Window,
                               Complex, hom_into_module, homology)
from bicohom.errors import ParseError
from bicohom.constructions import random_exact_complex
from bicohom.formats import (MAX_BITS, MAX_DEGREES, MAX_RANK, _normalized_diff,
                             load_complex, parse_complex, serialize_complex)
from bicohom.snf import IntMatrix
from bicohom.suites import _zero_first_diff
from helpers import periodic_strand, random_factor_group, random_morphism, \
    seeded
from test_identity_digest import serialize_runs


STRAND4 = """
{"modulus": 4, "convention": "homological",
 "support": {"periodic": {"period": 1}},
 "cells": {"0": {"factors": [4]}},
 "diffs": {"0": [[2]]}}
"""

Z_MUL2 = """
{"modulus": 0, "convention": "homological",
 "support": {"window": {"lo": 0, "hi": 1}},
 "cells": {"0": {"rank": 1}, "1": {"rank": 1}},
 "diffs": {"1": [[2]]}}
"""


def test_parse_periodic_strand():
    c = parse_complex(STRAND4)
    assert c.modulus == 4
    assert c.convention == HOMOLOGICAL
    assert c.support == Periodic(1)
    assert c.cell(0).invariant_factors == (4,)
    assert c.diff(0).matrix.to_lists() == [[2]]
    for n in range(-2, 3):
        assert homology(c, n).group.is_trivial()


def test_parse_window_over_z():
    c = parse_complex(Z_MUL2)
    assert c.support == Window(0, 1)
    assert homology(c, 0).group.invariant_factors == (2,)
    assert homology(c, 1).group.is_trivial()
    assert c.cell(5).is_trivial()


def test_rank_and_factors_forms_agree():
    base = ('{"modulus": 6, "convention": "cohomological",'
            ' "support": {"window": {"lo": 0, "hi": 0}},'
            ' "cells": {"0": %s}}')
    by_rank = parse_complex(base % '{"rank": 2}')
    by_factors = parse_complex(base % '{"factors": [6, 6]}')
    assert by_rank.cell(0).invariant_factors \
        == by_factors.cell(0).invariant_factors == (6, 6)


def test_negative_degrees():
    c = parse_complex("""
    {"modulus": 0, "convention": "cohomological",
     "support": {"window": {"lo": -2, "hi": -1}},
     "cells": {"-2": {"rank": 1}, "-1": {"factors": [3]}},
     "diffs": {"-2": [[1]]}}
    """)
    assert homology(c, -1).group.is_trivial()
    # kernel of Z -> Z/3 sending 1 to 1 is 3Z, free of rank one
    assert homology(c, -2).group.invariant_factors == ()
    assert homology(c, -2).group.free_rank == 1


def test_serialize_is_idempotent():
    text1 = serialize_complex(parse_complex(STRAND4))
    text2 = serialize_complex(parse_complex(text1))
    assert text1 == text2
    again = parse_complex(text2)
    assert again.cell(0).invariant_factors == (4,)
    assert again.diff(0).matrix.to_lists() == [[2]]


def test_round_trip_of_computed_complex():
    # cells of a Hom complex carry presentations; serialization rewrites
    # them in cyclic coordinates without changing any homology
    c = periodic_strand(8, [2, 4])
    h = hom_into_module(c, FpGroup.from_factors(8, [2]))
    back = parse_complex(serialize_complex(h))
    assert back.convention == COHOMOLOGICAL
    assert back.support == h.support
    for n in range(-2, 4):
        assert back.cell(n).invariant_factors \
            == h.cell(n).invariant_factors
        assert homology(back, n).group.invariant_factors \
            == homology(h, n).group.invariant_factors


def test_serialize_omits_zero_diffs():
    text = ('{"modulus": 4, "convention": "homological",'
            ' "support": {"window": {"lo": 0, "hi": 0}},'
            ' "cells": {"0": {"factors": [2]}}}')
    out = json.loads(serialize_complex(parse_complex(text)))
    assert out["diffs"] == {}


def normalization_cases():
    """Seeded complexes: over Z, two-cell windows between scrambled groups
    with Z summands; over Z/4, 8, 9 and 12, the same with finite cyclic
    summands, and random exact complexes, broken or not."""
    rng = seeded(53)
    for m in (0, 4, 8, 9, 12):
        for _ in range(8 if m else 24):
            src, tgt = random_factor_group(rng, m), random_factor_group(rng, m)
            yield Complex.window(HOMOLOGICAL, m, 0, 1, [tgt, src],
                                 {1: random_morphism(rng, src, tgt)})
        if m:
            for seed in range(3):
                for kind in ("periodic", "window"):
                    c = random_exact_complex(m, seed, kind=kind)
                    yield c
                    yield _zero_first_diff(c)[0]


def test_normalized_diff_is_the_reduction_by_the_target_orders():
    # each entry modulo its target summand's order is the residue that the
    # relation echelon of the target's cyclic form gives, column by column
    z_rows = 0
    for c in normalization_cases():
        for n in c.diff_degrees():
            f = c.diff(n)
            orders = f.target.cyclic_decomposition().orders
            mat = _cyclic_matrix(f)
            z_rows += any(any(row) for row, o in zip(mat.to_lists(), orders)
                          if o == 0)
            target = FpGroup.from_factors(c.modulus, list(orders))
            want = IntMatrix.from_columns(
                [target.reduce(col) for col in mat.columns()],
                rows=len(orders))
            assert _normalized_diff(c, n) == want
    assert z_rows >= 3  # differentials with a nonzero row on a Z summand


def test_serialize_builds_no_group(monkeypatch):
    cases = list(normalization_cases())
    for c in cases:  # the cells' cyclic forms are cached before counting
        for n in c.degrees():
            c.cell(n).cyclic_decomposition()
    built = []
    real = FpGroup.__init__
    monkeypatch.setattr(FpGroup, "__init__",
                        lambda self, *args: built.append(1) or
                        real(self, *args))
    for c in cases:
        serialize_complex(c)
    assert built == []


def _expect(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_complex(text)
    assert fragment in str(err.value), str(err.value)


def test_rejection_messages():
    _expect("{", "not valid JSON")
    _expect('{"modulus": 4}', "missing")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"periodic": {"period": 1}}, "cells": {"0": {"rank": 1}}, '
            '"extra": 1}', "unknown field")
    _expect('{"modulus": 4, "convention": "sideways", "support": '
            '{"periodic": {"period": 1}}, "cells": {"0": {"rank": 1}}}',
            "convention")
    _expect('{"modulus": 1, "convention": "homological", "support": '
            '{"periodic": {"period": 1}}, "cells": {"0": {"rank": 1}}}',
            "modulus")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"interval": [0, 1]}, "cells": {"0": {"rank": 1}}}',
            "support")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 2, "hi": 0}}, "cells": {}}', "lo > hi")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"periodic": {"period": 0}}, "cells": {}}', "positive")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 1}}, "cells": {"0": {"rank": 1}}}',
            "cells[1] is required")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 0}}, "cells": {"0": {"rank": 1}, '
            '"3": {"rank": 1}}}', "cells[3] is outside")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 0}}, "cells": {"0": {"rank": 1, '
            '"factors": [2]}}}', "cells[0] must be")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 0}}, "cells": {"0": '
            '{"factors": ["two"]}}}', "integer")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 0}}, "cells": {"x": {"rank": 1}}}',
            "not a degree")


def test_rejection_of_bad_differentials():
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 1}}, "cells": {"0": {"rank": 1}, '
            '"1": {"rank": 1}}, "diffs": {"1": [[1], [1]]}}',
            "diffs[1] is 2x1")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 1}}, "cells": {"0": {"rank": 1}, '
            '"1": {"rank": 1}}, "diffs": {"0": [[1]]}}',
            "leaves the support")
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 1}}, "cells": {"0": {"rank": 2}, '
            '"1": {"rank": 1}}, "diffs": {"1": [[1], [1, 2]]}}', "ragged")
    # d following d must vanish
    _expect('{"modulus": 8, "convention": "homological", "support": '
            '{"periodic": {"period": 1}}, "cells": {"0": {"factors": [8]}}, '
            '"diffs": {"0": [[2]]}}', "d o d is nonzero at degree 0")
    # a generator of order 2 cannot map to one of order 4
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 1}}, "cells": '
            '{"0": {"factors": [4]}, "1": {"factors": [2]}}, '
            '"diffs": {"1": [[1]]}}', "degree 1 ignores relations")


def test_rejection_of_periodic_differentials_sharing_a_degree():
    # "1" and "3" are one degree mod 2; the later map must not win silently
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"periodic": {"period": 2}}, "cells": {"0": {"factors": [4]}, '
            '"1": {"factors": [4]}}, "diffs": {"1": [[2]], "3": [[0]]}}',
            "differential at degree 1 is given twice")


def _point(cell):
    return ('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": 0, "hi": 0}}, "cells": {"0": %s}}' % cell)


def test_sizes_above_their_bounds_are_rejected_by_field():
    # each value is one past its bound; the check comes before the build
    _expect(_point('{"rank": %d}' % (MAX_RANK + 1)),
            "cells[0].rank is %d, above the bound of %d"
            % (MAX_RANK + 1, MAX_RANK))
    _expect(_point('{"factors": %s}' % ([2] * (MAX_RANK + 1))),
            "cells[0].factors count is %d" % (MAX_RANK + 1))
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"periodic": {"period": %d}}, "cells": {}}' % (MAX_DEGREES + 1),
            "support.periodic.period is %d" % (MAX_DEGREES + 1))
    _expect('{"modulus": 4, "convention": "homological", "support": '
            '{"window": {"lo": -5, "hi": %d}}, "cells": {}}'
            % (MAX_DEGREES - 5), "support.window width is %d"
            % (MAX_DEGREES + 1))
    assert parse_complex(_point('{"rank": %d}' % MAX_RANK)).cell(0) \
        .ambient_rank == MAX_RANK
    assert parse_complex(_point('{"factors": %s}' % ([2] * MAX_RANK))) \
        .cell(0).ambient_rank == MAX_RANK


def test_integers_above_the_bit_bound_are_rejected_by_field():
    big = 2 ** MAX_BITS  # MAX_BITS + 1 bits
    bound = "%d bits, above the bound of %d" % (MAX_BITS + 1, MAX_BITS)
    _expect(_point('{"factors": [2, %d]}' % big), "cells[0].factors has "
            "an integer of " + bound)
    _expect(STRAND4.replace('"modulus": 4', '"modulus": %d' % big),
            "modulus has an integer of " + bound)
    for entry in (big, -big):
        _expect(Z_MUL2.replace("[[2]]", "[[%d]]" % entry),
                "diffs[1] has an integer of " + bound)
    edge = 2 ** MAX_BITS - 1
    c = parse_complex(Z_MUL2.replace("[[2]]", "[[%d]]" % edge))
    assert c.diff(1).matrix.to_lists() == [[edge]]


def test_an_integer_too_long_for_json_is_bad_input():
    _expect(STRAND4.replace("[[2]]", "[[%s]]" % ("9" * 5000)),
            "an integer is too long to read")


def test_every_identity_digest_complex_parses_within_the_bounds():
    for name, build in serialize_runs():
        text = serialize_complex(build())
        assert serialize_complex(parse_complex(text)) == text, name


def test_load_complex_reports_path(tmp_path):
    with pytest.raises(ParseError) as err:
        load_complex(str(tmp_path / "absent.json"))
    assert "cannot read" in str(err.value)
    good = tmp_path / "c.json"
    good.write_text(STRAND4)
    assert load_complex(str(good)).cell(0).invariant_factors == (4,)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ParseError) as err:
        load_complex(str(bad))
    assert "bad.json" in str(err.value)


# -- the boundary property ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def seeded_documents():
    """Serialized seeded exact complexes: both supports and conventions
    over Z/4, 9 and 12."""
    return tuple(json.loads(serialize_complex(random_exact_complex(
        m, seed, blocks=2, kind=kind, convention=convention)))
        for m, seed in ((4, 1), (9, 2), (12, 3))
        for kind in ("periodic", "window")
        for convention in (HOMOLOGICAL, COHOMOLOGICAL))


def paths(doc, prefix=()):
    """The path (keys and indices) of every value inside doc, at any
    depth, the document itself first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


# integers of every size, up to past MAX_BITS; json cannot write an integer
# past Python's digit limit, and reading one is tested above
INTEGERS = st.one_of(st.integers(-3, 1100),
                     st.integers(0, 1100).map(lambda k: 2 ** k),
                     st.integers(0, 1100).map(lambda k: -2 ** k))
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), INTEGERS, st.floats(),
              st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5)


def retyped(value):
    """value as another JSON type with the same content."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(k): v for k, v in enumerate(value)}
    if isinstance(value, str):
        return [value]
    return str(value)


def mutated(data):
    """A seeded document with one mutation, as JSON text."""
    doc = json.loads(json.dumps(data.draw(st.sampled_from(
        seeded_documents()))))
    path = data.draw(st.sampled_from(list(paths(doc))))
    if not path:
        return json.dumps(data.draw(JSON))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    how = data.draw(st.sampled_from(
        ("delete", "rename", "replace", "negate", "retype")))
    if how == "delete":
        del parent[key]
    elif how == "rename" and isinstance(parent, dict):
        parent[data.draw(st.text(max_size=3) | INTEGERS.map(str))] = \
            parent.pop(key)
    elif how == "negate" and type(value) is int:
        parent[key] = -value
    elif how == "retype":
        parent[key] = retyped(value)
    else:
        parent[key] = data.draw(JSON)
    return json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_mutated_document_parses_or_raises_parse_error(data):
    text = mutated(data)
    try:
        c = parse_complex(text)
    except ParseError:
        return
    once = serialize_complex(c)
    assert serialize_complex(parse_complex(once)) == once


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_the_cli_exits_0_or_2_on_a_mutated_document(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutated(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["homology", path]) in (0, 2)
