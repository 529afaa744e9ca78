"""Self-describing JSON text format for graded complexes.

A complex file is one JSON object:

    {"modulus": 4,
     "convention": "homological",
     "support": {"periodic": {"period": 1}},
     "cells": {"0": {"factors": [4]}},
     "diffs": {"0": [[2]]}}

`support` is either {"window": {"lo": a, "hi": b}} (degrees a..b inclusive,
zero outside) or {"periodic": {"period": p}} (degrees mod p).  Each cell is
{"factors": [d1, ...]} -- cyclic orders, 0 meaning Z -- or {"rank": k} for
the free module of rank k.  `diffs` maps a degree to the matrix of the
differential leaving that degree (columns indexed by the source cell's
generators); omitted degrees get the zero map.  Bicomplexes are never
written to files; they are always built from a pair of complexes.

Inputs are bounded before anything is built from them: a cell rank or
factor count is at most MAX_RANK (256), a period or window width (hi - lo
+ 1) at most MAX_DEGREES (1024), and every integer -- modulus, degree
bound, rank, factor, matrix entry -- at most MAX_BITS (1024) bits long.
An integer too long for `json` to read at all is bad input too.  A grid
built from two files has cells of rank at most the product of the two
files' largest cell ranks; `bicohom bicomplex` refuses a product above
MAX_GRID_RANK (1024), the rank at which a core still takes a few seconds.

Parsing succeeds exactly when the assembled complex satisfies the complex
axioms; any violation is reported with the offending degree.  Serialization
normalizes cells to their cyclic decomposition and rewrites differentials
in those coordinates, so parse/serialize round-trips are stable.
"""

import json

from .abgroup import FpGroup, Morphism, _cyclic_matrix
from .complexes import (COHOMOLOGICAL, HOMOLOGICAL, Periodic, Window,
                        Complex, degree_step)
from .errors import ConventionViolation, ParseError
from .snf import IntMatrix

MAX_RANK = 256
MAX_DEGREES = 1024
MAX_BITS = 1024
MAX_GRID_RANK = 1024


def _expect_object(value, where, keys, optional=()):
    if not isinstance(value, dict):
        raise ParseError("%s must be a JSON object" % where)
    missing = [k for k in keys if k not in value]
    if missing:
        raise ParseError("%s is missing %s" % (where, ", ".join(missing)))
    stray = [k for k in value if k not in keys and k not in optional]
    if stray:
        raise ParseError("%s has unknown field %s" % (where, stray[0]))


def _expect_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError("%s must be an integer" % where)
    if value.bit_length() > MAX_BITS:
        raise ParseError("%s has an integer of %d bits, above the bound of "
                         "%d" % (where, value.bit_length(), MAX_BITS))
    return value


def _expect_at_most(value, bound, where):
    if value > bound:
        raise ParseError("%s is %d, above the bound of %d"
                         % (where, value, bound))


def _degree_key(key, where):
    try:
        return int(key)
    except (TypeError, ValueError):
        raise ParseError("%s key %r is not a degree" % (where, key))


def _parse_support(raw):
    if not isinstance(raw, dict):
        raise ParseError("support must be a JSON object")
    if set(raw) == {"window"}:
        spec = raw["window"]
        _expect_object(spec, "support.window", ["lo", "hi"])
        lo = _expect_int(spec["lo"], "support.window.lo")
        hi = _expect_int(spec["hi"], "support.window.hi")
        if lo > hi:
            raise ParseError("support.window has lo > hi")
        _expect_at_most(hi - lo + 1, MAX_DEGREES, "support.window width")
        return Window(lo, hi)
    if set(raw) == {"periodic"}:
        spec = raw["periodic"]
        _expect_object(spec, "support.periodic", ["period"])
        period = _expect_int(spec["period"], "support.periodic.period")
        if period < 1:
            raise ParseError("support.periodic.period must be positive")
        _expect_at_most(period, MAX_DEGREES, "support.periodic.period")
        return Periodic(period)
    raise ParseError('support must be {"window": ...} or {"periodic": ...}')


def _parse_cell(raw, modulus, degree):
    where = "cells[%d]" % degree
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ParseError('%s must be {"factors": [...]} or {"rank": k}'
                         % where)
    if "rank" in raw:
        rank = _expect_int(raw["rank"], where + ".rank")
        if rank < 0:
            raise ParseError("%s.rank must not be negative" % where)
        _expect_at_most(rank, MAX_RANK, where + ".rank")
        return FpGroup.free(modulus, rank)
    if "factors" in raw:
        factors = raw["factors"]
        if not isinstance(factors, list):
            raise ParseError("%s.factors must be a list" % where)
        _expect_at_most(len(factors), MAX_RANK, where + ".factors count")
        return FpGroup.from_factors(
            modulus, [_expect_int(d, where + ".factors") for d in factors])
    raise ParseError('%s must use "factors" or "rank"' % where)


def _parse_matrix(raw, degree):
    where = "diffs[%d]" % degree
    if not isinstance(raw, list) or \
            any(not isinstance(row, list) for row in raw):
        raise ParseError("%s must be a list of rows" % where)
    try:
        return IntMatrix([[_expect_int(e, where) for e in row]
                          for row in raw])
    except ValueError:
        raise ParseError("%s has ragged rows" % where)


def parse_complex(text):
    """Complex from JSON text; ParseError pinpoints any violation."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc)
    except ValueError:  # an integer past Python's digit limit
        raise ParseError("an integer is too long to read") from None
    _expect_object(raw, "complex file",
                   ["modulus", "convention", "support", "cells"], ["diffs"])
    modulus = _expect_int(raw["modulus"], "modulus")
    if modulus < 0 or modulus == 1:
        raise ParseError("modulus must be 0 or at least 2")
    convention = raw["convention"]
    if convention not in (HOMOLOGICAL, COHOMOLOGICAL):
        raise ParseError('convention must be "%s" or "%s"'
                         % (HOMOLOGICAL, COHOMOLOGICAL))
    support = _parse_support(raw["support"])
    wanted = support.degrees()
    if not isinstance(raw["cells"], dict):
        raise ParseError("cells must be a JSON object")
    cells = {}
    for key, spec in raw["cells"].items():
        n = _degree_key(key, "cells")
        if n in cells:
            raise ParseError("cells[%d] appears twice" % n)
        cells[n] = _parse_cell(spec, modulus, n)
    for n in wanted:
        if n not in cells:
            raise ParseError("cells[%d] is required by the support" % n)
    for n in cells:
        if n not in wanted:
            raise ParseError("cells[%d] is outside the support" % n)
    step = degree_step(convention)
    diffs = {}
    for key, spec in raw.get("diffs", {}).items():
        n = _degree_key(key, "diffs")
        if n in diffs:
            raise ParseError("diffs[%d] appears twice" % n)
        src = cells.get(support.canonical(n)[0])
        if src is None:
            raise ParseError("diffs[%d] has no source cell" % n)
        tgt = cells.get(support.canonical(n + step)[0])
        if tgt is None:
            raise ParseError("diffs[%d] leaves the support" % n)
        mat = _parse_matrix(spec, n)
        if (mat.rows, mat.cols) != (tgt.ambient_rank, src.ambient_rank):
            raise ParseError(
                "diffs[%d] is %dx%d but degree %d -> %d needs %dx%d"
                % (n, mat.rows, mat.cols, n, n + step,
                   tgt.ambient_rank, src.ambient_rank))
        diffs[n] = Morphism(src, tgt, mat)
    try:
        return Complex(convention, modulus, support, cells, diffs)
    except ConventionViolation as exc:
        raise ParseError(str(exc))


def load_complex(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    try:
        return parse_complex(text)
    except ParseError as exc:
        raise ParseError("%s: %s" % (path, exc))


def _normalized_diff(c, n):
    """Matrix of diff(n) in cyclic coordinates, each entry reduced modulo
    the order o of its target summand, and kept where o = 0 (Z)."""
    f = c.diff(n)
    orders = f.target.cyclic_decomposition().orders
    mat = _cyclic_matrix(f)
    return IntMatrix([[x % o if o else x for x in row]
                      for row, o in zip(mat.to_lists(), orders)],
                     cols=mat.cols)


def serialize_complex(c):
    """Canonical JSON text; cells in cyclic form, diffs rewritten to match."""
    s = c.support
    if isinstance(s, Periodic):
        support = {"periodic": {"period": s.period}}
    elif not s.zero_outside:
        # the format has no field for truncation, so refuse to drop it
        raise ValueError("truncated windows are not serializable")
    else:
        support = {"window": {"lo": s.lo, "hi": s.hi}}
    forms = {n: c.cell(n).cyclic_decomposition() for n in c.degrees()}
    cells = {str(n): {"factors": list(forms[n].orders)}
             for n in sorted(forms)}
    diffs = {}
    for n in c.diff_degrees():
        mat = _normalized_diff(c, n)
        if not mat.is_zero():
            diffs[str(n)] = mat.to_lists()
    out = {"modulus": c.modulus, "convention": c.convention,
           "support": support, "cells": cells, "diffs": diffs}
    return json.dumps(out, indent=2) + "\n"
