"""Command line: file-based homology, grid invariants, stable Ext/Tor
balance, and the seeded verification suites.

Exit codes: 0 all requested checks pass, 1 a verification failed, 2 the
input was unusable (bad file, bad arguments, incompatible objects).
Machine output (--json) is stable under re-run modulo the timestamp field.
A degree span (--degrees, --range) is at most formats.MAX_DEGREES wide, and
a tate degree at most that in absolute value.  `bicomplex` builds no grid
whose cells could exceed formats.MAX_GRID_RANK: the product of the two
files' largest cell ranks is at most that.  `tate` builds no group when
the product of the two specs' summand counts exceeds formats.MAX_RANK.
"""

import argparse
import json
import os
import sys
import time

from . import __version__
from .bicomplexes import (I_THEN_II, II_THEN_I, PRIME, SECOND,
                          core_equality_check, core_homology,
                          directional_homology, iterated_homology)
from .constructions import hom_bicomplex, tensor_bicomplex
from .errors import (BadArgument, ConventionViolation, HypothesisViolated,
                     IllDefined, NotAModule, NotContained, ParentMismatch,
                     ParseError)
from .abgroup import FpGroup
from .complexes import homology
from .formats import MAX_DEGREES, MAX_GRID_RANK, MAX_RANK, load_complex
from .suites import SUITES, run_suite
from .tate import ROUTES, balance_report, tate_groups

_INPUT_ERRORS = (ParseError, NotAModule, ConventionViolation,
                 HypothesisViolated, NotContained, ParentMismatch,
                 IllDefined, BadArgument)

# E2-I runs the first-direction homology last, E2-II runs it first
_E2_ORDERS = {"E2-I": II_THEN_I, "E2-II": I_THEN_II}
_AXES = {"Hprime": PRIME, "Hsecond": SECOND}


def render_group_factors(factors, free_rank=0):
    parts = ["Z/%d" % d for d in factors]
    if free_rank:
        parts.append("Z^%d" % free_rank)
    return " ⊕ ".join(parts) if parts else "0"


def render_group(g):
    return render_group_factors(g.invariant_factors, g.free_rank)


def _group_fields(g):
    return {"factors": list(g.invariant_factors),
            "free_rank": g.free_rank,
            "group": render_group(g)}


def _parse_range(text, flag):
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            n = int(text)
            return range(n, n + 1)
        a, b = int(lo), int(hi)
    except ValueError:
        raise ParseError("range %r is not lo..hi" % text)
    if a > b:
        raise ParseError("range %r runs backwards" % text)
    if b - a + 1 > MAX_DEGREES:
        raise ParseError("%s %r spans %d degrees; at most %d are allowed"
                         % (flag, text, b - a + 1, MAX_DEGREES))
    return range(a, b + 1)


def _parse_cell(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("cell %r is not i,j" % text)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("cell %r is not a pair of integers" % text)


def _parse_module(ring, text):
    try:
        factors = [int(p) for p in text.split(",")]
    except ValueError:
        raise ParseError("module spec %r is not a comma list of orders"
                         % text)
    for d in factors:
        # Z/d is a Z/ring-module only for d | ring; mod ring it would collapse
        if d < 1 or ring % d:
            raise ParseError("module order %d is not a positive divisor of "
                             "the ring order %d" % (d, ring))
    return FpGroup.from_factors(ring, factors)


def _report(args, items, all_pass=None, **extra):
    report = {"command": "bicohom " + " ".join(args._argv),
              "version": __version__,
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
              "items": items}
    report.update(extra)
    if all_pass is not None:
        report["all_pass"] = all_pass
    return report


def _emit(args, report, lines):
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_homology(args):
    c = load_complex(args.file)
    degrees = (_parse_range(args.degrees, "--degrees") if args.degrees
               else c.degrees())
    items, lines = [], []
    for n in degrees:
        g = homology(c, n).group
        items.append({"degree": n, **_group_fields(g)})
        lines.append("H[%d] = %s" % (n, render_group(g)))
    _emit(args, _report(args, items), lines)
    return 0


def _largest_rank(c):
    return max(c.cell(n).ambient_rank for n in c.degrees())


def cmd_bicomplex(args):
    c = load_complex(args.fileC)
    d = load_complex(args.fileD)
    # a grid cell F(C_i, D_j) has rank at most rank C_i * rank D_j
    rank_c, rank_d = _largest_rank(c), _largest_rank(d)
    if rank_c * rank_d > MAX_GRID_RANK:
        raise ParseError("%s has a cell of rank %d and %s one of rank %d: "
                         "grid cells of rank up to %d, above the bound of %d"
                         % (args.fileC, rank_c, args.fileD, rank_d,
                            rank_c * rank_d, MAX_GRID_RANK))
    x = hom_bicomplex(c, d) if args.kind == "hom" else tensor_bicomplex(c, d)
    cell = _parse_cell(args.cell)
    op = args.op
    if op == "core-eq":
        ok = core_equality_check(x, cell)
        verdict = "pass" if ok else "fail"
        items = [{"cell": list(cell), "op": op, "result": verdict}]
        _emit(args, _report(args, items, all_pass=ok),
              ["core-eq at (%d,%d): %s" % (cell[0], cell[1], verdict)])
        return 0 if ok else 1
    if op == "H":
        g = core_homology(x, cell).group
    elif op in _AXES:
        g = directional_homology(x, cell, _AXES[op])
    else:
        g = iterated_homology(x, cell, _E2_ORDERS[op])
    items = [{"cell": list(cell), "op": op, **_group_fields(g)}]
    _emit(args, _report(args, items),
          ["%s at (%d,%d) = %s" % (op, cell[0], cell[1], render_group(g))])
    return 0


def cmd_tate(args):
    # the routes' Hom and tensor cells have rank up to the product of the
    # two summand counts, so it is bounded before either group is built
    counts = [spec.count(",") + 1 for spec in (args.module, args.other)]
    if counts[0] * counts[1] > MAX_RANK:
        raise ParseError("--module has %d summands and --other %d: their "
                         "product %d is above the bound of %d"
                         % (counts[0], counts[1], counts[0] * counts[1],
                            MAX_RANK))
    module = _parse_module(args.ring, args.module)
    other = _parse_module(args.ring, args.other)
    degrees = _parse_range(args.range, "--range")
    # the shift walk's cost is linear in the largest |n| it reaches
    reach = max(abs(degrees[0]), abs(degrees[-1]))
    if reach > MAX_DEGREES:
        raise ParseError("--range %r reaches degree %d; |n| is at most %d"
                         % (args.range, reach, MAX_DEGREES))
    routes = ROUTES[args.kind]
    if args.both_ways:
        report = balance_report(args.ring, module, other, degrees, args.kind)
        lines = []
        for row in report["degrees"]:
            lines.append("n=%+d: %s | %s | %s" % (
                row["degree"],
                render_group_factors(row[routes[0]]),
                render_group_factors(row[routes[1]]),
                "pass" if row["pass"] else "FAIL"))
        lines.append("balance: %s"
                     % ("all pass" if report["all_pass"] else "FAILED"))
        items, ok = report.pop("degrees"), report.pop("all_pass")
        _emit(args, _report(args, items, all_pass=ok, **report), lines)
        return 0 if ok else 1
    groups = tate_groups(args.ring, module, other, degrees, args.kind,
                         routes[0])
    items, lines = [], []
    for n, g in zip(degrees, groups):
        items.append({"degree": n, "route": routes[0],
                      "factors": list(g.invariant_factors),
                      "group": render_group(g)})
        lines.append("n=%+d: %s" % (n, render_group(g)))
    _emit(args, _report(args, items, kind=args.kind), lines)
    return 0


def _env_int(name, default):
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        raise ParseError("environment variable %s=%r is not an integer"
                         % (name, os.environ[name]))


def cmd_verify(args):
    seed = _env_int("SEED", "0") if args.seed is None else args.seed
    cases = _env_int("CASES", "25") if args.cases is None else args.cases
    rows = run_suite(args.suite, seed, cases, inject_fault=args.inject_fault)
    passed = sum(1 for r in rows if r["pass"])
    ok = passed == len(rows)
    lines = []
    for r in rows:
        mark = "ok  " if r["pass"] else "FAIL"
        detail = (" -- " + r["detail"]) if r["detail"] else ""
        lines.append("%s %s%s" % (mark, r["case"], detail))
    lines.append("suite %s: %d/%d passed (seed %d)"
                 % (args.suite, passed, len(rows), seed))
    _emit(args, _report(args, rows, all_pass=ok, suite=args.suite,
                        seed=seed, cases=cases,
                        inject_fault=args.inject_fault), lines)
    return 0 if ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bicohom",
        description="Exact homology of complexes, grid core invariants, "
                    "and balanced stable Ext/Tor over Z/m.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("homology", help="invariant factors of H per degree")
    p.add_argument("file", help="complex file (JSON)")
    p.add_argument("--degrees", help="lo..hi (default: the stored support)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_homology)

    p = sub.add_parser("bicomplex",
                       help="grid invariants of Hom/tensor of two complexes")
    p.add_argument("fileC", help="first complex file")
    p.add_argument("fileD", help="second complex file")
    p.add_argument("--kind", choices=("hom", "tensor"), required=True)
    p.add_argument("--cell", required=True, help="bidegree i,j")
    p.add_argument("--op", required=True,
                   choices=("H", "Hprime", "Hsecond", "E2-I", "E2-II",
                            "core-eq"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_bicomplex)

    p = sub.add_parser("tate", help="stable Ext/Tor by resolution routes")
    p.add_argument("--ring", type=int, required=True, metavar="M",
                   help="modulus of the ground ring Z/M")
    p.add_argument("--module", required=True,
                   help="cyclic orders, e.g. 2,2,4")
    p.add_argument("--other", required=True)
    p.add_argument("--kind", choices=ROUTES, required=True)
    p.add_argument("--range", required=True, help="degrees lo..hi")
    p.add_argument("--both-ways", action="store_true",
                   help="compare both routes, grid corners, and the "
                        "diagonal walk")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_tate)

    p = sub.add_parser("verify", help="seeded verification suites")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=None,
                   help="default: env SEED, else 0")
    p.add_argument("--cases", type=int, default=None,
                   help="default: env CASES, else 25")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt each instance so the suite must go red")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_verify)
    return parser


_VALUE_FLAGS = ("--degrees", "--range", "--cell")


def _stitch_negative_values(argv):
    """Join "--range -3..3" into "--range=-3..3" so argparse does not read
    the value as an option."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and tok.startswith("-"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(_stitch_negative_values(argv))
    args._argv = argv
    try:
        return args.run(args)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
