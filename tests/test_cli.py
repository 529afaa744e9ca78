"""Command-line behavior: outputs, exit codes, reproducible reports."""

import json
from math import isqrt

import pytest

from bicohom import abgroup, cli
from bicohom.cli import main, render_group_factors
from bicohom.formats import MAX_DEGREES, MAX_GRID_RANK

STRAND4 = ('{"modulus": 4, "convention": "homological",'
           ' "support": {"periodic": {"period": 1}},'
           ' "cells": {"0": {"factors": [4]}}, "diffs": {"0": [[2]]}}')
STRAND4_CO = STRAND4.replace("homological", "cohomological")
Z_MUL2 = ('{"modulus": 0, "convention": "homological",'
          ' "support": {"window": {"lo": 0, "hi": 1}},'
          ' "cells": {"0": {"rank": 1}, "1": {"rank": 1}},'
          ' "diffs": {"1": [[2]]}}')
POINT4_CO = ('{"modulus": 4, "convention": "cohomological",'
             ' "support": {"window": {"lo": 0, "hi": 0}},'
             ' "cells": {"0": {"factors": [4]}}}')
BAD_SQUARE = ('{"modulus": 8, "convention": "homological",'
              ' "support": {"periodic": {"period": 1}},'
              ' "cells": {"0": {"factors": [8]}}, "diffs": {"0": [[2]]}}')


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("strand4", STRAND4), ("strand4_co", STRAND4_CO),
                       ("z_mul2", Z_MUL2), ("point4_co", POINT4_CO),
                       ("bad_square", BAD_SQUARE)):
        p = tmp_path / (name + ".json")
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_render_group_factors():
    assert render_group_factors([]) == "0"
    assert render_group_factors([2]) == "Z/2"
    assert render_group_factors([2, 4], 1) == "Z/2 ⊕ Z/4 ⊕ Z^1"


def test_homology_exact_strand(files, capsys):
    assert main(["homology", files["strand4"], "--degrees", "-2..2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["H[%d] = 0" % n for n in range(-2, 3)]


def test_homology_window_default_degrees(files, capsys):
    assert main(["homology", files["z_mul2"]]) == 0
    out = capsys.readouterr().out
    assert "H[0] = Z/2" in out
    assert "H[1] = 0" in out


def test_homology_rejects_bad_file(files, capsys):
    assert main(["homology", files["bad_square"]]) == 2
    assert "degree 0" in capsys.readouterr().err


def test_homology_rejects_an_integer_too_long_to_read(tmp_path, capsys):
    # 5,000 digits is past Python's limit for reading an integer: json
    # raises a bare ValueError, which is bad input, not an internal fault
    path = tmp_path / "long.json"
    path.write_text(STRAND4.replace("[4]", "[%s]" % ("9" * 5000)))
    assert main(["homology", str(path)]) == 2
    assert "too long" in capsys.readouterr().err


def test_homology_missing_file(tmp_path, capsys):
    assert main(["homology", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bicomplex_core_and_pages(files, capsys):
    args = ["bicomplex", files["strand4"], files["strand4_co"],
            "--kind", "hom", "--cell", "0,0"]
    assert main(args + ["--op", "H"]) == 0
    assert "H at (0,0) = Z/2" in capsys.readouterr().out
    assert main(args + ["--op", "E2-I"]) == 0
    assert "E2-I at (0,0) = 0" in capsys.readouterr().out
    assert main(args + ["--op", "E2-II"]) == 0
    assert "E2-II at (0,0) = 0" in capsys.readouterr().out
    assert main(args + ["--op", "core-eq"]) == 0
    assert "pass" in capsys.readouterr().out
    assert main(args + ["--op", "Hprime"]) == 0
    assert "Hprime at (0,0) = 0" in capsys.readouterr().out


def test_bicomplex_tensor_kind(files, capsys):
    assert main(["bicomplex", files["strand4"], files["strand4"],
                 "--kind", "tensor", "--cell", "0,0", "--op", "H"]) == 0
    assert "= Z/2" in capsys.readouterr().out


def test_bicomplex_directional_on_window(files, capsys):
    assert main(["bicomplex", files["z_mul2"], files["point4_co"],
                 "--kind", "hom", "--cell", "1,0", "--op", "Hprime"]) == 0
    assert "Z/2" in capsys.readouterr().out
    # the point has zero d'', so H'' at (1, 0) is the whole cell Hom(Z, Z/4)
    assert main(["bicomplex", files["z_mul2"], files["point4_co"],
                 "--kind", "hom", "--cell", "1,0", "--op", "Hsecond",
                 "--json"]) == 0
    item, = json.loads(capsys.readouterr().out)["items"]
    assert list(item.items()) == [("cell", [1, 0]), ("op", "Hsecond"),
                                  ("factors", [4]), ("free_rank", 0),
                                  ("group", "Z/4")]


def test_bicomplex_hypothesis_errors_are_input_errors(files, capsys):
    assert main(["bicomplex", files["z_mul2"], files["point4_co"],
                 "--kind", "hom", "--cell", "1,0", "--op", "core-eq"]) == 2
    assert "H''" in capsys.readouterr().err


def test_bicomplex_wrong_conventions(files, capsys):
    assert main(["bicomplex", files["strand4"], files["strand4"],
                 "--kind", "hom", "--cell", "0,0", "--op", "H"]) == 2
    assert capsys.readouterr().err


def test_bicomplex_bad_cell(files, capsys):
    assert main(["bicomplex", files["strand4"], files["strand4_co"],
                 "--kind", "hom", "--cell", "zero", "--op", "H"]) == 2


def test_homology_single_degree_and_bad_ranges(files, capsys):
    assert main(["homology", files["strand4"], "--degrees", "2"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == ["H[2] = 0"]
    for text in ("a..b", "1..x", "two"):
        assert main(["homology", files["strand4"], "--degrees", text]) == 2
        assert ("range %r is not lo..hi" % text
                in capsys.readouterr().err)


def test_degree_spans_and_tate_degrees_are_bounded(files, capsys):
    # one past formats.MAX_DEGREES exits 2 naming the flag, before anything
    # is built; the bound itself still runs
    top = MAX_DEGREES
    wide = "0..%d" % top
    assert main(["homology", files["strand4"], "--degrees", wide]) == 2
    assert ("--degrees %r spans %d degrees; at most %d are allowed"
            % (wide, top + 1, top) in capsys.readouterr().err)
    tate = ["tate", "--ring", "4", "--module", "2", "--other", "2",
            "--kind", "ext", "--both-ways", "--range"]
    wide = "%d..0" % -top
    assert main(tate + [wide]) == 2
    assert ("--range %r spans %d degrees; at most %d are allowed"
            % (wide, top + 1, top) in capsys.readouterr().err)
    for text in (str(top + 1), str(-top - 1), "2..%d" % (top + 1)):
        assert main(tate + [text]) == 2
        assert ("--range %r reaches degree %d; |n| is at most %d"
                % (text, top + 1, top) in capsys.readouterr().err)
    assert main(["homology", files["strand4"], "--degrees",
                 "1..%d" % top]) == 0
    assert len(capsys.readouterr().out.splitlines()) == top
    assert main(tate[:-2] + ["--range", str(-top)]) == 0
    assert capsys.readouterr().out.strip() == "n=-%d: Z/2" % top


def test_bicomplex_non_integer_cell(files, capsys):
    assert main(["bicomplex", files["strand4"], files["strand4_co"],
                 "--kind", "hom", "--cell", "a,1", "--op", "H"]) == 2
    assert "cell 'a,1' is not a pair of integers" in capsys.readouterr().err


def _file(cells='{"0": {"rank": 1}}', diffs="{}",
          support='{"window": {"lo": 0, "hi": 0}}'):
    return ('{"modulus": 4, "convention": "homological", "support": %s, '
            '"cells": %s, "diffs": %s}' % (support, cells, diffs))


class GridBuilt(Exception):
    pass


def test_bicomplex_grid_rank_is_bounded(tmp_path, monkeypatch, capsys):
    # the product of the two files' largest cell ranks is checked before
    # any grid is built; at the bound the builder is reached, one above it
    # exits 2 naming both files and ranks
    side = isqrt(MAX_GRID_RANK)
    assert side * side == MAX_GRID_RANK
    built = []

    def builder(c, d):
        built.append((c, d))
        raise GridBuilt

    monkeypatch.setattr(cli, "hom_bicomplex", builder)
    monkeypatch.setattr(cli, "tensor_bicomplex", builder)
    paths = {}
    for rank, convention in ((1, "homological"), (side, "homological"),
                             (side + 1, "homological"),
                             (side, "cohomological")):
        p = tmp_path / ("%s%d.json" % (convention, rank))
        p.write_text(_file(cells='{"0": {"rank": 1}, "1": {"rank": %d}}'
                           % rank, support='{"window": {"lo": 0, "hi": 1}}')
                     .replace("homological", convention))
        paths[rank, convention] = str(p)
    op = ["--cell", "0,0", "--op", "H"]
    with pytest.raises(GridBuilt):
        main(["bicomplex", paths[side, "homological"],
              paths[side, "cohomological"], "--kind", "hom"] + op)
    with pytest.raises(GridBuilt):
        main(["bicomplex", paths[side + 1, "homological"],
              paths[1, "homological"], "--kind", "tensor"] + op)
    assert len(built) == 2
    for kind, second in (("hom", paths[side, "cohomological"]),
                         ("tensor", paths[side, "homological"])):
        first = paths[side + 1, "homological"]
        assert main(["bicomplex", first, second, "--kind", kind] + op) == 2
        assert ("%s has a cell of rank %d and %s one of rank %d: grid cells "
                "of rank up to %d, above the bound of %d"
                % (first, side + 1, second, side, (side + 1) * side,
                   MAX_GRID_RANK) in capsys.readouterr().err)
    assert len(built) == 2


@pytest.mark.parametrize("text, fragment", [
    ("[1, 2]", "complex file must be a JSON object"),
    (_file(support="[0, 1]"), "support must be a JSON object"),
    (_file(cells="[1]"), "cells must be a JSON object"),
    (_file(cells='{"0": {"rank": -1}}'), "cells[0].rank must not be negative"),
    (_file(cells='{"0": {"factors": 2}}'), "cells[0].factors must be a list"),
    (_file(cells='{"0": {"size": 2}}'), 'cells[0] must use "factors" or '
                                        '"rank"'),
    (_file(cells='{"0": {"rank": 1}, "1": {"rank": 1}}',
           support='{"window": {"lo": 0, "hi": 1}}', diffs='{"1": [1]}'),
     "diffs[1] must be a list of rows"),
    (_file(cells='{"1": {"rank": 1}, "01": {"rank": 1}}'),
     "cells[1] appears twice"),
    (_file(cells='{"0": {"rank": 1}, "1": {"rank": 1}}',
           support='{"window": {"lo": 0, "hi": 1}}',
           diffs='{"1": [[1]], "01": [[1]]}'), "diffs[1] appears twice"),
    (_file(diffs='{"5": [[1]]}'), "diffs[5] has no source cell"),
])
def test_homology_file_errors_name_their_place(tmp_path, capsys, text,
                                               fragment):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["homology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % path), err
    assert fragment in err, err


def test_tate_balance_table(capsys):
    assert main(["tate", "--ring", "4", "--module", "2", "--other", "2",
                 "--kind", "ext", "--range", "-3..3", "--both-ways"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 8
    assert all("Z/2 | Z/2 | pass" in line for line in out[:-1])
    assert out[-1] == "balance: all pass"


def test_tate_free_module_rows(capsys):
    assert main(["tate", "--ring", "4", "--module", "4", "--other", "2",
                 "--kind", "ext", "--range", "-1..1", "--both-ways"]) == 0
    out = capsys.readouterr().out
    assert "0 | 0 | pass" in out


def test_tate_tor_coprime(capsys):
    assert main(["tate", "--ring", "6", "--module", "2", "--other", "3",
                 "--kind", "tor", "--range", "-2..2", "--both-ways"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all("0 | 0 | pass" in line for line in out[:-1])


def test_tate_single_route(capsys):
    assert main(["tate", "--ring", "9", "--module", "3", "--other", "3",
                 "--kind", "ext", "--range", "0..2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["n=+0: Z/3", "n=+1: Z/3", "n=+2: Z/3"]


def test_tate_input_errors(capsys):
    assert main(["tate", "--ring", "1", "--module", "2", "--other", "2",
                 "--kind", "ext", "--range", "0..0"]) == 2
    capsys.readouterr()
    assert main(["tate", "--ring", "4", "--module", "two", "--other", "2",
                 "--kind", "ext", "--range", "0..0"]) == 2
    capsys.readouterr()
    assert main(["tate", "--ring", "4", "--module", "2", "--other", "2",
                 "--kind", "ext", "--range", "3..-3"]) == 2
    capsys.readouterr()
    # Z/3 mod 4 would collapse to 0, -2 would be read as Z/2, 0 as Z
    for order in ("3", "-2", "0"):
        assert main(["tate", "--ring", "4", "--module", order, "--other", "2",
                     "--kind", "ext", "--range", "0"]) == 2
        assert ("module order %s is not a positive divisor" % order
                in capsys.readouterr().err)
    assert main(["tate", "--ring", "4", "--module", "2", "--other", "2,3",
                 "--kind", "ext", "--range", "0"]) == 2


def test_internal_value_errors_are_not_input_errors(monkeypatch):
    # a ValueError from inside the package is a bug, not bad input: it
    # must propagate instead of exiting 2
    def planted(*args, **kwargs):
        raise ValueError("planted internal fault")

    monkeypatch.setattr(abgroup, "kernel_basis", planted)
    with pytest.raises(ValueError, match="planted internal fault"):
        main(["tate", "--ring", "4", "--module", "2", "--other", "2",
              "--kind", "ext", "--range", "-1..1", "--both-ways"])


def test_verify_passes_and_reports(capsys):
    assert main(["verify", "--suite", "snf", "--seed", "1",
                 "--cases", "6", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is True
    assert report["seed"] == 1
    assert len(report["items"]) == 6
    assert report["command"].startswith("bicohom verify")


def test_verify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SEED", "7")
    monkeypatch.setenv("CASES", "3")
    assert main(["verify", "--suite", "abgroup", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7
    assert report["cases"] == 3


@pytest.mark.parametrize("name", ["SEED", "CASES"])
def test_verify_refuses_a_non_integer_environment(capsys, monkeypatch, name):
    monkeypatch.setenv(name, "abc")
    assert main(["verify", "--suite", "snf"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: environment variable %s='abc' is not an integer\n" % name)
    assert captured.out == ""
    # an explicit flag does not read the variable
    assert main(["verify", "--suite", "snf", "--seed", "1",
                 "--cases", "1"]) == 0


def test_verify_refuses_nonpositive_case_counts(capsys, monkeypatch):
    assert main(["verify", "--suite", "snf", "--cases", "-1"]) == 2
    captured = capsys.readouterr()
    assert "case count -1 is not positive" in captured.err
    assert captured.out == ""
    monkeypatch.setenv("CASES", "-3")
    assert main(["verify", "--suite", "thm21"]) == 2
    assert "case count -3 is not positive" in capsys.readouterr().err


def test_verify_fault_injection_goes_red(capsys):
    assert main(["verify", "--suite", "thm21", "--seed", "2",
                 "--cases", "2", "--inject-fault"]) == 1
    out = capsys.readouterr().out
    assert "0/2 passed" in out
    assert main(["verify", "--suite", "balance", "--seed", "2",
                 "--cases", "2", "--inject-fault"]) == 1
    capsys.readouterr()
    assert main(["verify", "--suite", "snf", "--seed", "2",
                 "--cases", "2", "--inject-fault"]) == 2


def test_verify_json_stable_modulo_timestamp(capsys):
    assert main(["verify", "--suite", "abgroup", "--seed", "5",
                 "--cases", "4", "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["verify", "--suite", "abgroup", "--seed", "5",
                 "--cases", "4", "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


def test_argparse_rejects_unknown_tokens():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["bicomplex", "a", "b", "--kind", "hom", "--cell", "0,0",
              "--op", "E3"])
    assert err.value.code == 2
