"""`verify --json` output against committed golden files.

Each file in tests/golden is the report of `bicohom verify --suite S
--seed 7 --cases 4 --json` (with `--inject-fault` for the -fault files)
with the timestamp field removed, written as JSON with indent 2.  The
comparison is on that exact text, so any change to a case, a detail
string, the pass flags or the key order fails here.  Regenerate the files
(`python tests/test_golden.py`) only for an intended output change.
"""

import json
import pathlib
import sys

import pytest

from bicohom.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DIFFERENTIAL = ["thm21", "prop31", "thm33", "balance"]
CASES = ([(suite, False) for suite in ["snf", "abgroup"] + DIFFERENTIAL]
         + [(suite, True) for suite in DIFFERENTIAL])


def argv(suite, fault):
    args = ["verify", "--suite", suite, "--seed", "7", "--cases", "4"]
    return args + (["--inject-fault"] if fault else []) + ["--json"]


def golden_path(suite, fault):
    return GOLDEN / ("verify-%s%s.json" % (suite, "-fault" if fault else ""))


def without_timestamp(stdout):
    report = json.loads(stdout)
    del report["timestamp"]
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("suite,fault", CASES)
def test_verify_json_matches_golden(suite, fault, capsys):
    code = main(argv(suite, fault))
    got = without_timestamp(capsys.readouterr().out)
    assert got == golden_path(suite, fault).read_text(encoding="utf-8")
    assert code == (1 if fault else 0)


if __name__ == "__main__":
    import contextlib
    import io
    for suite, fault in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(argv(suite, fault))
        golden_path(suite, fault).write_text(without_timestamp(out.getvalue()),
                                             encoding="utf-8")
        print("wrote", golden_path(suite, fault), file=sys.stderr)
