"""The package's identity set against a committed table of digests.

The set is 286 runs:
  * 40 `verify --json` reports: the six suites at seeds 0, 1, 7 and 42
    with `--cases 8`, and `--inject-fault` on thm21, prop31, thm33 and
    balance at the same seeds;
  * six `tate --both-ways --json` runs: ext and tor for ring 8 module
    2,4 other 4, ring 12 module 2,6 other 3,4 and ring 9 module 3 other
    9,3, each over degrees -2..2;
  * 240 `serialize_complex` texts of `random_exact_complex` over Z/4, 8,
    9 and 12, both kinds, both conventions, seeds 0-14.

A CLI run's text is its JSON report with the timestamp removed, written
with indent 2, followed by its exit code.  tests/identity_digests.json
holds the SHA-256 of each run's text under the run's name, so a failure
names the runs that changed.  Regenerate the table
(`python tests/test_identity_digest.py`) only for an intended output
change, as for tests/golden/.
"""

import contextlib
import functools
import hashlib
import io
import json
import pathlib
import sys

from bicohom.cli import main
from bicohom.complexes import COHOMOLOGICAL, HOMOLOGICAL
from bicohom.constructions import random_exact_complex
from bicohom.formats import serialize_complex

TABLE = pathlib.Path(__file__).parent / "identity_digests.json"
SUITES = ("snf", "abgroup", "thm21", "prop31", "thm33", "balance")
FAULTED = ("thm21", "prop31", "thm33", "balance")
SEEDS = (0, 1, 7, 42)
TATE = (("8", "2,4", "4"), ("12", "2,6", "3,4"), ("9", "3", "9,3"))


def cli_runs():
    """(name, argv) of the 46 CLI runs."""
    runs = []
    for seed in SEEDS:
        for suite in SUITES:
            runs.append(["verify", "--suite", suite, "--seed", str(seed),
                         "--cases", "8", "--json"])
        for suite in FAULTED:
            runs.append(["verify", "--suite", suite, "--seed", str(seed),
                         "--cases", "8", "--inject-fault", "--json"])
    for ring, module, other in TATE:
        for kind in ("ext", "tor"):
            runs.append(["tate", "--ring", ring, "--module", module,
                         "--other", other, "--kind", kind, "--range",
                         "-2..2", "--both-ways", "--json"])
    return [(" ".join(argv), argv) for argv in runs]


def cli_text(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())
    del report["timestamp"]
    return json.dumps(report, indent=2) + "\nexit %d\n" % code


def serialize_runs():
    """(name, complex builder) of the 240 serialised complexes."""
    runs = []
    for m in (4, 8, 9, 12):
        for kind in ("periodic", "window"):
            for convention in (HOMOLOGICAL, COHOMOLOGICAL):
                for seed in range(15):
                    runs.append((
                        "serialize m=%d %s %s seed %d"
                        % (m, kind, convention, seed),
                        functools.partial(random_exact_complex, m, seed,
                                          kind=kind, convention=convention)))
    return runs


@functools.lru_cache(maxsize=None)
def texts():
    """Every run's text, by name, in table order."""
    got = {name: cli_text(argv) for name, argv in cli_runs()}
    got.update((name, serialize_complex(build()))
               for name, build in serialize_runs())
    return got


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def changed(table, got):
    """Names of the runs whose text no longer has its table digest."""
    return [name for name, text in got.items()
            if table.get(name) != digest(text)]


def load_table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_the_table_names_every_run_once():
    names = [name for name, _ in cli_runs() + serialize_runs()]
    assert len(names) == len(set(names)) == 286
    assert list(load_table()) == names


def test_every_run_matches_its_digest():
    assert changed(load_table(), texts()) == []


def test_a_one_character_change_names_its_run():
    table, got = load_table(), dict(texts())
    for name in ("verify --suite thm33 --seed 42 --cases 8 --inject-fault "
                 "--json",
                 "tate --ring 9 --module 3 --other 9,3 --kind tor --range "
                 "-2..2 --both-ways --json",
                 "serialize m=12 window cohomological seed 14"):
        planted, text = dict(got), got[name]
        k = len(text) // 2
        planted[name] = text[:k] + ("y" if text[k] == "x" else "x") + \
            text[k + 1:]
        assert changed(table, planted) == [name]


if __name__ == "__main__":
    TABLE.write_text(json.dumps({name: digest(text)
                                 for name, text in texts().items()},
                                indent=1) + "\n", encoding="utf-8")
    print("wrote", TABLE, file=sys.stderr)
