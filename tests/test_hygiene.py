"""Package hygiene: the public name list and the imports of each module.

No other test reads `__all__`, so a name left there after its object was
deleted would pass every behavioural test; so would an import that
nothing uses any more.  `__init__.py` is left out of the import check
because its imports are the re-exports.
"""

import ast
import pathlib

import pytest

import bicohom

PACKAGE = pathlib.Path(bicohom.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in `source` and never read afterwards."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_every_public_name_resolves():
    assert [n for n in bicohom.__all__ if not hasattr(bicohom, n)] == []
    assert len(set(bicohom.__all__)) == len(bicohom.__all__)


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from bicohom import *", scope)
    assert set(bicohom.__all__) <= set(scope)


def test_the_import_check_sees_unused_imports():
    source = "import os.path\nfrom a import b as c, d\nd()\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
