"""Package hygiene: the public name list, the imports, the locals and the
private functions of each module.

`__all__` is read off the package namespace, so it cannot name a deleted
object; the first two tests check that it holds no submodule and no
private name, and that a star import binds all of it.  An import that
nothing uses any more, a local that is assigned and never read, or a
private module-level function that nothing calls would pass every
behavioural test, so the checks below catch them.  `__init__.py` is left
out of the import check because its imports are the re-exports.  Likewise
a function or method of the package that no code in `src/`, `tests/` or
`perfbench/` reads is dead weight: a method is read when some attribute
access names it, a function when some name or attribute does.

`abgroup.kernel_image` memoises a morphism's kernel and image on the
`Morphism` object, which is only sound while no morphism is changed after
construction; `test_no_morphism_is_changed_after_construction` fails on any
write to a morphism's attributes outside the places that set them.  A
group's relation echelon, `FpGroup._echelon`, is likewise written only
where it is built or seeded: `test_only_reduction_and_seed_write_echelons`
keeps a seed from being taken back after the fact.

`snf.IntMatrix._trusted` builds a matrix with no check of its entries,
which is safe only for results that snf itself computes from IntMatrix
data or backend output; `test_only_snf_builds_unchecked_matrices` keeps
every other module, and so every outside input, on the checked
constructor.

`abgroup._solve` is the one place that solves against a matrix and checks
the answers by substitution; `test_only_abgroup_solve_calls_solve_mod`
keeps a second, unchecked solve path from coming back.

The benchmark's tracer (`perfbench/tracing.py`) wraps its target functions
by attribute name wherever a module binds them.  A renamed target, or a
module-level table holding a target function object (which the tracer
cannot see and a call through it would bypass), would otherwise only show
when the benchmark report runs; the last two tests catch both here.
"""

import ast
import importlib
import importlib.util
import pathlib
import types

import pytest

import bicohom

PACKAGE = pathlib.Path(bicohom.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REPO = pathlib.Path(__file__).parents[1]
TRACING = REPO / "perfbench" / "tracing.py"


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


def unused_locals(source):
    """(function, name) for each name bound in a function of `source` and
    read nowhere in it, nested functions included.

    Parameters are not checked, and names starting with "_" are exempt, so
    `_` stays available for a value that must be unpacked but is not used.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, read = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
        found += [(fn.name, name) for name in bound
                  if name not in read and not name.startswith("_")]
    return sorted(found)


def test_every_public_name_resolves():
    assert [n for n in bicohom.__all__ if not hasattr(bicohom, n)] == []
    assert len(set(bicohom.__all__)) == len(bicohom.__all__)
    assert [n for n in bicohom.__all__ if n.startswith("_") or isinstance(
        getattr(bicohom, n), types.ModuleType)] == []


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


def test_the_locals_check_sees_unused_locals():
    source = (
        "def f(arg):\n"
        "    a, b = arg\n"
        "    c, _d = b, 1\n"
        "    for i in range(2):\n"
        "        pass\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    def g():\n"
        "        return c\n"
        "    return g\n")
    assert unused_locals(source) == [("f", "a"), ("f", "exc"), ("f", "i")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def unreferenced_private_functions(sources):
    """(module, name) for each private module-level function in `sources`,
    a dict module -> text, that no code in any of them names outside the
    function's own body: by a name, an attribute or an import."""
    defined, named = [], []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            names = set()
            for child in ast.walk(node):
                names.add(getattr(child, "id", getattr(child, "attr", None)))
                if isinstance(child, ast.alias):
                    names.add(child.name)
            named.append(names)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                defined.append((module, node.name, names))
    return sorted((module, name) for module, name, own in defined
                  if not any(name in names for names in named
                             if names is not own))


def test_the_private_function_check_sees_dead_functions():
    sources = {
        "a": "def _dead():\n    pass\n"
             "def _loop(n):\n    return _loop(n - 1)\n"
             "def _helper():\n    pass\n"
             "def public():\n    return _helper()\n"
             "def _called():\n    pass\n"
             "def _imported():\n    pass\n"
             "def __getattr__(name):\n    pass\n"
             "class C:\n    def _method(self):\n        pass\n",
        "b": "from .a import _imported as imported\n"
             "import a\n"
             "TABLE = {'k': a._called}\n"}
    assert unreferenced_private_functions(sources) == [("a", "_dead"),
                                                       ("a", "_loop")]


def test_every_private_function_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def unread_definitions(sources, readers):
    """(module, name) for each function and method in `sources`, a dict
    module -> text, that no text in `readers` reads; a method, named
    "Class.method", is read when some attribute access names it, a function
    when some name or attribute does.  Dunder methods are exempt."""
    names, attrs = set(), set()
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        owner = {child: node for node in ast.walk(tree)
                 for child in ast.iter_child_nodes(node)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or (fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            if isinstance(owner[fn], ast.ClassDef):
                if fn.name not in attrs:
                    found.append((module, owner[fn].name + "." + fn.name))
            elif fn.name not in names | attrs:
                found.append((module, fn.name))
    return sorted(found)


def test_the_unread_check_sees_dead_definitions():
    source = ("def dead():\n    pass\n"
              "def by_name():\n    pass\n"
              "def by_attribute():\n    pass\n"
              "def __getattr__(name):\n    pass\n"
              "class C:\n"
              "    def gone(self):\n        pass\n"
              "    def named_bare(self):\n        pass\n"
              "    def called(self):\n"
              "        def inner():\n            pass\n"
              "        return inner\n"
              "    def __len__(self):\n        return 0\n")
    readers = [source, "by_name()\nmod.by_attribute\nC().called()\n"
                       "named_bare\n"]
    assert unread_definitions({"a": source}, readers) == [
        ("a", "C.gone"), ("a", "C.named_bare"), ("a", "dead")]


def test_every_function_and_method_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for folder in ("src", "tests", "perfbench")
               for p in sorted((REPO / folder).rglob("*.py"))]
    assert unread_definitions(sources, readers) == []


# the attributes of a Morphism, which its two memos rely on, and the one
# function that may fill each memo
FROZEN = ("source", "target", "matrix", "_kernel_image", "_well_defined")
MEMO_WRITER = {"_kernel_image": "kernel_image",
               "_well_defined": "is_well_defined"}


def frozen_writes(source):
    """(function, attribute) for each assignment to or deletion of an
    attribute in FROZEN in `source`, except `self.<attr>` inside an
    `__init__` and a memo inside its MEMO_WRITER function."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in FROZEN \
                    and isinstance(child.ctx, (ast.Store, ast.Del)):
                on_self = isinstance(child.value, ast.Name) and \
                    child.value.id == "self"
                if not (fn == MEMO_WRITER.get(child.attr)
                        or (fn == "__init__" and on_self)):
                    found.append((fn, child.attr))
            visit(child, fn)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_the_frozen_check_sees_writes():
    source = (
        "class M:\n"
        "    def __init__(self, other):\n"
        "        self.matrix = 1\n"
        "        other.source = 2\n"
        "    def bump(self):\n"
        "        self.matrix += 1\n"
        "        del self._kernel_image\n"
        "def kernel_image(f):\n"
        "    f._kernel_image = 3\n"
        "    f._well_defined = True\n"
        "def is_well_defined(self):\n"
        "    self._well_defined = False\n"
        "def rewire(f, g):\n"
        "    f.target, g.width = g.target, 4\n"
        "h.matrix = 5\n")
    assert frozen_writes(source) == [
        ("<module>", "matrix"), ("__init__", "source"),
        ("bump", "_kernel_image"), ("bump", "matrix"),
        ("kernel_image", "_well_defined"), ("rewire", "target")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_morphism_is_changed_after_construction(path):
    assert frozen_writes(path.read_text(encoding="utf-8")) == []


# the only places that may write a group's relation echelon: the
# constructor, the lazy builder and the Howell-basis seed
ECHELON_WRITERS = {"FpGroup.__init__", "FpGroup._reduction", "_seed"}


def echelon_writes(source):
    """(qualified function, line) for each assignment to or deletion of an
    attribute `_echelon` in `source` outside ECHELON_WRITERS."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_echelon" \
                    and isinstance(child.ctx, (ast.Store, ast.Del)):
                name = ".".join(scope) or "<module>"
                if name not in ECHELON_WRITERS:
                    found.append((name, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def test_the_echelon_check_sees_writes():
    source = (
        "class FpGroup:\n"
        "    def __init__(self):\n"
        "        self._echelon = None\n"
        "    def _reduction(self):\n"
        "        self._echelon = 1\n"
        "    def reset(self):\n"
        "        del self._echelon\n"
        "class Other:\n"
        "    def __init__(self):\n"
        "        self._echelon = None\n"
        "def _seed(group, basis):\n"
        "    group._echelon = basis\n"
        "def kernel_image(f):\n"
        "    q._echelon, r = None, 2\n"
        "g._echelon = 3\n")
    assert echelon_writes(source) == [
        ("<module>", 15), ("FpGroup.reset", 7), ("Other.__init__", 10),
        ("kernel_image", 14)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_reduction_and_seed_write_echelons(path):
    assert echelon_writes(path.read_text(encoding="utf-8")) == []


def trusted_uses(source):
    """Line numbers of every reference to an attribute named `_trusted` in
    `source`, called or not."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr == "_trusted")


def test_the_trusted_check_sees_planted_calls():
    source = (
        "from .snf import IntMatrix\n"
        "def f(rows):\n"
        "    return IntMatrix._trusted(rows, 2)\n"
        "build = IntMatrix._trusted\n"
        "trusted = 1\n")
    assert trusted_uses(source) == [3, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_snf_builds_unchecked_matrices(path):
    uses = trusted_uses(path.read_text(encoding="utf-8"))
    assert (uses != []) == (path.name == "snf.py")


def solve_mod_uses(source):
    """(qualified name of the innermost enclosing function or None, line)
    of every reference to a name or attribute `solve_mod` in `source`,
    called or not."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = child.name if owner is None else \
                    owner + "." + child.name
            elif getattr(child, "id", getattr(child, "attr", None)) \
                    == "solve_mod":
                found.append((owner, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_the_solve_mod_check_sees_planted_calls():
    source = (
        "from . import snf\n"
        "from .snf import solve_mod\n"
        "def _solve(a, b):\n"
        "    return solve_mod(a, b)\n"
        "def project(a, b):\n"
        "    return snf.solve_mod(a, b)\n"
        "class Homology:\n"
        "    def project(self, b):\n"
        "        return [solve_mod(self.a, c) for c in b]\n"
        "solver = solve_mod\n")
    assert solve_mod_uses(source) == [("_solve", 4), ("project", 6),
                                      ("Homology.project", 9), (None, 10)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_abgroup_solve_calls_solve_mod(path):
    owners = {owner for owner, _ in
              solve_mod_uses(path.read_text(encoding="utf-8"))}
    assert owners == ({"_solve"} if path.name == "abgroup.py" else set())


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(owner, attr) for _, owner, attr, _ in tracing.TARGETS]


def held_functions(namespace, functions):
    """Names in `namespace` bound to a dict, list, tuple or set that holds
    (at any depth, as a key or a value) one of `functions`."""
    def holds(value):
        if isinstance(value, dict):
            return any(holds(k) or holds(v) for k, v in value.items())
        if isinstance(value, (list, tuple, set, frozenset)):
            return any(holds(v) for v in value)
        return any(value is f for f in functions)
    return sorted(name for name, value in namespace.items()
                  if isinstance(value, (dict, list, tuple, set, frozenset))
                  and holds(value))


def test_every_tracer_target_is_still_an_attribute():
    targets = tracer_targets()
    assert len(targets) > 0
    assert [(getattr(owner, "__name__", owner), attr)
            for owner, attr in targets if attr not in vars(owner)] == []


def test_no_module_table_holds_a_tracer_target():
    functions = [vars(owner)[attr] for owner, attr in tracer_targets()
                 if attr in vars(owner)]
    assert held_functions({"T": {"k": [(functions[0],)]}, "f": functions[0],
                           "S": ("name",)}, functions) == ["T"]
    held = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "bicohom" if path.stem == "__init__" else \
            "bicohom." + path.stem
        found = held_functions(vars(importlib.import_module(name)),
                               functions)
        if found:
            held[name] = found
    assert held == {}
