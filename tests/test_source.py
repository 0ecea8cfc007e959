"""Source rules of the core package: stdlib-only imports and no floats.

The raster bounds ``fm._bounds``, ``fm._step_segments``,
``fm._staircase_spans`` and the step-line congruence
``fm._first_step_hit``, the staircase heights ``fm.Chart.gamma`` and the
extra threshold ``fm._extra_threshold``, the
Fourier-Motzkin elimination ``exactlin.linear_feasible`` with its
primitive rows ``exactlin._primitive``, the stalk and Koszul count
``cohoracle._euler_sum``, its term tables ``cohoracle._euler_terms`` and
scaled entry ``cohoracle.stalk_euler_scaled``, the refined module
intervals ``cohoracle._refined_scaled``, and the oracle box guard
``cohoracle._check_thresholds`` with the per-theta ``oracle_support``
run on integers scaled by one common denominator, so their bodies also
hold no true division (a stray ``/`` on ints yields a float that the
float-literal rule cannot see) and no ``Fraction``.  A rule names a
top-level function, or a method of a top-level class as ``Class.method``.

No module of the package imports ``dataclasses``, ``inspect``, ``ast`` or
``dis``, and a fresh ``import ccc.cli`` is checked to leave none of them
loaded.  ``dataclasses`` pulls in the other three, and each decorated
class ``exec``s its generated methods at import, which bytecode caching
cannot spare: every cold ``ccc`` job would pay about 30 ms for it.

Every ``functools`` cache of the package is bounded: ``lru_cache`` takes a
finite ``maxsize``, and ``functools.cache`` is not used.

Every top-level ``def``, ``class`` and assigned name of the package is also
read somewhere in the package, outside its own definition: a dead helper or
constant is deleted, not kept.  So is every method of a top-level class,
read as ``.name``; dunders, and names a base class already defines, are
called by the language or the base, so they are exempt.  Reads from the tests do not count.  The one
exemption is ``TEST_ROUTES``: the independent routes and paper statements
that only the tests read, each with the reason it stays in the package.
Each entry is defined once at the top of the package, read by no package
code outside itself (else the entry is stale), and read by some test.  A
wrapper that only chains package calls for the tests lives in the tests.
"""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ccc

SOURCES = sorted(Path(ccc.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))

# the console script of pyproject.toml, read by no module
ENTRY_POINTS = {"main"}

# package definitions that only tests read -> the route or criterion each serves
TEST_ROUTES = {
    "as_pixel_predicate": "the Fraction membership closure that raster_runs is checked against",
    "raster_pixels": "the pixel-by-pixel walk of that closure, the oracle of raster_runs",
    "koszul_euler": "the Koszul resolution's Euler count, checked against q2_member",
    "q2_member": "Q2 membership through the pinned gamma, checked against koszul_euler",
    "q2_member_enum": "Q2 membership by an m-window search, checked against q2_member",
    "module_points": "the chart-lattice points the oracle's refined intervals are checked against",
    "ample_polytope": "the polytope of a bundle and its Q-ampleness, for criterion 10",
    "minkowski_sum": "the polytope sum whose tensor-product identity criterion 10 checks",
    "fm_line_bundle_case3": "the pull of a bundle, whose round trip criterion 02 checks",
    "case1_pullback": "the pullback to the lcm refinement that fm_case1 factors through",
    "case1_pushforward": "the pushforward from the lcm refinement that fm_case1 factors through",
}

# stdlib modules whose import cost a cold ``ccc`` start does not pay
COLD_START_FREE = ("dataclasses", "inspect", "ast", "dis")

# integer-only function or Class.method -> the module that defines it
INTEGER_ONLY = {
    "_bounds": "fm.py",
    "_step_segments": "fm.py",
    "_staircase_spans": "fm.py",
    "_first_step_hit": "fm.py",
    "_extra_threshold": "fm.py",
    "Chart.gamma": "fm.py",
    "linear_feasible": "exactlin.py",
    "_primitive": "exactlin.py",
    "_euler_sum": "cohoracle.py",
    "_euler_terms": "cohoracle.py",
    "stalk_euler_scaled": "cohoracle.py",
    "_refined_scaled": "cohoracle.py",
    "_check_thresholds": "cohoracle.py",
    "oracle_support": "cohoracle.py",
}


def _definitions(tree: ast.Module):
    """(name, def) of each top-level function and, as Class.method, each method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _integer_violations(name: str, func: ast.FunctionDef) -> list[str]:
    found = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {node.lineno}: true division in {name}")
        if isinstance(node, ast.Name) and node.id == "Fraction":
            found.append(f"line {node.lineno}: Fraction in {name}")
    return found


def _unbounded_cache(node: ast.AST) -> bool:
    """functools.cache, imported or read as an attribute, or lru_cache(maxsize=None)."""
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name == "cache" for alias in node.names)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "functools" and node.attr == "cache"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        sizes = [*node.args[:1], *(kw.value for kw in node.keywords if kw.arg == "maxsize")]
        return name == "lru_cache" and any(
            isinstance(size, ast.Constant) and size.value is None for size in sizes
        )
    return False


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if _unbounded_cache(node):
            found.append(f"line {node.lineno}: unbounded cache")
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                found.append(f"line {node.lineno}: imports {name}")
            elif name.split(".")[0] in COLD_START_FREE:
                found.append(f"line {node.lineno}: imports {name}, paid by every cold start")
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"line {node.lineno}: float() call")
    for name, node in _definitions(tree):
        if name in INTEGER_ONLY:
            found += _integer_violations(name, node)
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"exactlin.py", "fm.py", "cohoracle.py"}


def test_integer_only_functions_found():
    for name, module in INTEGER_ONLY.items():
        tree = ast.parse((Path(ccc.__file__).parent / module).read_text(encoding="utf-8"))
        # a top-level def or method, so that a rename, or a nested helper of
        # the same name, cannot leave the rule guarding nothing
        defined = [found for found, _ in _definitions(tree)]
        assert defined.count(name) == 1, f"{name} is not defined once at the top of {module}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_core_is_stdlib_only_and_float_free(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _violations(tree) == []


def test_guard_flags_each_rule():
    tree = ast.parse(
        "import numpy\nfrom os import path\nx = 0.5\ny = float(3)\n"
        "def _bounds(a, b):\n    a /= b\n    return Fraction(a)\n"
    )
    assert _violations(tree) == [
        "line 1: imports numpy",
        "line 3: float literal 0.5",
        "line 4: float() call",
        "line 6: true division in _bounds",
        "line 7: Fraction in _bounds",
    ]
    caches = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef f():\n    pass\n"
        "g = functools.lru_cache(None)(len)\nh = functools.cache(len)\n"
        "@lru_cache(maxsize=64)\ndef k():\n    pass\n"
        "m = functools.lru_cache(1 << 10)(len)\n"
    )
    assert sorted(_violations(caches)) == [
        "line 2: unbounded cache",
        "line 3: unbounded cache",
        "line 6: unbounded cache",
        "line 7: unbounded cache",
    ]
    slow = ast.parse("import dataclasses\nfrom dataclasses import dataclass\nimport os, inspect\n")
    assert _violations(slow) == [
        "line 1: imports dataclasses, paid by every cold start",
        "line 2: imports dataclasses, paid by every cold start",
        "line 3: imports inspect, paid by every cold start",
    ]
    for name in INTEGER_ONLY:
        owner, _, func = name.rpartition(".")
        source = f"def {func}(a, b):\n    return Fraction(a) / b\n"
        if owner:
            source = f"class {owner}:\n" + textwrap.indent(source, "    ")
        line = source.count("\n")
        assert _violations(ast.parse(source)) == [
            f"line {line}: true division in {name}",
            f"line {line}: Fraction in {name}",
        ]


def test_cold_import_loads_no_generated_class_machinery():
    # a fresh interpreter with its site, as a `ccc` job starts
    code = "import sys, ccc.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(ccc.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code, *COLD_START_FREE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def _loads(tree: ast.AST, attributes_only: bool = False) -> list[str]:
    """The names a tree reads, as bare names or as attributes."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not attributes_only:
                found.append(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append(node.attr)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a top-level def, class or assignment binds, dunders left out."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if not _is_dunder(name)]


def _dead_definitions(
    modules: dict[str, ast.Module], exempt=frozenset(), inherited=frozenset()
) -> list[str]:
    """Top-level defs, classes, constants and methods of modules that no module reads.

    Only the modules are readers; a load inside the definition itself, as
    in a recursive call, does not count.  A method counts as read only as
    an attribute, ``.name``; dunders and the Class.method names of
    inherited are skipped, and so are the top-level names of exempt.
    """
    loads: dict[str, int] = {}
    attributes: dict[str, int] = {}
    for tree in modules.values():
        for name in _loads(tree):
            loads[name] = loads.get(name, 0) + 1
        for name in _loads(tree, attributes_only=True):
            attributes[name] = attributes.get(name, 0) + 1
    dead = []
    for module, tree in modules.items():
        for node in tree.body:
            for name in _bound_names(node):
                unread = loads.get(name, 0) == _loads(node).count(name)
                if unread and name not in exempt:
                    dead.append(f"{module}: {name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or _is_dunder(item.name):
                    continue
                if f"{node.name}.{item.name}" in inherited:
                    continue
                own = _loads(item, attributes_only=True).count(item.name)
                if attributes.get(item.name, 0) == own:
                    dead.append(f"{module}: {node.name}.{item.name}")
    return dead


def _stale_routes(routes, modules: dict[str, ast.Module], tests: list[ast.Module]) -> list[str]:
    """Each route name not defined once at the top of modules, read by them, or unread by tests."""
    found = []
    for name in routes:
        defs = [
            node
            for tree in modules.values()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        ]
        if len(defs) != 1:
            found.append(f"{name}: defined {len(defs)} times")
            continue
        reads = sum(_loads(tree).count(name) for tree in modules.values())
        if reads != _loads(defs[0]).count(name):
            found.append(f"{name}: read by the package")
        if not any(name in _loads(tree) for tree in tests):
            found.append(f"{name}: read by no test")
    return found


def _inherited_methods() -> set[str]:
    """Class.method of each package class whose name a base class also defines."""
    found = set()
    for path in SOURCES:
        name = "ccc" if path.stem == "__init__" else f"ccc.{path.stem}"
        module = importlib.import_module(name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != name:
                continue
            for attr in vars(cls):
                if any(attr in vars(base) for base in cls.__mro__[1:]):
                    found.add(f"{cls.__name__}.{attr}")
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_definition_is_read():
    modules = {path.name: _parse(path) for path in SOURCES}
    assert _dead_definitions(modules, ENTRY_POINTS | set(TEST_ROUTES), _inherited_methods()) == []


def test_test_routes_are_defined_once_and_read_only_by_tests():
    modules = {path.name: _parse(path) for path in SOURCES}
    tests = [_parse(path) for path in TESTS if path.name != Path(__file__).name]
    assert _stale_routes(TEST_ROUTES, modules, tests) == []


def test_inherited_methods_are_the_overrides():
    inherited = {name for name in _inherited_methods() if not _is_dunder(name.split(".")[1])}
    assert inherited == {"_Parser.error", "_Parser.print_help"}


def test_dead_definition_rule_flags_unread_names():
    module = ast.parse(
        "def used():\n    return helper() + CAP\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Unread:\n    pass\n"
        "def main():\n    pass\n"
        "CAP = 4\n__version__ = '1'\nSPARE: int = 2\nLOW, HIGH = 0, 1\nUNREAD = UNREAD\n"
    )
    assert _dead_definitions({"m.py": module}, {"main", "HIGH"}) == [
        "m.py: used",
        "m.py: recursive",
        "m.py: Unread",
        "m.py: SPARE",
        "m.py: LOW",
        "m.py: UNREAD",
    ]
    caller = ast.parse("import m\ndef run():\n    return m.used() + m.LOW + m.SPARE\n")
    assert _dead_definitions({"m.py": module, "c.py": caller}, {"main", "run"}) == [
        "m.py: recursive",
        "m.py: Unread",
        "m.py: HIGH",
        "m.py: UNREAD",
    ]


def test_dead_definition_rule_reads_no_test_and_honours_declared_routes():
    module = ast.parse(
        "def run():\n    return inner() + stale()\n"
        "def inner():\n    return 1\n"
        "def stale():\n    return 2\n"
        "def helper():\n    return 3\n"
        "def untested():\n    return 4\n"
    )
    test = ast.parse("from m import helper, inner\nhelper()\ninner()\n")
    # the rule takes no test tree: helper, read only by the test, is flagged
    # until it is declared
    assert _dead_definitions({"m.py": module}, {"run"}) == [
        "m.py: helper",
        "m.py: untested",
    ]
    assert _dead_definitions({"m.py": module}, {"run", "helper", "untested"}) == []
    routes = {"helper": "", "stale": "", "untested": "", "gone": ""}
    assert _stale_routes(routes, {"m.py": module}, [test]) == [
        "stale: read by the package",
        "stale: read by no test",
        "untested: read by no test",
        "gone: defined 0 times",
    ]


def test_dead_definition_rule_flags_unread_methods():
    module = ast.parse(
        "class Shape:\n"
        "    def __init__(self):\n        pass\n"
        "    def area(self):\n        return self.side()\n"
        "    def side(self):\n        return 1\n"
        "    def spin(self):\n        return self.spin()\n"
        "    def error(self):\n        pass\n"
        "    def unread(self):\n        pass\n"
    )
    # a bare name is not a method read
    reader = ast.parse("import m\nm.Shape().area()\nunread = 0\nprint(unread)\n")
    modules = {"m.py": module, "r.py": reader}
    assert _dead_definitions(modules, inherited={"Shape.error"}) == [
        "m.py: Shape.spin",
        "m.py: Shape.unread",
    ]
    assert _dead_definitions(modules) == [
        "m.py: Shape.spin",
        "m.py: Shape.error",
        "m.py: Shape.unread",
    ]
