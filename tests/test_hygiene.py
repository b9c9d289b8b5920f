"""Dead names in the library, found with the standard library's ast: an
import that nothing reads, an import inside a function of a name the
module already imports, and a local name that a function assigns and
never reads; imports of the package's own modules inside a function,
which hide an import cycle; assert statements, which python -O drops;
a bare RuntimeError raised where a check raises InvariantError, or a
class derived from InvariantError; a function or method named to_json,
which would write the report's schema outside report.build_report;
equality or a hash defined outside Record, or a record's own index or
count; a record's property that only forwards an attribute of one of its
fields; code generated at import; X._make for a record whose __new__ does
more than pack its parameters; a nested function that calls itself; a
memo user that the CqsModel docstring does not name, or a name there that
uses no memo; and module-level definitions, methods and properties that
nothing references.  Also: importing the command line loads no module
that only start-up would pay for, and the package
version is the one pyproject.toml declares."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cqsdef

MODULES = sorted(Path(cqsdef.__file__).resolve().parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]

# Nodes that open a scope of their own.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_nodes(scope):
    """The nodes of a scope's body, not descending into nested scopes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES + COMPREHENSIONS):
            todo.extend(ast.iter_child_nodes(node))


def _bound(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _imports(nodes):
    for node in nodes:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                yield node.lineno, _bound(alias)


def _reads(scope) -> set[str]:
    """Every name read in the scope or in a scope nested in it."""
    return {
        node.id
        for node in ast.walk(scope)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def dead_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    module_imports = {name for _, name in _imports(_own_nodes(tree))}
    # The package's own imports are its public names.
    if path.name != "__init__.py":
        reads = _reads(tree)
        for line, name in _imports(_own_nodes(tree)):
            if name not in reads:
                found.append((line, f"unused import {name}"))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(func))
        reads = _reads(func)
        for line, name in _imports(own):
            if name in module_imports:
                found.append((line, f"{func.name} imports {name} again"))
            elif name not in reads:
                found.append((line, f"unused import {name} in {func.name}"))
        declared = {
            name
            for node in own
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        }
        stored = {}
        for node in own:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored[node.id] = min(node.lineno, stored.get(node.id, node.lineno))
        for name, line in stored.items():
            if name not in reads and name not in declared and not name.startswith("_"):
                found.append((line, f"{func.name} assigns {name} and never reads it"))
    return [f"{path.name}:{line}: {msg}" for line, msg in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_names(path):
    assert dead_names(path) == []


def test_dead_names_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import math\n"
        "import os\n"
        "from typing import Optional\n"
        "\n"
        "\n"
        "def f(x: Optional[int]):\n"
        "    import math\n"
        "    import json\n"
        "    y = math.floor(x)\n"
        "    z = y + 1\n"
        "    w = 0\n"
        "    w += 1\n"
        "    total = 0\n"
        "\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total += z\n"
        "\n"
        "    g()\n"
        "    return [v for v in range(total)]\n"
    )
    assert dead_names(path) == [
        "sample.py:2: unused import os",
        "sample.py:7: f imports math again",
        "sample.py:8: unused import json in f",
        "sample.py:11: f assigns w and never reads it",
    ]


def package_imports_in_functions(path: Path) -> list[str]:
    """The relative imports that a function of the module makes.  Every
    module imports its package siblings at the top, so that an import
    cycle fails on import instead of hiding in a function body; a
    standard-library import inside a function is allowed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: {func.name} imports {'.' * node.level}{node.module or ''}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _own_nodes(func)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_package_imports_in_functions(path):
    assert package_imports_in_functions(path) == []


def test_package_imports_in_functions_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .lattice import cf_eval\n"
        "\n"
        "\n"
        "def f(x):\n"
        "    import hashlib\n"
        "    from math import gcd\n"
        "    from .chains import blow_down\n"
        "\n"
        "    def g():\n"
        "        from . import cqs\n"
        "        return cqs\n"
        "\n"
        "    return blow_down(x), gcd(*x), hashlib, g, cf_eval\n"
    )
    assert package_imports_in_functions(path) == [
        "sample.py:7: f imports .chains",
        "sample.py:10: g imports .",
    ]


def assert_lines(path: Path) -> list[int]:
    """The lines of the module's assert statements, which python -O drops;
    the library raises InvariantError instead."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


PYTHON_FLOOR = (3, 10)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    """Every module parses with the grammar of the oldest Python that
    pyproject.toml admits.  ast.parse's feature_version checks grammar
    only, and on a best-effort basis: it does not catch a library call or
    a typing construct that is new since the floor."""
    floor = ".".join(map(str, PYTHON_FLOOR))
    assert f'requires-python = ">={floor}"' in (ROOT / "pyproject.toml").read_text()
    ast.parse(path.read_text(), filename=str(path), feature_version=PYTHON_FLOOR)


def test_syntax_above_the_floor_is_found():
    code = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(code)
    with pytest.raises(SyntaxError):
        ast.parse(code, feature_version=PYTHON_FLOOR)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path) == []


def test_assert_statements_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def f(x):\n"
        "    assert x, 'message'\n"
        "    if x:\n"
        "        assert x > 1\n"
        "    return x\n"
    )
    assert assert_lines(path) == [2, 4]


def runtime_error_lines(path: Path) -> list[int]:
    """The lines where the module raises a bare RuntimeError, called or
    not; a failed check of the library raises InvariantError, so that a
    caller can tell a broken check from any other error."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_runtime_error_raises(path):
    assert runtime_error_lines(path) == []


def test_runtime_error_raises_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .lattice import InvariantError\n"
        "\n"
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise RuntimeError(f'{x} < 0')\n"
        "    if x == 0:\n"
        "        raise RuntimeError\n"
        "    if x == 1:\n"
        "        raise InvariantError('x is 1')\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except RuntimeError:\n"
        "        raise\n"
    )
    assert runtime_error_lines(path) == [5, 7]


def _subclasses(trees, root: str) -> set[str]:
    """The names of the classes of trees that derive from the class named
    root, directly or through one another; a base is read by its name,
    as X or module.X."""
    bases = {
        node.name: {ast.unparse(base).split(".")[-1] for base in node.bases}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = {root}
    while True:
        more = {name for name, names in bases.items() if names & found} - found
        if not more:
            return found - {root}
        found |= more


def _class_members(cls: ast.ClassDef):
    """The names that the class body defines or assigns."""
    for item in cls.body:
        if isinstance(item, DEFINITIONS):
            yield item.name
        elif isinstance(item, ast.Assign):
            yield from (target.id for target in item.targets if isinstance(target, ast.Name))


def value_contract_breaks(paths: list[Path]) -> list[str]:
    """The methods of the modules' classes that break the records' one
    value contract: __eq__, __ne__ or __hash__ in a class other than
    Record, which alone gives equality and a hash, and index or count in
    a record, which would shadow the tuple's."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    records = _subclasses(trees.values(), "Record")
    return [
        f"{path.name}: {node.name}.{name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name != "Record"
        for name in _class_members(node)
        if name in ("__eq__", "__ne__", "__hash__")
        or (name in ("index", "count") and node.name in records)
    ]


def test_only_record_defines_equality_and_no_record_shadows_a_tuple_method():
    assert value_contract_breaks(MODULES) == []


def test_value_contract_breaks_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "class Record(tuple):\n"
        "    def __eq__(self, other):\n"
        "        return type(other) is type(self) and tuple.__eq__(self, other)\n"
        "\n"
        "    __hash__ = tuple.__hash__\n"
        "\n"
        "class Cone(Record):\n"
        "    def __hash__(self):\n"
        "        return hash(self[0])\n"
        "\n"
        "    def index(self):\n"
        "        return 1\n"
        "\n"
        "class Fan(Cone):\n"
        "    count = property(len)\n"
        "\n"
        "class Value:\n"
        "    def __ne__(self, other):\n"
        "        return False\n"
        "\n"
        "    __hash__ = None\n"
        "\n"
        "    def index(self):\n"
        "        return 0\n"
    )
    assert value_contract_breaks([path]) == [
        "sample.py: Cone.__hash__",
        "sample.py: Cone.index",
        "sample.py: Fan.count",
        "sample.py: Value.__ne__",
        "sample.py: Value.__hash__",
    ]


def _forwards(func: ast.FunctionDef) -> bool:
    """Whether the function's body, docstring aside, is only
    return self.<name>.<name>."""
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and body[0].value is not None
        and re.fullmatch(r"self\.\w+\.\w+", ast.unparse(body[0].value)) is not None
    )


def forwarding_properties(paths: list[Path]) -> list[str]:
    """The properties of the modules' records whose body, docstring
    aside, is only return self.<field>.<attr>: a second spelling of a
    fact that the field's own value already names, to be read there."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    records = _subclasses(trees.values(), "Record")
    return [
        f"{path.name}: {cls.name}.{item.name}"
        for path, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in records
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and {ast.unparse(dec) for dec in item.decorator_list} & {"property", "cached_property"}
        and _forwards(item)
    ]


def test_no_forwarding_properties_on_records():
    assert forwarding_properties(MODULES) == []


def test_forwarding_properties_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "class Record(tuple):\n"
        "    pass\n"
        "\n"
        "class Pair(Record):\n"
        "    @property\n"
        "    def h(self):\n"
        "        return self.decomp.h\n"
        "\n"
        "    @property\n"
        "    def label(self):\n"
        "        \"\"\"The decomposition's label.\"\"\"\n"
        "        return self.decomp.label\n"
        "\n"
        "    @cached_property\n"
        "    def n(self):\n"
        "        return self.model.n\n"
        "\n"
        "    @property\n"
        "    def decomp(self):\n"
        "        return self[1]\n"
        "\n"
        "    @property\n"
        "    def width(self):\n"
        "        return self.decomp.p * self.decomp.d\n"
        "\n"
        "    @property\n"
        "    def shift(self):\n"
        "        return segment(self.model, self.decomp.h).m0\n"
        "\n"
        "    def kind(self):\n"
        "        return self.decomp.kind\n"
        "\n"
        "class Triple(Pair):\n"
        "    @property\n"
        "    def q(self):\n"
        "        return self.model.q\n"
        "\n"
        "class Plain:\n"
        "    @property\n"
        "    def h(self):\n"
        "        return self.decomp.h\n"
    )
    assert forwarding_properties([path]) == [
        "sample.py: Pair.h",
        "sample.py: Pair.label",
        "sample.py: Pair.n",
        "sample.py: Triple.q",
    ]


def invariant_error_subclasses(paths: list[Path]) -> list[str]:
    """The classes of the modules that derive from InvariantError: a
    broken check raises InvariantError itself, so that its type alone
    names a failure."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    subclasses = _subclasses(trees.values(), "InvariantError")
    return [
        f"{path.name}: {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name in subclasses
    ]


def test_no_invariant_error_subclasses():
    assert invariant_error_subclasses(MODULES) == []


def test_invariant_error_subclasses_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import lattice\n"
        "from .lattice import InvariantError\n"
        "\n"
        "class InvalidInput(ValueError):\n"
        "    pass\n"
        "\n"
        "class ReportError(InvariantError):\n"
        "    pass\n"
        "\n"
        "class FanError(lattice.InvariantError):\n"
        "    pass\n"
        "\n"
        "class WallError(FanError, KeyError):\n"
        "    pass\n"
    )
    assert invariant_error_subclasses([path]) == [
        "sample.py: ReportError",
        "sample.py: FanError",
        "sample.py: WallError",
    ]


def to_json_definitions(paths: list[Path]) -> list[str]:
    """The functions and methods named to_json that the modules define:
    the report's schema is written by report.build_report alone, so no
    record knows JSON."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner in ast.walk(tree):
            prefix = f"{owner.name}." if isinstance(owner, ast.ClassDef) else ""
            out.extend(
                f"{path.name}: {prefix}to_json"
                for node in ast.iter_child_nodes(owner)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "to_json"
            )
    return out


def test_no_to_json_definitions():
    assert to_json_definitions(MODULES) == []


def test_to_json_definitions_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .record import Record\n"
        "\n"
        "def to_json(value):\n"
        "    return [value]\n"
        "\n"
        "class Pair(Record):\n"
        "    def to_json(self, verbose=False):\n"
        "        return {}\n"
        "\n"
        "    def to_text(self):\n"
        "        def to_json():\n"
        "            return []\n"
        "        return str(to_json())\n"
        "\n"
        "class Writer:\n"
        "    async def to_json(self):\n"
        "        return None\n"
    )
    assert sorted(to_json_definitions([path])) == [
        "sample.py: Pair.to_json",
        "sample.py: Writer.to_json",
        "sample.py: to_json",
        "sample.py: to_json",
    ]


def unnamed_builders(path: Path) -> list[int]:
    """The lines of the module's .cached(key, build, *args) calls whose
    build is not a named function, such as a lambda: a builder is a
    function of the arguments that cached() is given, not a fresh closure
    made on every lookup."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "cached"
        and not (len(node.args) >= 2 and isinstance(node.args[1], (ast.Name, ast.Attribute)))
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_cached_builders_are_named(path):
    assert unnamed_builders(path) == []


def test_unnamed_builders_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from . import chains\n"
        "\n"
        "def f(model, h):\n"
        "    a = model.cached('K', lambda: tuple(chains.zero_chains(model)))\n"
        "    b = model.cached(('segment', h), _build_segment, model, h)\n"
        "    c = model.cached('K', chains.zero_chains_bounded, model.a_chain)\n"
        "    d = model.cached(\n"
        "        ('s', h), lambda m: m.e, model\n"
        "    )\n"
        "    e = model.cached('x', build=lambda: 1)\n"
        "    return a, b, c, d, e\n"
    )
    assert unnamed_builders(path) == [4, 7, 10]


def _packs_its_parameters(func: ast.FunctionDef) -> bool:
    """Whether a __new__ is exactly return tuple.__new__(cls, (<its other
    parameters, in order>))."""
    args = func.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs or len(func.body) != 1:
        return False
    names = [arg.arg for arg in args.args]
    ret = func.body[0]
    return (
        isinstance(ret, ast.Return)
        and isinstance(ret.value, ast.Call)
        and ast.unparse(ret.value.func) == "tuple.__new__"
        and not ret.value.keywords
        and len(ret.value.args) == 2
        and ast.unparse(ret.value.args[0]) == names[0]
        and isinstance(ret.value.args[1], ast.Tuple)
        and [ast.unparse(elt) for elt in ret.value.args[1].elts] == names[1:]
    )


def unsafe_makes(paths: list[Path]) -> list[str]:
    """Where the modules read X._make for a class X whose __new__ does more
    than pack its parameters, or that defines no __new__ of its own:
    _make builds a record without calling __new__, so it would skip a
    memo or a normalisation that __new__ sets up."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    plain = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef)
            and item.name == "__new__"
            and _packs_its_parameters(item)
            for item in node.body
        )
    }
    found = [
        (path.name, node.lineno, node.col_offset, ast.unparse(node))
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "_make"
        and not (isinstance(node.value, ast.Name) and node.value.id in plain)
    ]
    return [f"{name}:{line}: {text}" for name, line, _, text in sorted(found)]


def test_make_only_for_plain_records():
    assert unsafe_makes(MODULES) == []


def test_unsafe_makes_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "class Plain(Record):\n"
        "    def __new__(cls, a, b=0):\n"
        "        return tuple.__new__(cls, (a, b))\n"
        "\n"
        "class Memo(Record):\n"
        "    def __new__(cls, a, b):\n"
        "        self = tuple.__new__(cls, (a, b))\n"
        "        self.__dict__['_memo'] = {}\n"
        "        return self\n"
        "\n"
        "class Swapped(Record):\n"
        "    def __new__(cls, a, b):\n"
        "        return tuple.__new__(cls, (b, a))\n"
        "\n"
        "class Sub(Plain):\n"
        "    pass\n"
        "\n"
        "make = Plain._make\n"
        "x = make((1, 2)), Plain._make((3, 4))\n"
        "y = Memo._make((1, 2)), Swapped._make((1, 2)), Sub._make((1, 2))\n"
        "z = records.Plain._make((1, 2))\n"
    )
    assert unsafe_makes([path]) == [
        "sample.py:20: Memo._make",
        "sample.py:20: Swapped._make",
        "sample.py:20: Sub._make",
        "sample.py:21: records.Plain._make",
    ]


def recursive_closures(path: Path) -> list[str]:
    """The functions nested in a function that call themselves by name.
    Such a closure holds the cell that holds it, so every call of the
    enclosing function leaves a reference cycle that only the cyclic
    garbage collector frees, with whatever the closure reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(outer):
            if (
                inner is not outer
                and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == inner.name
                    for node in ast.walk(inner)
                )
            ):
                found.add((inner.lineno, inner.name))
    return [f"{path.name}:{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_recursive_closures(path):
    assert recursive_closures(path) == []


def test_recursive_closures_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def top(n):\n"
        "    return top(n - 1) if n else 0\n"
        "\n"
        "def outer(bounds):\n"
        "    def rec(pos):\n"
        "        return [rec(pos + 1)] if pos < len(bounds) else []\n"
        "\n"
        "    def helper(x):\n"
        "        return top(x)\n"
        "\n"
        "    def middle():\n"
        "        def deep(k):\n"
        "            return deep(k - 1) if k else helper(k)\n"
        "        return deep(3)\n"
        "\n"
        "    return rec(0), middle()\n"
        "\n"
        "class C:\n"
        "    def method(self, n):\n"
        "        return self.method(n - 1) if n else 0\n"
    )
    assert recursive_closures(path) == ["sample.py:5: rec", "sample.py:12: deep"]


def memo_user_drift(paths: list[Path], model_path: Path) -> list[str]:
    """How the functions of the modules that call .cached( differ from
    the memo users that the CqsModel docstring in model_path names, in
    its sentence "the results that f, g and h derive from": a call inside
    a lambda or a comprehension counts for the function around it."""
    callers = set()
    for path in paths:
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            todo = list(ast.iter_child_nodes(func))
            while todo:
                node = todo.pop()
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "cached"
                ):
                    callers.add(func.name)
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    todo.extend(ast.iter_child_nodes(node))
    tree = ast.parse(model_path.read_text(), filename=str(model_path))
    doc = next(
        ast.get_docstring(node) or ""
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "CqsModel"
    )
    listed = re.search(r"the results that (.+?) derive from", doc, re.DOTALL)
    named = set(re.split(r",\s*|\s+and\s+", listed.group(1))) if listed else set()
    return sorted(
        [
            f"{name} calls cached() but the CqsModel docstring does not name it"
            for name in callers - named
        ]
        + [
            f"the CqsModel docstring names {name}, which calls no cached()"
            for name in named - callers
        ]
    )


def test_memo_users_are_the_documented_ones():
    """The functions that call .cached( in the library are exactly those
    the CqsModel docstring names as the memo's users."""
    cqs = next(path for path in MODULES if path.name == "cqs.py")
    assert memo_user_drift(MODULES, cqs) == []


def test_memo_user_drift_is_found(tmp_path):
    model = tmp_path / "cqs.py"
    model.write_text(
        "class CqsModel:\n"
        "    \"\"\"_memo holds the results that segment, fiber_types\n"
        "    and slices derive from this model.\"\"\"\n"
        "\n"
        "    def cached(self, key, build, *args):\n"
        "        return build(*args)\n"
    )
    user = tmp_path / "user.py"
    user.write_text(
        "def segment(model, h):\n"
        "    return model.cached(('segment', h), _build, model, h)\n"
        "\n"
        "\n"
        "def slices(model):\n"
        "    return [model.cached(('s', h), _build, model, h) for h in range(3)]\n"
        "\n"
        "\n"
        "def fiber_types(model):\n"
        "    def inner():\n"
        "        return model.cached('k', _build, model, 0)\n"
        "\n"
        "    return inner()\n"
        "\n"
        "\n"
        "def _build(model, h):\n"
        "    return h\n"
    )
    assert memo_user_drift([model, user], model) == [
        "inner calls cached() but the CqsModel docstring does not name it",
        "the CqsModel docstring names fiber_types, which calls no cached()",
    ]
    model.write_text("class CqsModel:\n    pass\n")
    assert memo_user_drift([user], model) == [
        f"{name} calls cached() but the CqsModel docstring does not name it"
        for name in ("inner", "segment", "slices")
    ]


def generated_code(path: Path) -> list[str]:
    """Where the module builds code at import: an import of dataclasses,
    whose decorator compiles each class's methods with exec and whose
    import loads inspect, or a use of the builtins exec and compile or of
    namedtuple.  The library's value types are records (record.Record)
    instead."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module]
        else:
            modules = []
        if "dataclasses" in modules:
            found.append(f"{path.name}:{node.lineno}: imports dataclasses")
        if isinstance(node, ast.Name) and node.id in ("exec", "compile", "namedtuple"):
            found.append(f"{path.name}:{node.lineno}: uses {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr == "namedtuple":
            found.append(f"{path.name}:{node.lineno}: uses namedtuple")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_generated_code(path):
    assert generated_code(path) == []


def test_generated_code_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "import re\n"
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "import collections\n"
        "from collections import namedtuple\n"
        "\n"
        "Point = collections.namedtuple('Point', 'x y')\n"
        "exec('z = 1')\n"
        "pattern = re.compile('a+')\n"
        "code = compile('1', '<s>', 'eval')\n"
    )
    assert generated_code(path) == [
        "sample.py:2: imports dataclasses",
        "sample.py:3: imports dataclasses",
        "sample.py:7: uses namedtuple",
        "sample.py:8: uses exec",
        "sample.py:10: uses compile",
    ]


# Modules that importing the command line must not load: dataclasses and
# inspect, which cost a few milliseconds of every start-up; csv, which
# only scan reads; and fractions (with decimal, which it imports), which
# only the figures and a few helpers off the report path read.
STARTUP_FREE = ("csv", "dataclasses", "fractions", "inspect")


def startup_modules(statement: str) -> list[str]:
    """Which of STARTUP_FREE running statement adds to sys.modules, in a
    fresh interpreter with this checkout of cqsdef on its path."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        f"print(*sorted(set({STARTUP_FREE!r}) & (set(sys.modules) - before)))\n"
    )
    src = str(Path(cqsdef.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
        check=True,
    )
    return out.stdout.decode().split()


def test_cli_import_loads_no_startup_free_module():
    assert startup_modules("import cqsdef.cli") == []


def test_startup_modules_are_found():
    assert startup_modules("import cqsdef.cli, csv, dataclasses, fractions") == list(
        STARTUP_FREE
    )
    assert startup_modules("import csv") == ["csv"]
    assert startup_modules("from cqsdef import geometry3; geometry3.prim3_rational((1, 2, 3))") == [
        "fractions"
    ]


def placeholder_free_fstrings(path: Path) -> list[int]:
    """The lines of the module's f-strings that have no placeholder and
    so are plain strings.  The format spec of a placeholder, such as
    ``:.4f``, is stored as an f-string too, and is not one of them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = list(ast.walk(tree))
    specs = {id(node.format_spec) for node in nodes if isinstance(node, ast.FormattedValue)}
    return sorted(
        node.lineno
        for node in nodes
        if isinstance(node, ast.JoinedStr)
        and id(node) not in specs
        and not any(isinstance(v, ast.FormattedValue) for v in node.values)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_placeholder_free_fstrings(path):
    assert placeholder_free_fstrings(path) == []


def test_placeholder_free_fstrings_are_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "x = 1.5\n"
        "a = f'plain'\n"
        "b = f'{x:.2f}'\n"
        "c = (f'split '\n"
        "     f'{x}')\n"
        "d = f'{x!r:>{8}}'\n"
        "e = f''\n"
    )
    assert placeholder_free_fstrings(path) == [2, 7]


SOURCES = sorted(
    path for part in ("src", "tests", "perfbench") for path in (ROOT / part).rglob("*.py")
)


def _referenced(path: Path, unread: frozenset = frozenset()) -> set[str]:
    """Every name the file reads or spells as a (dotted) string, except
    where a definition reads its own name and inside a definition whose
    name is in unread.  An import is not a read: a name imported at the
    top and read only inside unread definitions is not found."""
    found = set()
    todo = [(ast.parse(path.read_text(), filename=str(path)), frozenset())]
    while todo:
        node, own = todo.pop()
        if isinstance(node, DEFINITIONS):
            if node.name in unread:
                continue
            own = own | {node.name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = node.value.split(".")
        else:
            names = []
        found.update(name for name in names if name not in own)
        todo.extend((child, own) for child in ast.iter_child_nodes(node))
    return found


def _definitions(tree: ast.Module):
    """(shown name, name) of each module-level function and class, and of
    each method and property of those classes other than dunders."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFINITIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name


def unreferenced_definitions(modules, sources) -> list[str]:
    """Module-level functions and classes of modules, and the methods and
    properties of those classes, that no file of sources references
    outside their own definition and the definitions so found: a name
    that only unreferenced definitions read is unreferenced too."""
    defined = [
        (path.name, shown, name)
        for path in modules
        for shown, name in _definitions(ast.parse(path.read_text(), filename=str(path)))
    ]
    unread = frozenset()
    while True:
        referenced = set().union(*(_referenced(path, unread) for path in sources))
        found = frozenset(name for _, _, name in defined if name not in referenced)
        if found == unread:
            return [f"{module}: {shown}" for module, shown, name in defined if name in unread]
        unread = found


def test_every_definition_is_referenced():
    assert unreferenced_definitions(MODULES, SOURCES) == []


# Without __init__.py, whose imports re-export names and read none.
LIBRARY_SOURCES = [
    path
    for path in SOURCES
    if path.relative_to(ROOT).parts[0] != "tests" and path.name != "__init__.py"
]


def test_the_library_reads_what_it_defines():
    """What the library and the benchmark define, they read; a name that
    only tests, or only such names, read is listed here with its reason."""
    assert unreferenced_definitions(MODULES, LIBRARY_SOURCES) == [
        # Exported inverse of to_display_coords.
        "cqs.py: from_display_coords",
        # Documented in the README as the way to build a cone from rational
        # rays, and the generic oracle for Cone3.over_summands' closed form.
        "geometry3.py: Cone3.from_rays",
        # The generic derivation of a cone's spans, which only from_rays
        # reads; over_summands writes the spans in closed form.
        "geometry3.py: _spans",
    ]


def test_unreferenced_definitions_are_found(tmp_path):
    helpers = tmp_path / "helpers.py"
    helpers.write_text("def kept():\n    return 2\n\n\ndef imported():\n    return 4\n")
    lib = tmp_path / "lib.py"
    lib.write_text(
        "from helpers import imported, kept\n"
        "\n"
        "\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def by_name():\n"
        "    return kept()\n"
        "\n"
        "\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used()\n"
        "\n"
        "\n"
        "def middle():\n"
        "    return leaf()\n"
        "\n"
        "\n"
        "def leaf():\n"
        "    return 3\n"
        "\n"
        "\n"
        "class Unused:\n"
        "    def make(self) -> 'Unused':\n"
        "        return Unused()\n"
        "\n"
        "\n"
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "\n"
        "    def called(self):\n"
        "        return self.spelled\n"
        "\n"
        "    @property\n"
        "    def spelled(self):\n"
        "        return self.n\n"
        "\n"
        "    @property\n"
        "    def unread(self):\n"
        "        return self.unread\n"
        "\n"
        "    def uncalled(self):\n"
        "        return self.called() + middle() + imported()\n"
    )
    user = tmp_path / "user.py"
    user.write_text("import lib\n\nlib.used()\ngetattr(lib, 'by_name')\nlib.Used().called()\n")
    assert unreferenced_definitions([helpers, lib], [helpers, lib, user]) == [
        "helpers.py: imported",
        "lib.py: recursive",
        "lib.py: middle",
        "lib.py: leaf",
        "lib.py: Unused",
        "lib.py: Unused.make",
        "lib.py: Used.unread",
        "lib.py: Used.uncalled",
    ]


def test_version_matches_pyproject():
    """The checkpoint header writes cqsdef.__version__, so it must be the
    version that pyproject.toml declares."""
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version = "([^"]+)"$', project, re.M)
    assert declared and declared.group(1) == cqsdef.__version__
