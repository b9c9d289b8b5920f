"""Dead names in the library, found with the standard library's ast: an
import that nothing reads, an import inside a function of a name the
module already imports, and a local name that a function assigns and
never reads; imports of the package's own modules inside a function,
which hide an import cycle; assert statements, which python -O drops;
code generated at import; and module-level definitions, methods and
properties that nothing references.  Also: importing the command line
loads no module that only start-up would pay for, and the package
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
# inspect, which cost a few milliseconds of every start-up, and csv,
# which only scan reads.
STARTUP_FREE = ("csv", "dataclasses", "inspect")


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
    assert startup_modules("import cqsdef.cli, csv, dataclasses") == list(STARTUP_FREE)
    assert startup_modules("import csv") == ["csv"]


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
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(path: Path) -> set[str]:
    """Every name the file reads, imports or spells as a (dotted) string,
    except where a definition reads its own name."""
    found = set()
    todo = [(ast.parse(path.read_text(), filename=str(path)), frozenset())]
    while todo:
        node, own = todo.pop()
        if isinstance(node, DEFINITIONS):
            own = own | {node.name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.split(".")[-1]]
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
    outside their own definition."""
    referenced = set().union(*(_referenced(path) for path in sources))
    return [
        f"{path.name}: {shown}"
        for path in modules
        for shown, name in _definitions(ast.parse(path.read_text(), filename=str(path)))
        if name not in referenced
    ]


def test_every_definition_is_referenced():
    assert unreferenced_definitions(MODULES, SOURCES) == []


LIBRARY_SOURCES = [path for path in SOURCES if path.relative_to(ROOT).parts[0] != "tests"]


def test_the_library_reads_what_it_defines():
    """What the library and the benchmark define, they read; a name that
    only tests read is exported in __init__ (an import counts as a read)
    or listed here with its reason."""
    assert unreferenced_definitions(MODULES, LIBRARY_SOURCES) == [
        # Documented in the README as the way to build a cone from rational
        # rays, and the generic oracle for Cone3.over_summands' closed form.
        "geometry3.py: Cone3.from_rays",
        # Criterion 3's independent route to component membership, through
        # the symbolic versal map (theta_rewrite, lies_in_component).
        "totalspace.py: components_of_symbolic",
    ]


def test_unreferenced_definitions_are_found(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def by_name():\n"
        "    return 2\n"
        "\n"
        "\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else used()\n"
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
        "        return self.called()\n"
    )
    user = tmp_path / "user.py"
    user.write_text("import lib\n\nlib.used()\ngetattr(lib, 'by_name')\nlib.Used()\n")
    assert unreferenced_definitions([lib], [lib, user]) == [
        "lib.py: recursive",
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
