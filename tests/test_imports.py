"""Every name a module of the package imports is used in that module,
every module-level function or class of the package is used somewhere,
no class of the package guards its attributes by hand, and no module
or run of the package loads scipy.

No linter runs with the tests, so this parses each source file with
`ast`: an imported name counts as used if it appears as a name in the
code or inside a quoted annotation.  The relative imports of
`__init__.py` are the package's re-exports and are exempt.  A
module-level definition counts as used if its name is loaded, imported
or read as an attribute anywhere in the package, the tests or the
benchmark, outside its own definition.
"""

import ast
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sqmlab

MODULES = sorted(Path(sqmlab.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside an annotation, reading a quoted one as code."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """Imported names never used in `source`, in import order."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__" and not (reexports and node.level):
                imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .linalg import Ket\n"
        "def f(x: 'Optional[int]') -> Sequence[int]:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["math", "os", "Ket"]
    assert unused_imports(source, reexports=True) == ["math", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text(), reexports=path.name == "__init__.py") == []


def names_used(source: str) -> set[str]:
    """Names `source` loads, imports or reads as attributes.

    Inside a module-level definition its own name does not count, so
    recursion alone does not make a function used.
    """
    used = set()
    for top in ast.parse(source).body:
        here = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
            elif isinstance(node, ast.alias):
                here.add(node.name.rpartition(".")[2])
        if isinstance(top, DEFINITIONS):
            here.discard(top.name)
        used |= here
    return used


@functools.cache
def _used_anywhere() -> frozenset[str]:
    sources = [*MODULES, *(REPO / "tests").glob("*.py"), *(REPO / "perfbench").glob("*.py")]
    return frozenset().union(*(names_used(path.read_text()) for path in sources))


def test_checker_finds_an_unused_definition():
    source = (
        "import math\n"
        "def twice(n):\n"
        "    return 2 * half(n)\n"
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "class Box:\n"
        "    pass\n"
        "def area(r):\n"
        "    return math.pi * r * r\n"
        "def half(n):\n"
        "    return n / 2\n"
        "print(area(1.0), Box, twice)\n"
    )
    assert {"math", "area", "Box", "print", "half"} <= names_used(source)
    assert "fact" not in names_used(source)
    assert "pi" in names_used(source)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_defines_only_what_is_used(path):
    defined = [n.name for n in ast.parse(path.read_text()).body if isinstance(n, DEFINITIONS)]
    assert [name for name in defined if name not in _used_anywhere()] == []


def attribute_guards(source: str) -> list[str]:
    """Hand-written immutability in `source`, by line.

    A class method named __setattr__ or __delattr__, and a call of
    object.__setattr__ outside a function named __init__ or __post_init__.
    """
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(node, ast.ClassDef) and child.name in ("__setattr__", "__delattr__"):
                    found.append(f"{child.lineno}: def {child.name}")
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__setattr__"
                    and func not in ("__init__", "__post_init__")):
                found.append(f"{child.lineno}: object.__setattr__ in {func}")
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_checker_finds_attribute_guards():
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        object.__setattr__(self, 'a', 1)\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'b', 2)\n"
        "    def __setattr__(self, name, value):\n"
        "        raise AttributeError(name)\n"
        "    def __delattr__(self, name):\n"
        "        raise AttributeError(name)\n"
        "def fill(box):\n"
        "    object.__setattr__(box, 'c', 3)\n"
        "object.__setattr__(Box, 'd', 4)\n"
    )
    assert attribute_guards(source) == [
        "6: def __setattr__", "8: def __delattr__",
        "11: object.__setattr__ in fill", "12: object.__setattr__ in None",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_immutability_is_left_to_dataclasses(path):
    """Records are frozen dataclasses: only their constructors write past the freeze."""
    assert attribute_guards(path.read_text()) == []


# In a fresh interpreter: import the CLI and every module of the benchmark,
# list the scipy modules loaded, then refuse scipy through a sys.meta_path
# finder and run every experiment at its defaults plus smatrix --order 2,
# recording which runs asked for scipy and each exit code.
_SCIPY_PROBE = """
import contextlib, io, json, sys
src, bench, out = sys.argv[1:]
sys.path[:0] = [src, bench]
import sqmlab.cli
import spans, workloads
from sqmlab.experiments import DEFAULTS
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

class RefuseScipy:
    run, reached = None, set()

    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            self.reached.add(self.run)
            raise ModuleNotFoundError(f"scipy refused: {name}", name=name)
        return None

finder = RefuseScipy()
sys.meta_path.insert(0, finder)
runs = [[name] for name in sorted(DEFAULTS)] + [["smatrix", "--order", "2"]]
codes = {}
for argv in runs:
    finder.run = " ".join(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes[finder.run] = sqmlab.cli.main(argv + ["--out", out])
        except ModuleNotFoundError:
            codes[finder.run] = None
print(json.dumps({"loaded": loaded, "reached": sorted(finder.reached), "codes": codes}))
"""


@pytest.fixture(scope="module")
def scipy_probe(tmp_path_factory):
    out = tmp_path_factory.mktemp("reports")
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(Path(sqmlab.__file__).parents[1]),
         str(REPO / "perfbench"), str(out)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_and_benchmark_modules_load_no_scipy(scipy_probe):
    assert scipy_probe["loaded"] == []


def test_no_run_reaches_scipy(scipy_probe):
    codes = scipy_probe["codes"]
    assert len(codes) == 13
    assert scipy_probe["reached"] == []
    assert {run: code for run, code in codes.items() if code != 0} == {}
