"""Every name a module under src/srsub imports is used in that module, no
module reads another module's private names, and only `dag.sample_finite`
draws uniform random points.

No linter is installed with the test dependencies, so these checks walk each
module's syntax tree with the standard library only.  A name counts as used
when the module reads it anywhere: in code, in an annotation, or as the base
of an attribute access.  A private name starts with one underscore; reading
one means importing it from a package module or reading it as an attribute
of a package module bound by an import.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "srsub"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            yield node.returns


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = [tree]
    # a quoted annotation such as "ExprDag" reads the names inside it
    read += [ast.parse(a.value, mode="eval") for top in _annotations(tree)
             for a in ast.walk(top) if isinstance(a, ast.Constant) and isinstance(a.value, str)]
    used = {n.id for t in read for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nfrom typing import List, Sequence\n\n"
              "def f(x: Sequence) -> 'List[int]':\n    return np.asarray(x), 'os'\n")
    assert _unused_imports(source) == ["os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "srsub"


def _private_reads(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    modules = set()  # names bound to package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_import(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{alias.name} (line {node.lineno})")
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "srsub")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return sorted(found)


def test_finds_a_private_read():
    source = ("from . import symbolic\nfrom .dag import _const_repr, fold\n"
              "import numpy as np\nimport srsub.bench as bench\n\n"
              "def f(dag, x):\n    return (symbolic._agreed(x), symbolic.depends_on, np._x,\n"
              "            dag._keys, fold.__name__, bench._problem)\n")
    assert _private_reads(source) == ["_const_repr (line 2)", "bench._problem (line 8)",
                                      "symbolic._agreed (line 7)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(path):
    assert _private_reads(path.read_text(encoding="utf-8")) == []


def _uniform_draws(source: str, module: str) -> list[str]:
    """Every call of an attribute named `uniform` outside the function
    `sample_finite` of the module named `dag`."""
    tree = ast.parse(source)
    allowed = set()
    if module == "dag":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "sample_finite":
                allowed.update(id(inner) for inner in ast.walk(node))
    return [f"{module}.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "uniform" and id(node) not in allowed]


def test_finds_a_uniform_draw_outside_the_sampler():
    source = ("import numpy as np\n\n"
              "def sample_finite(rng):\n    return rng.uniform(-1, 1)\n\n"
              "def probe(rng):\n    draw = rng.uniform\n"
              "    return np.random.default_rng(0).uniform(size=3), draw\n")
    assert _uniform_draws(source, "dag") == ["dag.py:8"]
    assert _uniform_draws(source, "symbolic") == ["symbolic.py:4", "symbolic.py:8"]


def test_only_the_sampler_draws_uniform_points():
    assert [draw for path in sorted(SRC.glob("*.py"))
            for draw in _uniform_draws(path.read_text(encoding="utf-8"), path.stem)] == []
