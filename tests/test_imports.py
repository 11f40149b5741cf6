"""Every name a module under src/srsub imports is used in that module.

No linter is installed with the test dependencies, so this check walks each
module's syntax tree with the standard library only.  A name counts as used
when the module reads it anywhere: in code, in an annotation, or as the base
of an attribute access.
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
