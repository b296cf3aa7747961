"""Every name a library module imports is used.

Each module of src/ndview except the re-exporting __init__.py is parsed with
ast; a name it imports must be referenced in its body or listed in its
__all__. This stands in for a linter's unused-import check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ndview"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "kernels.py", "storage.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_orphaned_import_is_caught():
    source = "from .core import gather, scatter\nimport math\n__all__ = ['scatter']\ngather()\n"
    assert unused_imports(source) == ["math (line 2)"]


# Python 3.10 is the oldest interpreter the package supports. Each module must
# parse with the 3.10 grammar, and must not reach for the two later library
# helpers a kernel would be tempted by: math.sumprod (3.12) and
# itertools.batched (3.12).
NEWER_THAN_310 = {"sumprod", "batched"}


def newer_than_310(source: str) -> list[str]:
    tree = ast.parse(source, feature_version=(3, 10))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NEWER_THAN_310:
            found.append(f"{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{a.name} (line {node.lineno})" for a in node.names
                      if a.name in NEWER_THAN_310]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_310(path):
    assert newer_than_310(path.read_text()) == []


def test_a_newer_helper_is_caught():
    source = "import math\nfrom itertools import batched\nmath.sumprod([1], [2])\n"
    assert newer_than_310(source) == ["batched (line 2)", "sumprod (line 3)"]


def test_newer_grammar_is_caught():
    with pytest.raises(SyntaxError):
        newer_than_310("try:\n    pass\nexcept* ValueError:\n    pass\n")
