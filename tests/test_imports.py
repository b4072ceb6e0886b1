"""Every name imported by the package, the tests and the demos is used,
and the package imports only at module level.

No linter ships with the project, so this scan stands in for one: it
parses each file and reports the imported names that are never read.
``__init__.py`` is left out because its imports are the public API.  An
import inside a function body could hide an import cycle between package
modules, so the package has none.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "logicrbm").glob("*.py"))
FILES = [p for p in PACKAGE if p.name != "__init__.py"] \
    + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def function_imports(path: Path) -> list[int]:
    """Line numbers of the imports inside function bodies."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted({node.lineno
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_at_module_level(path):
    assert function_imports(path) == []


def test_function_imports_are_found(tmp_path):
    path = tmp_path / "lazy.py"
    path.write_text("import os\n\ndef f():\n    from . import rbm\n    def g():\n"
                    "        import json\n\nclass C:\n    async def h(self):\n"
                    "        import csv\n")
    assert function_imports(path) == [4, 6, 10]
