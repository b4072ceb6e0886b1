"""Every name imported by the package, the tests and the demos is used,
the package imports only at module level, and the command line reaches
no private (``_``-prefixed) name of the library.

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


def private_uses(path: Path) -> list[str]:
    """The package's ``_``-prefixed names that a package module imports, or
    reads as attributes of a package module it imported (dunders aside)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    submodules = {p.stem for p in PACKAGE}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "logicrbm"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "logicrbm"
                                                   or node.module.startswith("logicrbm.")):
            found += [a.name for a in node.names if private(a.name)]
            if node.module in (None, "logicrbm"):
                modules |= {a.asname or a.name for a in node.names if a.name in submodules}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(ast.unparse(node))
    return sorted(found)


def test_cli_calls_public_functions_only():
    """The command line is a client of the library: it reaches no private helper."""
    assert private_uses(ROOT / "src" / "logicrbm" / "cli.py") == []


def test_private_uses_are_found(tmp_path):
    path = tmp_path / "client.py"
    path.write_text("import logicrbm.rbm\nimport numpy as np\n"
                    "from . import formula as fm, rbm\nfrom .rbm import _Clamped, Rbm\n"
                    "from logicrbm.trainer import _conditional\nfrom logicrbm import trainer\n"
                    "fm._tokens(rbm._check_epsilon, trainer.train, np._core, L.__name__)\n"
                    "logicrbm.rbm._Clamped\n")
    assert private_uses(path) == ["_Clamped", "_conditional", "fm._tokens",
                                  "logicrbm.rbm._Clamped", "rbm._check_epsilon"]
