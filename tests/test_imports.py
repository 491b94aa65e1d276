"""Every name a package module imports is used in that module.

No linter ships with the package, so the check is a plain AST scan: a name
bound by an import statement must appear as a name somewhere in the module.
``__init__.py`` is left out, since it imports in order to re-export.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "ergodic_tiler"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    source = "import math\nimport numpy as np\nfrom .graph import quotient, build_graph\nnp.zeros(build_graph)\n"
    assert unused_imports(source) == ["math", "quotient"]


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
